#!/usr/bin/env python3
"""Build the packaged expected-tables data file.

Embeds the reference Chern-number tables verbatim (as printed in the source
tables), recomputes every column from scratch, and records:

  * the sign vector (in this package's summand order) and per-column global
    sign that reproduce each printed column, and
  * an annotation for every cell whose printed value differs from the
    recomputed one, with the recomputed value and a diagnosis note.

The script fails loudly if any cell differs that is not explicitly expected
to, so regenerating the data file re-verifies the whole corpus.

Usage: python3 scripts/build_expected_tables.py [output.json]
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from flagchern.chern import chern_classes, chern_numbers, parse_cmonomial  # noqa: E402
from flagchern.flagmodel import InvariantACS, parse_manifold  # noqa: E402
from flagchern.groebner import borel_groebner, normal_form  # noqa: E402

FLAGS: dict = {}


def chern_classes_nf(flag, acs):
    """Chern classes reduced to normal form in the ambient Borel quotient."""
    gb = borel_groebner(flag.rs.family, flag.rs.rank)
    return [normal_form(c, gb) for c in chern_classes(flag, acs)]


def flag_of(name):
    if name not in FLAGS:
        FLAGS[name] = parse_manifold(name)
    return FLAGS[name]


def compute_column(manifold: str, signs, rows) -> list[int]:
    flag = flag_of(manifold)
    nums = chern_numbers(flag, InvariantACS(tuple(signs)), rows)
    return [nums[parse_cmonomial(r, flag.complex_dim)] for r in rows]


def column(manifold, label, signs, global_sign, printed, rows,
           typos=None, note=None, recomputed=None, slow=False):
    """Assemble one column record, verifying printed vs recomputed cells.

    typos: dict row -> note for cells expected to differ; the key "*" gives a
    default note applied to any differing row (for wholly corrupted columns).
    """
    typos = dict(typos or {})
    default_note = typos.pop("*", None)
    if recomputed is None:
        recomputed = compute_column(manifold, signs, rows)
    annotations = []
    for row, p, r in zip(rows, printed, recomputed):
        want = global_sign * r
        if p == want:
            if row in typos:
                raise SystemExit(
                    f"{manifold} {label}: row {row} expected to differ but matches")
            continue
        cell_note = typos.pop(row, default_note)
        if cell_note is None:
            raise SystemExit(
                f"{manifold} {label}: unexpected mismatch at {row}: "
                f"printed {p}, recomputed {want}")
        annotations.append({"row": row, "printed": str(p),
                            "recomputed": str(want), "note": cell_note})
    if typos:
        raise SystemExit(f"{manifold} {label}: unused typo notes {sorted(typos)}")
    rec = {"label": label, "signs": list(signs), "global_sign": global_sign,
           "printed": [str(v) for v in printed], "annotations": annotations}
    if note:
        rec["note"] = note
    if slow:
        rec["slow"] = True
    return rec


# ---------------------------------------------------------------------------
# Row layouts
# ---------------------------------------------------------------------------

ROWS_N8_F522 = [
    "c8", "c1^8", "c1^6c2", "c1^5c3", "c1^4c4", "c1^4c2^2", "c1^3c5",
    "c1^3c2c3", "c1^2c6", "c1^2c2^3", "c1^2c3^2", "c1^2c2c4", "c1c7",
    "c1c2^2c3", "c1c2c5", "c1c3c4", "c2^4", "c2^2c4", "c2c6", "c2c3^2",
    "c3c5", "c4^2"]

ROWS_N6_F4 = [
    "c1^6", "c1^4c2", "c1^2c2^2", "c1^3c3", "c2^3", "c1c2c3", "c1^2c4",
    "c3^2", "c2c4", "c1c5", "c6"]

ROWS_N10_F5 = [
    "c1^10", "c1^8c2", "c1^7c3", "c1^6c4", "c1^5c5", "c1^4c6", "c1^3c7",
    "c1^2c8", "c1^6c2^2", "c1^4c2^3", "c1^2c2^4", "c2^5", "c1^4c3^2",
    "c1c3^3", "c1^2c2c3^2", "c1^3c2^2c3", "c1c2^3c3", "c2^2c3^2", "c1^2c4^2",
    "c2c4^2", "c1^3c3c4", "c1c9", "c1^5c2c3", "c1^3c2c5", "c1^2c2^2c4",
    "c1^2c2c6", "c1^2c3c5", "c1c2c7", "c1^4c2c4", "c1c2^2c5", "c1c2c3c4",
    "c1c3c6", "c1c4c5", "c2c8", "c2^3c4", "c2^2c6", "c2c3c5", "c3c7",
    "c3^2c4", "c4c6", "c5^2", "c10"]

ROWS_N5 = ["c5", "c1^5", "c1^3c2", "c1^2c3", "c1c4", "c1c2^2", "c2c3"]

ROWS_N4 = ["c1^4", "c2^2", "c1^2c2", "c4", "c1c3"]

ROWS_N6_SO8 = [
    "c6", "c1c5", "c2c4", "c1^2c4", "c3^2", "c1c2c3", "c1^3c3", "c2^3",
    "c1^2c2^2", "c1^4c2", "c1^6"]

ROWS_N6_SO7 = [
    "c1c5", "c1^2c2^2", "c1^2c4", "c1c2c3", "c1^3c3", "c2^3", "c1^4c2",
    "c2c4", "c1^6", "c3^2", "c6"]

ROWS_N6_G2T = [
    "c6", "c1^6", "c1c5", "c1c2c3", "c1^2c4", "c1^2c2^2", "c1^3c3",
    "c1^4c2", "c2c4", "c3^2", "c2^3"]

ROWS_N9_SO21 = [
    "c9", "c1c8", "c2c7", "c1^2c7", "c3c6", "c1c2c6", "c1^3c6", "c4c5",
    "c1c3c5", "c2^2c5", "c1^2c2c5", "c1^4c2c3", "c1^4c5", "c1c4^2",
    "c2c3c4", "c1^2c3c4", "c1c2^2c4", "c1^3c2c4", "c1^5c4", "c3^3",
    "c1c2c3^2", "c1^3c3^2", "c2^3c3", "c1^2c2^2c3", "c1^6c3", "c1c2^4",
    "c1^3c2^3", "c1^5c2^2", "c1^7c2", "c1^9"]

ROWS_N9_SP3 = [
    "c9", "c1c8", "c2c7", "c1^2c7", "c3c6", "c1c2c6", "c1^3c6", "c4c5",
    "c1c3c5", "c2^2c5", "c1^2c2c5", "c1^4c2c3", "c1^4c5", "c1^3c2^3",
    "c1^5c2^2", "c1c4^2", "c2c3c4", "c1^2c3c4", "c1c2^2c4", "c1^3c2c4",
    "c1^5c4", "c3^3", "c1c2c3^2", "c1^3c3^2", "c2^3c3", "c1^2c2^2c3",
    "c1^6c3", "c1c2^4", "c1^7c2", "c1^9"]


# ---------------------------------------------------------------------------
# A-type label conventions
# ---------------------------------------------------------------------------
# The reference tables index sign tuples by block pairs (i,j) in lexicographic
# order; this package orders summands by (T-root height, coefficient vector).

PAIR_NOTE_3 = ("printed tuples are (eps_12, eps_13, eps_23) over the three "
               "block pairs; 'signs' follows this package's summand order "
               "[u_12, u_23, u_13]")

PAIR_NOTE_F4 = ("printed tuples list the pairs (1,2),(1,3),(1,4),(2,3),(2,4),"
                "(3,4); 'signs' follows this package's summand order "
                "[u_12, u_23, u_34, u_13, u_24, u_14]")

PAIR_NOTE_F5 = ("printed tuples list the ten pairs (i,j), i<j, in "
                "lexicographic order; 'signs' follows this package's summand "
                "order [u_12, u_23, u_34, u_45, u_13, u_24, u_35, u_14, "
                "u_25, u_15]")

D13_NOTE = ("printed tuples are (eps_1, eps_2, eps_3) in the reference's "
            "summand order, which is the reverse of this package's; 'signs' "
            "is already expressed in this package's order")


def pairs_to_mine_f5(printed_signs):
    """Reorder a 10-tuple from lex pair order to this package's order."""
    perm = [0, 4, 7, 9, 1, 5, 8, 2, 6, 3]
    return [printed_signs[i] for i in perm]


def pairs_to_mine_f4(printed_signs):
    perm = [0, 3, 5, 1, 4, 2]
    return [printed_signs[i] for i in perm]


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------

def table_tab_dif():
    rows = ["c1^14"]
    cols = [
        column("F(7;1,2,4)", "J1 = (+,+,+)", [1, 1, 1], 1,
               [4169710642825728], rows),
        column("F(7;1,2,4)", "J2 = (-,+,+)", [-1, 1, 1], 1,
               [3967580897280000], rows),
        column("F(7;1,2,4)", "J3 = (+,+,-)", [1, -1, 1], 1,
               [5340215200320000], rows),
        column("F(7;1,2,4)", "J4 = (-,+,-)", [-1, -1, 1], 1,
               [68881612800], rows),
    ]
    return {"title": "c1^14 on F(7;1,2,4) for the four non-conjugate pairs "
                     "of invariant almost complex structures",
            "manifold": "F(7;1,2,4)", "rows": rows,
            "label_note": PAIR_NOTE_3, "columns": cols, "notes": []}


def table_tab2():
    sections = []

    rows = ["c1^11"]
    man = "F(6;1,2,3)"
    sections.append({
        "manifold": man, "rows": rows, "label_note": PAIR_NOTE_3,
        "columns": [
            column(man, "J1 = (+,+,+)", [1, 1, 1], -1, [-166320000000], rows),
            column(man, "J2 = (-,+,+)", [1, -1, 1], 1, [187110000000], rows,
                   note="printed under the label (-,+,+), but the value "
                        "belongs to the (+,+,-)-labelled structure; the J2 "
                        "and J3 columns are interchanged relative to their "
                        "headers"),
            column(man, "J3 = (+,+,-)", [-1, 1, 1], -1, [-156539053440], rows,
                   note="printed under the label (+,+,-), but the value "
                        "belongs to the (-,+,+)-labelled structure (sign "
                        "flipped); the J2 and J3 columns are interchanged "
                        "relative to their headers"),
            column(man, "J4 = (-,+,-)", [-1, -1, 1], 1, [0], rows),
        ]})

    rows = ["c1^17"]
    man = "F(8;1,2,5)"
    rec = {(1, 1, 1): 207657272688465600000,
           (-1, 1, 1): 199318721129508524544,
           (1, -1, 1): 303212843288789930496,
           (-1, -1, 1): 12507495000000000}
    sections.append({
        "manifold": man, "rows": rows, "label_note": PAIR_NOTE_3,
        "slow": True,
        "columns": [
            column(man, "J1 = (+,+,+)", [1, 1, 1], -1,
                   [-207657272688465600000], rows,
                   recomputed=[rec[(1, 1, 1)]], slow=True),
            column(man, "J2 = (-,+,+)", [-1, 1, 1], -1,
                   [-199318721129508524544], rows,
                   recomputed=[rec[(-1, 1, 1)]], slow=True),
            column(man, "J3 = (+,+,-)", [1, -1, 1], 1,
                   [303212843288789930496], rows,
                   recomputed=[rec[(1, -1, 1)]], slow=True),
            column(man, "J4 = (-,+,-)", [-1, -1, 1], 1,
                   [1250749500000000], rows,
                   recomputed=[rec[(-1, -1, 1)]], slow=True,
                   typos={"c1^17": "printed value is missing one trailing "
                                   "zero: recomputation gives 10x the "
                                   "printed value and no candidate structure "
                                   "yields the printed number"}),
        ]})

    rows = ["c1^19"]
    man = "F(8;1,3,4)"
    rec134 = F8_134_RECOMPUTED
    sections.append({
        "manifold": man, "rows": rows, "label_note": PAIR_NOTE_3,
        "slow": True,
        "columns": [
            column(man, F8_134_LABELS[0], F8_134_SIGNS[0], F8_134_GSIGNS[0],
                   [301923064586776419730944], rows,
                   recomputed=[rec134[0]], slow=True,
                   typos=F8_134_TYPOS[0], note=F8_134_NOTES[0]),
            column(man, F8_134_LABELS[1], F8_134_SIGNS[1], F8_134_GSIGNS[1],
                   [262989979268101525440000], rows,
                   recomputed=[rec134[1]], slow=True,
                   typos=F8_134_TYPOS[1], note=F8_134_NOTES[1]),
            column(man, F8_134_LABELS[2], F8_134_SIGNS[2], F8_134_GSIGNS[2],
                   [347992057571330652480000], rows,
                   recomputed=[rec134[2]], slow=True,
                   typos=F8_134_TYPOS[2], note=F8_134_NOTES[2]),
            column(man, F8_134_LABELS[3], F8_134_SIGNS[3], F8_134_GSIGNS[3],
                   [363738375000000000], rows,
                   recomputed=[rec134[3]], slow=True,
                   typos=F8_134_TYPOS[3], note=F8_134_NOTES[3]),
        ]})

    return {"title": "Highest c1 powers on F(6;1,2,3), F(8;1,2,5) and "
                     "F(8;1,3,4)",
            "sections": sections,
            "notes": ["the F(8) sections are gated behind the slow flag: "
                      "about a second under the fixed-point (weyl) oracle, "
                      "minutes per column under normal forms"]}


def table_tab3():
    man = "F(5;1,2,2)"
    rows = ROWS_N8_F522
    j1 = [30, 15805440, 7579680, 2262960, 459990, 3637010, 66510, 1087270,
          7020, 1746170, 325940, 221430, 540, 522690, 32070, 66660, 838840,
          106660, 3390, 156880, 9690, 13730]
    j2 = [30, 14696640, 7085880, 2143260, 444690, 3419010, 65610, 1035720,
          7020, 1650870, 314640, 215280, 540, 500790, 31770, 65610, 797640,
          104260, 3390, 152280, 9690, 13730]
    j3 = [30, 2240, 760, 220, 210, 290, 90, 180, 60, 110, 360, 140, 60, 70,
          10, 230, 40, 60, 10, 40, -30, 130]
    cols = [
        column(man, "J1 = (+,+,+)", [1, 1, 1], 1, j1, rows),
        column(man, "J2 = (-,+,+)", [-1, 1, 1], 1, j2, rows),
        column(man, "J3 = (-,+,-)", [-1, -1, 1], 1, j3, rows,
               typos={"c2c6": "sign typo: the recomputed value is -10; with "
                              "+10 the column fails the 3628800-denominator "
                              "Riemann-Roch identity, with -10 it holds"}),
        column(man, "J4 = (+,+,-)", [1, -1, 1], 1, j1, rows,
               note="printed identically to the J1 column; the recomputation "
                    "confirms the two structures have equal Chern numbers "
                    "(they are equivalent)"),
    ]
    return {"title": "All 22 Chern numbers on F(5;1,2,2) for the four "
                     "non-conjugate pairs of invariant structures",
            "manifold": man, "rows": rows, "label_note": PAIR_NOTE_3,
            "columns": cols, "notes": []}


def table_tab5():
    man = "F(4)"
    rows = ROWS_N6_F4
    jj = [46080, 23040, 11520, 7360, 5760, 3680, 1600, 1168, 800, 240, 24]
    i1 = [0, 0, 0, 384, 0, 192, 384, 144, 192, 144, 24]
    i2 = [0, 0, 0, -64, 0, -32, -64, -16, -32, -96, -24]
    cols = [
        column(man, "J = (+,+,+,+,+,+)", [1] * 6, 1, jj, rows),
        column(man, "I1 = (+,+,+,-,+,-)", pairs_to_mine_f4([1, 1, 1, -1, 1, -1]),
               1, i1, rows),
        column(man, "I2 = (+,+,-,+,+,+)", pairs_to_mine_f4([1, 1, -1, 1, 1, 1]),
               1, i2, rows,
               typos={"c1c5": "digit typo: recomputation gives -48; with -96 "
                              "the column fails the 60480-denominator "
                              "Riemann-Roch identity in complex dimension 6, "
                              "with -48 it holds"}),
        column(man, "I3 = (-,+,+,-,+,+)", pairs_to_mine_f4([-1, 1, 1, -1, 1, 1]),
               1, i1, rows,
               note="printed identically to the I1 column; the recomputation "
                    "confirms the two structures have equal Chern numbers"),
    ]
    return {"title": "All 11 Chern numbers on the full flag F(4) for the "
                     "four equivalence classes of invariant structures",
            "manifold": man, "rows": rows, "label_note": PAIR_NOTE_F4,
            "columns": cols, "notes": []}


F5_PRINTED = {
    "J": [3715891200, 1857945600, 610086400, 14560000, 26464000, 3744000,
          415200, 36000, 928972800, 464486400, 232243200, 116121600,
          100160000, 16442400, 50080000, 152521600, 76260800, 2504000,
          5699200, 2849600, 23899200, 2400, 305043200, 13232000, 36400000,
          1872000, 43424400, 207600, 72800000, 661600, 11949600, 614000,
          1034400, 18000, 18200000, 936000, 2171200, 68040, 3922400, 146000,
          187360, 120],
    "I1": [0, 0, 5806080, 5806080, 2753280, 804480, 157920, 21120, 0, 0, 0,
           0, 1908480, 470880, 954240, 1451520, 725760, 477120, 456960,
           228480, 1182720, 1920, 2903040, 1376640, 1451520, 402240, 493920,
           78960, 2903040, 688320, 591360, 138000, 149760, 10560, 7257760,
           201120, 246960, 26520, 232320, 37440, 39360, 120],
    "I2": [0, 0, -1236480, -1236480, -629760, -219520, -56320, -10720, 0, 0,
           0, 0, -416000, -104640, -208000, -309120, -154560, -104000,
           -106880, -53440, -261440, -1440, -618240, -314880, -309120,
           -109760, -117600, -28160, -618240, -157440, -130720, -39200,
           -38880, -5360, -154560, -54880, -58800, -9880, -52640, -11760,
           -11840, -120],
    "I3": [0, 0, 6881280, 6881280, 3194880, 890880, 165120, 21120, 0, 0, 0,
           0, 2273280, 564480, 1136640, 1720320, 860160, 568320, 552960,
           276480, 1413120, 1920, 3440640, 1597440, 1720320, 445440, 577920,
           82560, 3440640, 798720, 706560, 153600, 178560, 10560, 860160,
           222720, 288960, 27720, 280320, 42240, 46560, 120],
    "I6": [0, 0, -573440, -573440, -335360, -129280, -34240, -6400, 0, 0, 0,
           0, -161280, -33600, -80640, -143360, -71680, -40320, -17920,
           -8960, -89600, -960, -286720, -167680, -143360, -64640, -45760,
           -17120, -286720, -83840, -44800, -17760, -3840, -3200, -71680,
           -32320, -22880, -4840, -13440, -1600, -1760, -120],
    "I7": [0, 0, 0, 0, 0, -10240, -10240, -4480, 0, 0, 0, 0, -20480, -9600,
           -10240, 0, 0, -5120, -20480, -10240, -20480, -960, 0, 0, 0, -5120,
           -9600, -5120, 0, 0, -10240, -4160, -9600, -2240, 0, -2560, -4800,
           -2120, -7040, -2880, -4320, -120],
    "I8": [0, 0, 53760, 53760, 19200, 2560, 1120, 1120, 0, 0, 0, 0, 20480,
           5280, 10240, 13440, 6720, 5120, 7040, 3520, 13760, 480, 26880,
           9600, 13440, 1280, 4800, 560, 26880, 4800, 6880, 560, 2400, 560,
           6720, 640, 2400, 40, 2720, 240, 800, 120],
    "I9": [0, 0, -17920, -17920, -6400, 1280, 1760, 800, 0, 0, 0, 0, -2560,
           1440, -1280, -4480, -2240, -640, 1920, 960, -320, 480, -8960,
           -3200, -4480, 640, 640, 880, -8960, -1600, -160, 1520, 1440, 400,
           -2240, 320, 320, 840, 1760, 1360, 1120, 120],
}

F5_STRUCTURES = {
    # label -> sign tuple over the ten pairs (i,j) in lexicographic order
    "J": [1, 1, 1, 1, 1, 1, 1, 1, 1, 1],
    "I1": [-1, 1, 1, 1, -1, 1, 1, 1, 1, 1],
    "I2": [-1, 1, 1, 1, -1, 1, 1, -1, 1, 1],
    "I3": [1, 1, 1, 1, -1, 1, 1, -1, 1, 1],
    "I4": [1, 1, 1, 1, 1, 1, 1, -1, 1, -1],
    "I5": [1, 1, 1, 1, -1, 1, 1, -1, 1, -1],
    "I6": [1, 1, 1, -1, 1, 1, 1, 1, 1, 1],
    "I7": [1, 1, 1, -1, 1, 1, 1, -1, 1, -1],
    "I8": [1, 1, 1, -1, 1, 1, -1, 1, 1, 1],
    "I9": [-1, 1, 1, -1, -1, 1, -1, 1, 1, 1],
    "I10": [1, 1, 1, -1, -1, 1, 1, -1, 1, 1],
    "I11": [-1, -1, 1, 1, -1, -1, 1, -1, -1, -1],
}


def f5_column(label, printed, typos=None, note=None, recomputed=None):
    signs = pairs_to_mine_f5(F5_STRUCTURES[label])
    lex_signs = F5_STRUCTURES[label]
    sig = ",".join("+" if s > 0 else "-" for s in lex_signs)
    return column("F(5)", f"{label} = ({sig})", signs, 1, printed,
                  ROWS_N10_F5, typos=typos, note=note, recomputed=recomputed)


def tables_f5():
    man = "F(5)"
    rows = ROWS_N10_F5

    rec = {label: compute_column(man, pairs_to_mine_f5(p), rows)
           for label, p in F5_STRUCTURES.items()}

    # The printed I4/I5 columns are interchanged: the printed I5 column is
    # the true I4 column (the I1 values with I1's c2^3c4 digit typo
    # corrected to 725760) and the printed I4 column is the true I5 column
    # (identical to the I2 column).
    printed_i4 = list(F5_PRINTED["I2"])
    printed_i5 = [725760 if r == "c2^3c4" else v
                  for r, v in zip(rows, F5_PRINTED["I1"])]
    assert rec["I4"] == printed_i5
    assert rec["I5"] == printed_i4
    mismatch_i4 = [r for r, p, c in zip(rows, printed_i4, rec["I4"])
                   if p != c]
    mismatch_i5 = [r for r, p, c in zip(rows, printed_i5, rec["I5"])
                   if p != c]

    t1_cols = [
        f5_column("J", F5_PRINTED["J"], typos={
            "c1^6c4": "digit typo: recomputation gives 145600000 (printed "
                      "value is missing a zero)",
            "c2^2c3^2": "digit typo: recomputation gives 25040000 (printed "
                        "value is missing a zero)",
            "c1^2c3c5": "digit typo: recomputation gives 4342400 (printed "
                        "value has an extra digit)",
            "c1c2^2c5": "digit typo: recomputation gives 6616000 (printed "
                        "value is missing a zero)"}),
        f5_column("I1", F5_PRINTED["I1"], typos={
            "c2^3c4": "digit typo: recomputation gives 725760; the printed "
                      "7257760 breaks and the recomputed value satisfies "
                      "the printed 7257600-denominator Riemann-Roch "
                      "identity for this column"}),
        f5_column("I2", F5_PRINTED["I2"]),
        f5_column("I3", F5_PRINTED["I3"]),
        f5_column("I4", printed_i4,
                  typos={"*": "the printed I4 and I5 columns are "
                              "interchanged: the recomputed I4 column equals "
                              "the printed I5 column exactly, and the "
                              "printed I4 column equals the I2 column"},
                  note="recomputation shows the printed I4 and I5 columns "
                       "are interchanged; the recomputed I4 column equals "
                       "the printed I5 column cell for cell",
                  recomputed=rec["I4"]),
        f5_column("I5", printed_i5,
                  typos={"*": "the printed I4 and I5 columns are "
                              "interchanged: the recomputed I5 column equals "
                              "the printed I4 column (= the I2 column) "
                              "exactly"},
                  note="recomputation shows the printed I4 and I5 columns "
                       "are interchanged; the recomputed I5 column equals "
                       "the printed I4 column cell for cell",
                  recomputed=rec["I5"]),
    ]
    tab1 = {"title": "All 42 Chern numbers on the full flag F(5), "
                     "structures J and I1-I5",
            "manifold": man, "rows": rows, "label_note": PAIR_NOTE_F5,
            "columns": t1_cols,
            "notes": [f"recomputed I4 differs from printed in "
                      f"{len(mismatch_i4)} rows; recomputed I5 differs from "
                      f"printed in {len(mismatch_i5)} rows"]}

    t2_cols = [
        f5_column("I6", F5_PRINTED["I6"], typos={
            "c5^2": "sign typo: recomputation gives +1760; with -1760 the "
                    "column fails the 7257600-denominator Riemann-Roch "
                    "identity, with +1760 it holds"}),
        f5_column("I7", F5_PRINTED["I7"]),
        f5_column("I8", F5_PRINTED["I8"]),
        f5_column("I9", F5_PRINTED["I9"]),
        f5_column("I10", F5_PRINTED["I8"],
                  typos={"*": "printed I10 column duplicates the printed I8 "
                              "column; the recomputed value is the I10 "
                              "structure's"},
                  note="printed identically to the I8 column; recomputation "
                       "gives a genuinely different column for the I10 "
                       "structure",
                  recomputed=rec["I10"]),
        f5_column("I11", F5_PRINTED["I9"],
                  typos={"*": "printed I11 column duplicates the printed I9 "
                              "column; the recomputed value is the I11 "
                              "structure's"},
                  note="printed identically to the I9 column; recomputation "
                       "gives a genuinely different column for the I11 "
                       "structure",
                  recomputed=rec["I11"]),
    ]
    tab2 = {"title": "All 42 Chern numbers on the full flag F(5), "
                     "structures I6-I11",
            "manifold": man, "rows": rows, "label_note": PAIR_NOTE_F5,
            "columns": t2_cols, "notes": []}
    return tab1, tab2


def table_tabso1():
    man = "FD(3;1,2)"
    rows = ROWS_N5
    cols = [
        column(man, "J1 = (+,+,+)", [1, 1, 1], 1,
               [12, 4500, 2148, 612, 108, 1028, 292], rows),
        column(man, "J2 = (-,+,+)", [1, 1, -1], 1,
               [12, -20, -4, 20, 12, -4, 4], rows),
        column(man, "J3 = (+,+,-)", [-1, 1, 1], 1,
               [12, 4860, 2268, 612, 108, 1068, 292], rows),
        column(man, "J4 = (+,-,+)", [1, -1, 1], 1,
               [-12, -4500, -2148, -612, -108, -1028, -292], rows),
    ]
    return {"title": "Chern numbers on FD(3;1,2) = SO(6)/(U(1)xU(2)) for "
                     "the four non-conjugate pairs of invariant structures",
            "manifold": man, "rows": rows, "label_note": D13_NOTE,
            "columns": cols, "notes": []}


def table_tabso21():
    man = "FD(4;1,3)"
    rows = ROWS_N9_SO21
    p1 = [32, -96, -786, -1632, -2958, -9792, -20352, -5592, -26976, -43128,
          -89856, -2974464, -187392, -37440, -87138, -181728, -291168,
          -608256, -1271808, -126800, -423936, -885888, -679698, -1421280,
          -6230016, -2280960, -4776192, -10008576, -20987904, -44040192]
    p2 = [32] + [-v for v in p1[1:]]
    p4 = [32, 0, -6, 0, 6, 0, 0, -24, 0, -24, 0, 0, 0, 0, -6, 0, 0, 0, 0,
          48, 0, 0, -6, 0, 0, 0, 0, 0, 0, 0]
    scale_note = ("printed magnitude is 1/8 of the recomputed value; the "
                  "whole printed table (except c9) is scaled by 1/8 -- the "
                  "printed columns fail the printed 7257600-denominator "
                  "Riemann-Roch identity while the recomputed columns "
                  "satisfy it exactly (Todd genus 1)")
    c9_note = ("printed as +chi while the rest of the column follows the "
               "-J convention")
    sparse_note = ("printed value belongs (after the 1/8 scaling) to the "
                   "non-integrable structure labelled (-,+,+); the sparse "
                   "and dense columns are printed under interchanged labels")
    dense_note = ("printed value belongs (after the 1/8 scaling) to the "
                  "canonical column; the true column for this label is the "
                  "sparse, genus-0 one")
    cols = [
        column(man, "J1 = (+,+,+)", [1, 1, 1], -1, p1, rows,
               typos={"*": scale_note, "c9": c9_note}),
        column(man, "J2 = (-,+,+)", [1, 1, -1], -1, p2, rows,
               typos={"*": dense_note},
               note="the recomputed column for this label is sparse with "
                    "Todd genus 0 (the structure is not integrable); the "
                    "printed dense column belongs elsewhere"),
        column(man, "J3 = (+,+,-)", [-1, 1, 1], -1, p2, rows,
               typos={"*": scale_note}),
        column(man, "J4 = (+,-,+)", [1, -1, 1], -1, p4, rows,
               typos={"*": sparse_note},
               note="the printed column is the sparse genus-0 column scaled "
                    "by 1/8 and negated, but the recomputed column for this "
                    "label is dense (the structure is integrable with Todd "
                    "genus 1)"),
    ]
    return {"title": "Chern numbers on FD(4;1,3) = SO(8)/(U(1)xU(3)) for "
                     "the four non-conjugate pairs of invariant structures",
            "manifold": man, "rows": rows, "label_note": D13_NOTE,
            "columns": cols,
            "notes": ["every printed magnitude except c9 is exactly 1/8 of "
                      "the recomputed one (a likely |W_K| normalization "
                      "slip: 48 vs 6); the printed columns fail the printed "
                      "7257600-denominator Riemann-Roch identity that the "
                      "recomputed columns satisfy"]}


def table_tabg21():
    man = "G2-long"
    rows = ROWS_N5
    halving = ("halving typo: recomputation gives -18; the sibling column "
               "shows the same cell and the recomputed value satisfies the "
               "1440-denominator Riemann-Roch identity for this column")
    cols = [
        column(man, "J1 = (+,+,+)", [1, 1, 1], -1,
               [-6, -6250, -2750, -650, -90, -1210, -286], rows),
        column(man, "J2 = (-,+,+)", [-1, 1, 1], -1,
               [-6, -486, -162, -9, -18, -54, -6], rows,
               typos={"c1^2c3": halving}),
        column(man, "J3 = (-,+,-)", [-1, 1, -1], -1,
               [-6, 486, 162, -9, -18, 54, -6], rows,
               typos={"c1^2c3": halving}),
        column(man, "J4 = (+,+,-)", [1, 1, -1], -1,
               [-6, 2, -2, -2, 6, 2, 2], rows),
    ]
    return {"title": "Chern numbers on the G2 flag with isotropy along the "
                     "short root (three summands of dimensions 2,1,2)",
            "manifold": man, "rows": rows,
            "label_note": "printed tuples follow the summand order of "
                          "increasing T-root height, matching this package",
            "columns": cols, "notes": []}


def table_tabg22():
    man = "G2-short"
    rows = ROWS_N5
    halved = "halving typo: the recomputed value is twice the printed one"
    cols = [
        column(man, "J1 = (+,+)", [1, 1], 1,
               [6, 4374, 2106, 594, 90, 1014, 286], rows),
        column(man, "J2 = (+,-)", [1, -1], 1,
               [-6, 9, 3, -9, -9, 1, -9], rows,
               typos={"c1^5": halved, "c1^3c2": halved, "c1^2c3": halved,
                      "c1c4": halved, "c1c2^2": halved,
                      "c2c3": "typo: recomputation gives -6 (= -chi "
                              "consistency is not affected; both value sets "
                              "give Todd genus 0)"},
               note="every printed cell except c5 is half the recomputed "
                    "value; c2c3 does not fit even that pattern"),
    ]
    return {"title": "Chern numbers on the G2 flag with isotropy along the "
                     "long root (two summands of dimensions 4,1)",
            "manifold": man, "rows": rows,
            "label_note": "printed tuples follow the summand order of "
                          "increasing T-root height, matching this package",
            "columns": cols, "notes": []}


def table_tabsp31():
    man = "Sp(3)/T"
    rows = ROWS_N9_SP3
    printed = [-48, -1056, -7696, -15392, -26096, -80272, -160544, -46768,
               -201040, -308544, -617088, -15159168, -1234176, -23224320,
               -46448640, -270208, -578480, -1156960, -1773504, -3547008,
               -7094016, -807072, -2473376, -4946752, -3789792, -7579584,
               -30318336, -11612160, -92897280, -185794560]
    cols = [column(man, "J = (+,...,+)", [1] * 9, -1, printed, rows)]
    return {"title": "All 30 Chern numbers of the canonical structure on "
                     "the full flag Sp(3)/T",
            "manifold": man, "rows": rows, "columns": cols, "notes": []}


def table_g2t():
    man = "G2/T"
    rows = ROWS_N6_G2T
    printed = [12, 46080, 192, 3632, 1504, 11520, 7264, 23040, 752, 1144,
               5760]
    cols = [column(man, "J = (+,...,+)", [1] * 6, 1, printed, rows)]
    return {"title": "Chern numbers of the canonical structure on the full "
                     "flag G2/T",
            "manifold": man, "rows": rows, "columns": cols,
            "notes": ["the reference prints the last row label as "
                      "'c2^3c2'; the value 5760 is the recomputed c2^3"]}


def table_so8u4():
    man = "SO(8)/U(4)"
    rows = ROWS_N6_SO8
    printed = [8, 144, 704, 1584, 1152, 4608, 10368, 8192, 18432, 41472,
               93312]
    cols = [column(man, "J = (+)", [1], 1, printed, rows)]
    return {"title": "Chern numbers of the canonical (integrable) structure "
                     "on SO(8)/U(4)",
            "manifold": man, "rows": rows, "columns": cols, "notes": []}


def table_so7u3():
    man = "SO(7)/U(3)"
    rows = ROWS_N6_SO7
    printed = [144, 18432, 1584, 4608, 10368, 8192, 41472, 704, 6144, 1152,
               8]
    cols = [column(man, "J = (+,+)", [1, 1], 1, printed, rows,
                   typos={"c1^6": "the reference prints this cell as "
                                  "'c1c2^2 = 6144', a malformed label of "
                                  "weighted degree 5; the table omits c1^6, "
                                  "whose recomputed value is 93312 (the "
                                  "space is biholomorphic to SO(8)/U(4), "
                                  "whose table lists c1^6 = 93312)"})]
    return {"title": "Chern numbers of the canonical structure on "
                     "SO(7)/U(3)",
            "manifold": man, "rows": rows, "columns": cols,
            "notes": ["all ten well-formed printed values coincide with the "
                      "SO(8)/U(4) table, as they must: the two spaces are "
                      "biholomorphic"]}


def table_so5t():
    man = "SO(5)/T"
    rows = ROWS_N4
    printed = [-384, -96, -192, -8, -56]
    cols = [column(man, "J = (+,+,+,+)", [1] * 4, -1, printed, rows)]
    flag = flag_of(man)
    classes = [str(c) for c in chern_classes_nf(flag, InvariantACS((1,) * 4))]
    expect = ["3*x +y", "3*x*y -4*y^2", "-2*x*y^2 -4*y^3", "-2*x*y^3"]
    if classes != expect:
        raise SystemExit(f"SO(5)/T Chern classes changed: {classes}")
    return {"title": "Chern numbers and Chern classes of the canonical "
                     "structure on the full flag SO(5)/T",
            "manifold": man, "rows": rows, "columns": cols,
            "chern_classes": {"signs": [1, 1, 1, 1], "printed": expect},
            "notes": []}


def table_sp2t():
    man = "Sp(2)/T"
    rows = ROWS_N4
    printed = [-384, -96, -192, -8, -56]
    cols = [column(man, "J = (+,+,+,+)", [1] * 4, -1, printed, rows)]
    flag = flag_of(man)
    classes = [str(c) for c in chern_classes_nf(flag, InvariantACS((1,) * 4))]
    expect = ["4*x +2*y", "8*x*y -6*y^2", "-4*x*y^2 -12*y^3", "-8*x*y^3"]
    if classes != expect:
        raise SystemExit(f"Sp(2)/T Chern classes changed: {classes}")
    return {"title": "Chern numbers and Chern classes of the canonical "
                     "structure on the full flag Sp(2)/T",
            "manifold": man, "rows": rows, "columns": cols,
            "chern_classes": {"signs": [1, 1, 1, 1], "printed": expect},
            "notes": ["identical Chern numbers to SO(5)/T: the two root "
                      "systems are dual and the full flags are "
                      "diffeomorphic with matching canonical structures"]}


# ---------------------------------------------------------------------------
# F(8;1,3,4) recomputed values (filled in by a long off-line sweep)
# ---------------------------------------------------------------------------

F8_134_RECOMPUTED: list[int] = []
F8_134_LABELS: list[str] = []
F8_134_SIGNS: list[list[int]] = []
F8_134_GSIGNS: list[int] = []
F8_134_TYPOS: list[dict] = []
F8_134_NOTES: list = []


def resolve_f8_134(values: dict):
    """Match the four printed F(8;1,3,4) values against recomputed truths.

    values: sign tuple (this package's order) -> recomputed c1^19.
    """
    printed = [301923064586776419730944, 262989979268101525440000,
               347992057571330652480000, 363738375000000000]
    headers = ["J1 = (+,+,+)", "J2 = (-,+,+)", "J3 = (+,+,-)",
               "J4 = (-,+,-)"]
    label_to_mine = {0: (1, 1, 1), 1: (-1, 1, 1), 2: (1, -1, 1),
                     3: (-1, -1, 1)}
    full = dict(values)
    for s, v in values.items():
        conj = tuple(-x for x in s)
        full.setdefault(conj, -v)  # odd complex dimension: conjugate negates
    for i, p in enumerate(printed):
        expected_signs = label_to_mine[i]
        hits = [(s, g) for s in full for g in (1, -1) if g * full[s] == p]
        if not hits:
            raise SystemExit(f"F(8;1,3,4) column {headers[i]}: printed {p} "
                             f"matches no recomputed structure")
        # prefer the label-implied structure, then its sign flip
        hits.sort(key=lambda h: (h[0] != expected_signs, h[1] < 0))
        s, g = hits[0]
        F8_134_LABELS.append(headers[i])
        F8_134_SIGNS.append(list(s))
        F8_134_GSIGNS.append(g)
        F8_134_RECOMPUTED.append(full[s])
        F8_134_TYPOS.append({})
        if s != expected_signs:
            F8_134_NOTES.append(
                f"printed under the label {headers[i].split(' = ')[1]}, but "
                f"the value belongs to a differently-labelled structure")
        else:
            F8_134_NOTES.append(None)


def main():
    out = sys.argv[1] if len(sys.argv) > 1 else os.path.join(
        os.path.dirname(__file__), "..", "src", "flagchern", "data",
        "expected_tables.json")

    # Recorded truths for the F(8) sections (regenerate with
    # flagchern chern --manifold ... --oracle weyl).
    resolve_f8_134({
        (1, 1, 1): F8_134_TRUTH[(1, 1, 1)],
        (-1, 1, 1): F8_134_TRUTH[(-1, 1, 1)],
        (1, -1, 1): F8_134_TRUTH[(1, -1, 1)],
        (-1, -1, 1): F8_134_TRUTH[(-1, -1, 1)],
    })

    f51, f54 = tables_f5()
    tables = {
        "tab-dif": table_tab_dif(),
        "tab2": table_tab2(),
        "tab3": table_tab3(),
        "tab5": table_tab5(),
        "tabf51": f51,
        "tabf54": f54,
        "tabso1": table_tabso1(),
        "tabso21": table_tabso21(),
        "tabg21": table_tabg21(),
        "tabg22": table_tabg22(),
        "tabsp31": table_tabsp31(),
        "g2t": table_g2t(),
        "so8u4": table_so8u4(),
        "so7u3": table_so7u3(),
        "so5t": table_so5t(),
        "sp2t": table_sp2t(),
    }
    data = {
        "tables": tables,
        "aliases": {"sp3t": "tabsp31"},
        "groups": {"f5-all": ["tabf51", "tabf54"]},
    }
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    n_cols = sum(len(t.get("columns", []))
                 + sum(len(s["columns"]) for s in t.get("sections", []))
                 for t in tables.values())
    print(f"wrote {out}: {len(tables)} tables, {n_cols} columns")


# Recomputed c1^19 values on F(8;1,3,4) (sign tuples in this package's
# summand order).  The fixed-point oracle recomputes each in well under a
# second; they are pinned here so the build stays independent of the F(8)
# sections, and tests/test_acceptance.py::test_criterion_02_c1_power_rows_f8
# re-verifies them through `table reproduce tab2 --slow`.
F8_134_TRUTH = {
    (1, 1, 1): 301923064586776419730944,
    (-1, 1, 1): -262989979268101525440000,
    (1, -1, 1): 347992057571330652480000,
    (-1, -1, 1): 363738375000000000,
}

if __name__ == "__main__":
    main()
