#!/usr/bin/env python3
"""Rebuild the packaged registry src/flagchern/data/expected_tables.json from
itself: it is the only copy of the printed values, sign vectors, global signs
and notes.  Every section, the slow F(8) ones included, is checked and
recomputed by ``tables.reproduce_section``, the code of ``table
reproduce``, under the fixed-point oracle, and each annotation keeps its
note while its printed and recomputed values are rewritten.  The rebuild
stops, naming the table, manifold, column and row, on a difference with no
annotation, an annotation on a matching cell, or a column that
``tables.check_column`` refuses (signs that are not one +-1 per summand, a
printed list that is not one value per row, or a printed or annotated
value that is not a decimal integer); it names the section for a row
that ``tables.row_monomials`` refuses (a row that is not a Chern monomial
of weighted degree N).  It also rechecks the recorded
Chern classes of the canonical structure against their normal forms in the
Borel quotient.  The package computes Chern numbers from root data alone
and never forms a Chern class as a polynomial, so this script builds
c_1..c_N itself: the elementary symmetric functions of the signed linear
forms of the complementary positive roots on the ambient coordinates.

Usage: PYTHONPATH=src python3 scripts/build_expected_tables.py [output.json]
"""

import copy
import json
import sys
from pathlib import Path

from flagchern.flagmodel import parse_manifold
from flagchern.groebner import (MonomialOrder, borel_generators, buchberger,
                                normal_form)
from flagchern.polyring import Polynomial
from flagchern.tables import reproduce_section

REGISTRY = (Path(__file__).resolve().parent.parent / "src" / "flagchern"
            / "data" / "expected_tables.json")


def chern_classes(flag, signs) -> list[Polynomial]:
    """c_1..c_N of the structure with these summand signs, as polynomials
    on the ambient coordinates: the elementary symmetric functions of the
    forms sign * sum(a_i x_i), one per complementary positive root a."""
    nvars = len(flag.rs.vectors[0])
    xs = [Polynomial.variable(nvars, i) for i in range(nvars)]
    forms = [s * sum(a * x for a, x in zip(flag.rs.vectors[r], xs))
             for s, summand in zip(signs, flag.summands())
             for r in summand.roots]
    e = [1] + [0] * len(forms)
    for f in forms:
        for j in range(len(forms), 0, -1):
            e[j] = e[j] + f * e[j - 1]
    return e[1:]


def rebuild_section(where: str, sec: dict) -> None:
    """Recompute a section through ``tables.reproduce_section``, the code of
    ``table reproduce``, and rewrite each column's annotations in row
    order."""
    try:
        res = reproduce_section(where, sec, "weyl")
    except AssertionError as exc:
        raise SystemExit(str(exc))
    for col, result in zip(sec["columns"], res["columns"]):
        col_where = f"{where} {col['label']}"
        notes = {a["row"]: a["note"] for a in col["annotations"]}
        col["annotations"] = []
        for row, printed, recomputed in zip(sec["rows"], col["printed"],
                                            result["recomputed"]):
            note = notes.pop(row, None)
            if int(printed) == recomputed and note is not None:
                raise SystemExit(f"{col_where} {row}: annotated but matches")
            if int(printed) != recomputed and note is None:
                raise SystemExit(f"{col_where} {row}: unexpected mismatch")
            if note is not None:
                col["annotations"].append({"row": row, "printed": printed,
                                           "recomputed": str(recomputed),
                                           "note": note})
        if notes:
            raise SystemExit(f"{col_where} {', '.join(notes)}: annotation "
                             f"on no row")


def rebuild(data: dict) -> dict:
    """A copy of ``data`` with every annotation recomputed and checked."""
    data = copy.deepcopy(data)
    for tid, spec in data["tables"].items():
        for sec in spec.get("sections") or [spec]:
            rebuild_section(f"{tid} {sec['manifold']}", sec)
        if "chern_classes" in spec:
            flag, cc = parse_manifold(spec["manifold"]), spec["chern_classes"]
            gb = buchberger(borel_generators(flag.rs.family, flag.rs.rank),
                            MonomialOrder("lex"))
            got = [str(normal_form(c, gb))
                   for c in chern_classes(flag, cc["signs"])]
            if got != cc["printed"]:
                raise SystemExit(f"{tid} {spec['manifold']}: Chern classes "
                                 f"{got}, recorded {cc['printed']}")
    return data


def main() -> None:
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else REGISTRY
    data = rebuild(json.loads(REGISTRY.read_text()))
    out.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}: {len(data['tables'])} tables")


if __name__ == "__main__":
    main()
