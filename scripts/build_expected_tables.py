#!/usr/bin/env python3
"""Rebuild the packaged registry src/flagchern/data/expected_tables.json from
itself: it is the only copy of the printed values, sign vectors, global signs
and notes.  Every column, the slow F(8) sections included, is recomputed with
the fixed-point oracle, and each annotation keeps its note while its printed
and recomputed values are rewritten.  The rebuild stops, naming the table,
manifold, column and row, on a difference with no annotation, an annotation
on a matching cell, a row that is not a Chern monomial of weighted degree N,
or a sign vector whose length is not the summand count.  It also rechecks the
recorded Chern classes against their normal forms in the Borel quotient.

Usage: PYTHONPATH=src python3 scripts/build_expected_tables.py [output.json]
"""

import copy
import functools
import json
import sys
from pathlib import Path

from flagchern.chern import chern_classes, chern_numbers, parse_cmonomial
from flagchern.flagmodel import InvariantACS, parse_manifold
from flagchern.groebner import borel_groebner, normal_form

REGISTRY = (Path(__file__).resolve().parent.parent / "src" / "flagchern"
            / "data" / "expected_tables.json")

flag_of = functools.cache(parse_manifold)


def rebuild_column(where: str, flag, rows: list[str], col: dict) -> None:
    """Recompute one column and rewrite its annotations in row order."""
    where = f"{where} {col['label']}"
    n_summands = len(flag.summands())
    if len(col["signs"]) != n_summands:
        raise SystemExit(f"{where}: {len(col['signs'])} signs for "
                         f"{n_summands} summands")
    if len(col["printed"]) != len(rows):
        raise SystemExit(f"{where}: {len(col['printed'])} printed values "
                         f"for {len(rows)} rows")
    try:
        values = chern_numbers(flag, InvariantACS(tuple(col["signs"])), rows)
    except ValueError as exc:  # a row that is not a monomial of degree N
        raise SystemExit(f"{where}: {exc}")
    notes = {a["row"]: a["note"] for a in col["annotations"]}
    col["annotations"] = []
    for row, printed in zip(rows, col["printed"]):
        m = parse_cmonomial(row, flag.complex_dim)
        recomputed = col["global_sign"] * values[m]
        note = notes.pop(row, None)
        if int(printed) == recomputed and note is not None:
            raise SystemExit(f"{where} {row}: annotated but matches")
        if int(printed) != recomputed and note is None:
            raise SystemExit(f"{where} {row}: unexpected mismatch")
        if note is not None:
            col["annotations"].append({"row": row, "printed": printed,
                                       "recomputed": str(recomputed),
                                       "note": note})
    if notes:
        raise SystemExit(f"{where} {', '.join(notes)}: annotation on no row")


def rebuild(data: dict) -> dict:
    """A copy of ``data`` with every annotation recomputed and checked."""
    data = copy.deepcopy(data)
    for tid, spec in data["tables"].items():
        for sec in spec.get("sections") or [spec]:
            flag = flag_of(sec["manifold"])
            for col in sec["columns"]:
                rebuild_column(f"{tid} {sec['manifold']}", flag, sec["rows"],
                               col)
        if "chern_classes" in spec:
            flag, cc = flag_of(spec["manifold"]), spec["chern_classes"]
            gb = borel_groebner(flag.rs.family, flag.rs.rank)
            got = [str(normal_form(c, gb)) for c in
                   chern_classes(flag, InvariantACS(tuple(cc["signs"])))]
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
