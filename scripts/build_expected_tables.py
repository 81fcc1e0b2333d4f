#!/usr/bin/env python3
"""Rebuild the packaged registry src/flagchern/data/expected_tables.json from
itself: it is the only copy of the printed values, sign vectors, global signs
and notes.  Every column, the slow F(8) sections included, is recomputed with
the fixed-point oracle, and each annotation keeps its note while its printed
and recomputed values are rewritten.  The rebuild stops, naming the table,
manifold, column and row, on a difference with no annotation, an annotation
on a matching cell, or a column that ``tables.check_column`` refuses (a sign
vector that is not one sign per summand, or a printed list that is not one
value per row) or whose rows ``tables.row_monomials`` refuses (a row
that is not a Chern monomial of weighted degree N).
It also rechecks the recorded Chern classes against their normal forms in
the Borel quotient.

Usage: PYTHONPATH=src python3 scripts/build_expected_tables.py [output.json]
"""

import copy
import json
import sys
from pathlib import Path

from flagchern.chern import chern_classes, chern_numbers
from flagchern.flagmodel import InvariantACS, parse_manifold
from flagchern.groebner import borel_groebner, normal_form
from flagchern.tables import check_column, row_monomials

REGISTRY = (Path(__file__).resolve().parent.parent / "src" / "flagchern"
            / "data" / "expected_tables.json")


def rebuild_column(where: str, flag, rows: list[str], col: dict) -> None:
    """Recompute one column and rewrite its annotations in row order."""
    where = f"{where} {col['label']}"
    try:
        check_column(where, flag, rows, col)
        monos = row_monomials(where, flag, rows)
        values = chern_numbers(flag, InvariantACS(tuple(col["signs"])), monos)
    except AssertionError as exc:
        raise SystemExit(str(exc))
    notes = {a["row"]: a["note"] for a in col["annotations"]}
    col["annotations"] = []
    for row, m, printed in zip(rows, monos, col["printed"]):
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
            flag = parse_manifold(sec["manifold"])
            for col in sec["columns"]:
                rebuild_column(f"{tid} {sec['manifold']}", flag, sec["rows"],
                               col)
        if "chern_classes" in spec:
            flag, cc = parse_manifold(spec["manifold"]), spec["chern_classes"]
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
