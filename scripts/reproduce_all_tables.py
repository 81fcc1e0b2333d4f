#!/usr/bin/env python3
"""Reproduce every reference table and print a pass/fail summary.

Exit code 0 when every table reproduces cleanly (all differing cells are
annotated known discrepancies), 2 otherwise.
"""

import argparse
import sys

from flagchern.tables import load_registry, reproduce, to_markdown


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--oracle",
                    choices=["weyl", "schubert", "both", "groebner"],
                    default="weyl",
                    help="groebner is a deprecated alias of schubert")
    ap.add_argument("--slow", action="store_true",
                    help="include the F(8) sections of tab2")
    ap.add_argument("--full", action="store_true",
                    help="print the full markdown diff for each table")
    args = ap.parse_args()

    failures = []
    for tid in sorted(load_registry()["tables"]):
        results = reproduce(tid, oracle=args.oracle, slow=args.slow)
        for res in results:
            status = "ok" if res.ok else "UNEXPLAINED DIFFS"
            print(f"{res.table_id:10s} {status:18s} "
                  f"annotated cells: {res.n_annotated}")
            if not res.ok:
                failures.append(res.table_id)
            if args.full or not res.ok:
                print(to_markdown([res]))
    print(f"\n{len(failures)} table(s) with unexplained differences")
    return 2 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
