#!/usr/bin/env python3
"""Print the universal Todd polynomials with denominators cleared, i.e. the
integer-coefficient identities D * td_n = sum of c-monomials that the
Riemann-Roch theorem turns into constraints among Chern numbers."""

import argparse

from flagchern.chern import (MAX_TODD_DEGREE, format_cmonomial,
                             todd_polynomial, weighted_degree)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-degree", type=int, default=10,
                    help=f"at most {MAX_TODD_DEGREE}")
    args = ap.parse_args()
    if args.max_degree > MAX_TODD_DEGREE:
        ap.error(f"--max-degree {args.max_degree} is above the Todd-polynomial "
                 f"degree bound {MAX_TODD_DEGREE}")

    for n in range(1, args.max_degree + 1):
        td = todd_polynomial(n)
        d = td.denominator
        parts = []
        for exps, k in sorted(td.numerators.items()):
            assert weighted_degree(exps) == n
            sign = "-" if k < 0 else "+"
            mag = abs(k)
            head = "" if mag == 1 else str(mag)
            parts.append(f" {sign} {head}{format_cmonomial(exps)}")
        rhs = "".join(parts).lstrip()
        if rhs.startswith("+ "):
            rhs = rhs[2:]
        print(f"{d} * td_{n} = {rhs}")


if __name__ == "__main__":
    main()
