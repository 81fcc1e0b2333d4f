"""Reference figures computed in closed form, without the flagchern package.

Every function here works from a manifold name, a sign vector or a
cohomology case tag, with the classical group-order formulas:

* |W| is (n+1)! for A_n, 2^n n! for B_n and C_n, 2^(n-1) n! for D_n, 12 for G2;
* the isotropy group of F(n; n1,...,nk) and of FB/FC/FD(n; n1,...,nk) is
  U(n1) x ... x U(nk), so |W_K| = n1! ... nk!; G2-long and G2-short keep
  one simple root, so |W_K| = 2;
* chi = |W| / |W_K|, and the complex dimension is |Phi+| - |Phi_K+|.
"""

from __future__ import annotations

import re
from math import factorial, prod

ALIASES = {
    "SO(5)/T": "FB(2;1,1)",
    "SP(2)/T": "FC(2;1,1)",
    "SP(3)/T": "FC(3;1,1,1)",
    "SO(6)/T": "FD(3;1,1,1)",
    "SO(7)/U(3)": "FB(3;3)",
    "SO(8)/U(4)": "FD(4;4)",
}

_NAME = re.compile(r"(F|FB|FC|FD)\((\d+)(?:;([\d,]+))?\)")


def parse_name(name: str) -> tuple[str, int, tuple[int, ...]]:
    """(family, rank, isotropy block sizes) of a manifold name.

    G2 names give blocks () for G2/T and (2,) for the two partial flags.
    """
    upper = name.strip().upper()
    upper = ALIASES.get(upper, upper)
    if upper == "G2/T":
        return "G2", 2, ()
    if upper in ("G2-LONG", "G2-SHORT"):
        return "G2", 2, (2,)
    m = _NAME.fullmatch(upper)
    if not m:
        raise ValueError(f"cannot parse manifold name {name!r}")
    tag, n_text, blocks_text = m.groups()
    n = int(n_text)
    blocks = (tuple(int(b) for b in blocks_text.split(","))
              if blocks_text else (1,) * n)
    if sum(blocks) != n:
        raise ValueError(f"blocks of {name!r} do not sum to {n}")
    family = {"F": "A", "FB": "B", "FC": "C", "FD": "D"}[tag]
    return family, (n - 1 if family == "A" else n), blocks


def weyl_order(family: str, rank: int) -> int:
    if family == "A":
        return factorial(rank + 1)
    if family in ("B", "C"):
        return 2 ** rank * factorial(rank)
    if family == "D":
        return 2 ** (rank - 1) * factorial(rank)
    if family == "G2":
        return 12
    raise ValueError(f"unknown family {family!r}")


def positive_root_count(family: str, rank: int) -> int:
    if family == "A":
        return rank * (rank + 1) // 2
    if family in ("B", "C"):
        return rank * rank
    if family == "D":
        return rank * (rank - 1)
    if family == "G2":
        return 6
    raise ValueError(f"unknown family {family!r}")


def isotropy_weyl_order(name: str) -> int:
    family, _, blocks = parse_name(name)
    if family == "G2":
        return 2 if blocks else 1
    return prod(factorial(b) for b in blocks)


def euler_characteristic(name: str) -> int:
    """chi = |W| / |W_K|; e.g. chi(F(7;1,2,4)) = 7!/(1! 2! 4!) = 105."""
    family, rank, _ = parse_name(name)
    order, order_k = weyl_order(family, rank), isotropy_weyl_order(name)
    if order % order_k:
        raise ArithmeticError(f"|W_K| does not divide |W| for {name}")
    return order // order_k


def complex_dimension(name: str) -> int:
    family, rank, blocks = parse_name(name)
    k_positive = (len(blocks) if family == "G2"
                  else sum(b * (b - 1) // 2 for b in blocks))
    return positive_root_count(family, rank) - k_positive


def is_full_flag(name: str) -> bool:
    """True for G/T: every isotropy block has size 1."""
    family, _, blocks = parse_name(name)
    return not blocks if family == "G2" else all(b == 1 for b in blocks)


def integrable_count_full_flag(name: str) -> int:
    """Integrable structures on G/T up to conjugation: the |W| Weyl chambers
    give the complex structures, conjugation pairs them, so |W|/2."""
    if not is_full_flag(name):
        raise ValueError(f"{name} is not a full flag manifold")
    family, rank, _ = parse_name(name)
    return weyl_order(family, rank) // 2


def census_size(n_summands: int) -> int:
    """Invariant almost complex structures up to conjugation: 2^(s-1)."""
    return 2 ** (n_summands - 1)


def orientation_sign(signs, dims) -> int:
    """Orientation of a structure against the all-plus one: each summand with
    sign -1 reverses orientation iff its complex dimension is odd."""
    if len(signs) != len(dims):
        raise ValueError("signs and summand dimensions differ in length")
    odd = sum(1 for s, d in zip(signs, dims) if s < 0 and d % 2)
    return -1 if odd % 2 else 1


def quotient_dimension(case: str) -> int:
    """Dimension of the cohomology quotient of a presentation case."""
    kind, _, arg = case.partition(":")
    if kind == "a-full":
        return factorial(int(arg) + 1)
    if kind in ("b-full", "c-full"):
        n = int(arg)
        return 2 ** n * factorial(n)
    if kind == "so6-groebner":
        return 24
    if kind == "proj-tangent":
        n = int(arg)
        return (n + 2) * (n + 1)
    raise ValueError(f"unknown presentation case {case!r}")


def cmonomials(n: int) -> list[str]:
    """Every Chern monomial of weighted degree n, in the program's notation
    (c1^2c2 = c_1^2 c_2): one per partition of n."""
    out: list[str] = []

    def rec(k: int, remaining: int, acc: list[int]) -> None:
        if k == 0:
            if remaining == 0:
                out.append("".join(
                    f"c{i + 1}" + (f"^{e}" if e > 1 else "")
                    for i, e in enumerate(acc) if e))
            return
        for e in range(remaining // k, -1, -1):
            acc[k - 1] = e
            rec(k - 1, remaining - k * e, acc)
        acc[k - 1] = 0

    rec(n, n, [0] * n)
    return out
