"""Buchberger's algorithm, normal forms, and Borel presentations.

The reducer processes monomials through a lazy max-heap, which keeps
normal-form computation close to linear in the number of term operations.
Bases are reduced (interreduced, monic) and sorted by leading monomial, so
the output of ``buchberger`` is canonical for a fixed monomial order.
"""

from __future__ import annotations

import functools
import heapq
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .polyring import Polynomial

ORDER_KINDS = ("lex", "grlex", "grevlex")


@dataclass(frozen=True)
class MonomialOrder:
    kind: str

    def __post_init__(self):
        if self.kind not in ORDER_KINDS:
            raise ValueError(f"unknown monomial order {self.kind!r}")

    def key(self, exps: tuple[int, ...]) -> tuple[int, ...]:
        if self.kind == "lex":
            return exps
        if self.kind == "grlex":
            return (sum(exps),) + exps
        return (sum(exps),) + tuple(-e for e in reversed(exps))

    def negkey(self, exps: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(-v for v in self.key(exps))

    def leading(self, p: Polynomial) -> tuple[tuple[int, ...], Fraction]:
        exps = max(p.terms, key=self.key)
        return exps, p.terms[exps]


@dataclass(frozen=True)
class GroebnerBasis:
    generators: tuple[Polynomial, ...]
    order: MonomialOrder

    def leading_terms(self) -> list[tuple[int, ...]]:
        return [self.order.leading(g)[0] for g in self.generators]


def _divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _lcm(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(max(x, y) for x, y in zip(a, b))


def normal_form(p: Polynomial, gb: GroebnerBasis) -> Polynomial:
    """Remainder of p under multivariate division by the basis."""
    order = gb.order
    table = []
    for g in gb.generators:
        if g.is_zero():
            continue
        lt, lc = order.leading(g)
        rest = [(e, c) for e, c in g.terms.items() if e != lt]
        table.append((lt, lc, rest))

    coeffs = dict(p.terms)
    heap = [(order.negkey(e), e) for e in coeffs]
    heapq.heapify(heap)
    remainder: dict[tuple[int, ...], Fraction] = {}
    while heap:
        _, e = heapq.heappop(heap)
        c = coeffs.pop(e, None)
        if c is None or c == 0:
            continue
        for lt, lc, rest in table:
            if _divides(lt, e):
                shift = tuple(x - y for x, y in zip(e, lt))
                factor = c / lc
                for ge, gc in rest:
                    ne = tuple(x + y for x, y in zip(shift, ge))
                    old = coeffs.get(ne)
                    if old is None:
                        coeffs[ne] = -factor * gc
                        heapq.heappush(heap, (order.negkey(ne), ne))
                    else:
                        coeffs[ne] = old - factor * gc
                break
        else:
            remainder[e] = c
    return Polynomial(p.nvars, remainder)


def s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    lf, cf = order.leading(f)
    lg, cg = order.leading(g)
    lcm = _lcm(lf, lg)
    mf = Polynomial(f.nvars, {tuple(a - b for a, b in zip(lcm, lf)): 1 / cf})
    mg = Polynomial(g.nvars, {tuple(a - b for a, b in zip(lcm, lg)): 1 / cg})
    return mf * f - mg * g


def buchberger(generators: Sequence[Polynomial],
               order: MonomialOrder) -> GroebnerBasis:
    """Reduced Groebner basis via Buchberger with the normal selection strategy
    and both classical pair-skipping criteria."""
    basis = [g for g in generators if not g.is_zero()]
    if not basis:
        raise ValueError("need at least one nonzero generator")

    lts = [order.leading(g)[0] for g in basis]
    pairs = {(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))}
    done: set[tuple[int, int]] = set()

    while pairs:
        i, j = min(pairs, key=lambda ij: order.key(_lcm(lts[ij[0]], lts[ij[1]])))
        pairs.remove((i, j))
        done.add((i, j))
        lcm = _lcm(lts[i], lts[j])
        # product (coprime leading monomials) criterion
        if lcm == tuple(a + b for a, b in zip(lts[i], lts[j])):
            continue
        # chain criterion
        skip = False
        for k in range(len(basis)):
            if k in (i, j) or not _divides(lts[k], lcm):
                continue
            pik = (min(i, k), max(i, k))
            pjk = (min(j, k), max(j, k))
            if pik in done and pjk in done:
                skip = True
                break
        if skip:
            continue
        h = normal_form(s_polynomial(basis[i], basis[j], order),
                        GroebnerBasis(tuple(basis), order))
        if not h.is_zero():
            basis.append(h)
            lts.append(order.leading(h)[0])
            new = len(basis) - 1
            pairs.update((k, new) for k in range(new))

    # minimalize: drop generators whose leading term another kept one divides
    minimal: list[int] = []
    for i in sorted(range(len(basis)), key=lambda i: order.key(lts[i])):
        if not any(_divides(lts[j], lts[i]) for j in minimal):
            minimal.append(i)
    # interreduce and normalize to monic
    reduced: list[Polynomial] = []
    for i in minimal:
        others = GroebnerBasis(tuple(basis[j] for j in minimal if j != i),
                               order)
        r = normal_form(basis[i], others)
        _, lc = order.leading(r)
        reduced.append(r * (1 / lc))
    reduced.sort(key=lambda g: order.key(order.leading(g)[0]))
    return GroebnerBasis(tuple(reduced), order)


def staircase_monomials(gb: GroebnerBasis, nvars: int) -> list[tuple[int, ...]]:
    """All monomials outside the leading-term ideal (finite quotients only)."""
    lts = gb.leading_terms()
    caps = []
    for i in range(nvars):
        pure = [e[i] for e in lts
                if all(x == 0 for j, x in enumerate(e) if j != i)]
        if not pure:
            raise ValueError("quotient is not finite-dimensional")
        caps.append(min(pure))
    return [exps for exps in itertools.product(*(range(c) for c in caps))
            if not any(_divides(lt, exps) for lt in lts)]


def quotient_dimension(gb: GroebnerBasis, nvars: int) -> int:
    """Vector-space dimension of the quotient ring: monomials under the staircase."""
    return len(staircase_monomials(gb, nvars))


# -- Borel presentations ------------------------------------------------

def _power_sum(nvars: int, k: int) -> Polynomial:
    terms = {}
    for i in range(nvars):
        e = [0] * nvars
        e[i] = k
        terms[tuple(e)] = Fraction(1)
    return Polynomial(nvars, terms)


def _complete_homogeneous(nvars: int, k: int, first_var: int,
                          square: bool = False) -> Polynomial:
    """h_k in the variables x_{first_var}..x_{nvars-1} (0-indexed), or in
    their squares when ``square`` is set."""
    terms = {}
    varset = range(first_var, nvars)
    for combo in itertools.combinations_with_replacement(varset, k):
        e = [0] * nvars
        for i in combo:
            e[i] += 2 if square else 1
        terms[tuple(e)] = Fraction(1)
    return Polynomial(nvars, terms)


def _product_of_vars(nvars: int) -> Polynomial:
    return Polynomial(nvars, {(1,) * nvars: Fraction(1)})


# least and largest rank of each family's Borel presentation.  B1 = C1 is
# SO(3) and D2 is SO(4); G2 has rank 2 only.  Buchberger's time grows with
# |W|: `groebner --ideal borel:A:7` takes 1.6 s and A:8 11 s, B:6, C:6 and
# D:6 take 0.8 s and B:7 8.9 s, D:7 11 s; `cohomology verify --case
# a-full:7` takes 2.5 s (2 vCPUs, Python 3.11.7)
BOREL_RANKS = {"A": (1, 7), "B": (1, 6), "C": (1, 6), "D": (2, 6),
               "G2": (2, 2)}


def borel_generators(family: str, rank: int) -> list[Polynomial]:
    """Generators of the full-flag Borel ideal for the ambient family; an
    unknown family, or a rank outside ``BOREL_RANKS``, is refused
    (ValueError) before any polynomial is built."""
    family = family.upper()
    if family not in BOREL_RANKS:
        raise ValueError(f"no Borel presentation for family {family!r}")
    least, most = BOREL_RANKS[family]
    if not least <= rank <= most:
        raise ValueError(f"no Borel presentation for {family} of rank "
                         f"{rank}; the rank must be in {least}..{most}")
    if family == "A":
        n = rank + 1
        return [_power_sum(n, k) for k in range(1, n + 1)]
    if family in ("B", "C"):
        n = rank
        return [_power_sum(n, 2 * k) for k in range(1, n + 1)]
    if family == "D":
        n = rank
        return [_power_sum(n, 2 * k) for k in range(1, n)] + [_product_of_vars(n)]
    return [_power_sum(3, 1), _power_sum(3, 2), _power_sum(3, 6)]


@functools.cache
def borel_groebner(family: str, rank: int) -> GroebnerBasis:
    """Reduced lex Groebner basis of the full-flag Borel ideal (computed once
    per family and rank)."""
    return buchberger(borel_generators(family, rank), MonomialOrder("lex"))
