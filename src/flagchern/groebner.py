"""Buchberger's algorithm, normal forms, and Borel presentations.

The reducer processes monomials through a lazy max-heap, which keeps
normal-form computation close to linear in the number of term operations.
Inside it, integral coefficients are Python ints and a coefficient becomes
a ``Fraction`` only when a quotient by a leading coefficient is not
integral; polynomials enter and leave with ``Fraction`` coefficients.
Buchberger scales each new basis element to its primitive integer form
(coefficients with gcd 1, positive leading coefficient).  A rescaled
divisor leaves every remainder, and so the reduced basis, unchanged (Cox,
Little and O'Shea, Ideals, Varieties, and Algorithms, ch. 2); on the Borel
ideals the primitive elements are monic, so the reductions stay in ints.
Bases are reduced (interreduced, monic) and sorted by leading monomial, so
the output of ``buchberger`` is canonical for a fixed monomial order.  A
Borel basis is ``buchberger(borel_generators(family, rank),
MonomialOrder("lex"))``.  The Chern numbers need none of this module: they
come from root data alone (see ``chern``).
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from operator import add, le, neg, sub
from typing import NamedTuple, Sequence

from .polyring import Polynomial

ORDER_KINDS = ("lex", "grlex", "grevlex")


class MonomialOrder:
    """A monomial order named by one of ``ORDER_KINDS``; a value that cannot
    be assigned to."""
    __slots__ = ("kind",)

    def __init__(self, kind: str):
        if kind not in ORDER_KINDS:
            raise ValueError(f"unknown monomial order {kind!r}")
        object.__setattr__(self, "kind", kind)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.kind == other.kind

    def __hash__(self) -> int:
        return hash((self.kind,))

    def key(self, exps: tuple[int, ...]) -> tuple[int, ...]:
        if self.kind == "lex":
            return exps
        if self.kind == "grlex":
            return (sum(exps), *exps)
        return (sum(exps), *map(neg, reversed(exps)))

    def negkey(self, exps: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(map(neg, self.key(exps)))

    def leading(self, p: Polynomial) -> tuple[tuple[int, ...], Fraction]:
        exps = max(p.terms, key=self.key)
        return exps, p.terms[exps]


class GroebnerBasis(NamedTuple):
    generators: tuple[Polynomial, ...]
    order: MonomialOrder

    def leading_terms(self) -> list[tuple[int, ...]]:
        return [self.order.leading(g)[0] for g in self.generators]


def _divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return all(map(le, a, b))


def _lcm(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(max, a, b))


def normal_form(p: Polynomial, gb: GroebnerBasis) -> Polynomial:
    """Remainder of p under multivariate division by the basis: each term is
    divided by the first generator whose leading term divides it."""
    order = gb.order
    table = []
    for g in gb.generators:
        if g.is_zero():
            continue
        lt, lc = order.leading(g)
        # integral coefficients as ints, the others as Fractions
        rest = [(e, c.numerator if c.denominator == 1 else c)
                for e, c in g.terms.items() if e != lt]
        table.append((lt, lc.numerator if lc.denominator == 1 else lc, rest))

    coeffs = {e: c.numerator if c.denominator == 1 else c
              for e, c in p.terms.items()}
    heap = [(order.negkey(e), e) for e in coeffs]
    heapq.heapify(heap)
    remainder: dict[tuple[int, ...], int | Fraction] = {}
    while heap:
        _, e = heapq.heappop(heap)
        c = coeffs.pop(e, None)
        if not c:
            continue
        if type(c) is not int and c.denominator == 1:
            c = c.numerator
        for lt, lc, rest in table:
            if all(map(le, lt, e)):
                shift = tuple(map(sub, e, lt))
                if lc == 1:
                    factor = c
                elif type(c) is int and type(lc) is int and not c % lc:
                    factor = c // lc
                else:
                    factor = Fraction(c) / lc
                for ge, gc in rest:
                    ne = tuple(map(add, shift, ge))
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


def _primitive(p: Polynomial, order: MonomialOrder) -> Polynomial:
    """The integer multiple of p whose coefficients have gcd 1 and whose
    leading coefficient is positive."""
    coeffs = p.terms.values()
    scale = Fraction(math.lcm(*(c.denominator for c in coeffs)),
                     math.gcd(*(c.numerator for c in coeffs)))
    if order.leading(p)[1] < 0:
        scale = -scale
    return p if scale == 1 else p * scale


def buchberger(generators: Sequence[Polynomial],
               order: MonomialOrder) -> GroebnerBasis:
    """Reduced Groebner basis via Buchberger with the normal selection strategy
    and both classical pair-skipping criteria."""
    basis = [g for g in generators if not g.is_zero()]
    if not basis:
        raise ValueError("need at least one nonzero generator")

    lts = [order.leading(g)[0] for g in basis]
    pairs = {(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))}
    # each pair's selection key, the order key of its lcm, computed once
    pair_key = {(i, j): order.key(_lcm(lts[i], lts[j])) for i, j in pairs}
    done: set[tuple[int, int]] = set()

    while pairs:
        i, j = min(pairs, key=pair_key.__getitem__)
        pairs.remove((i, j))
        done.add((i, j))
        lcm = _lcm(lts[i], lts[j])
        # product (coprime leading monomials) criterion
        if lcm == tuple(map(add, lts[i], lts[j])):
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
            # a rescaled basis element divides to the same remainders, and
            # the primitive one keeps later reductions in integers
            basis.append(_primitive(h, order))
            lts.append(order.leading(h)[0])
            new = len(basis) - 1
            for k in range(new):
                pairs.add((k, new))
                pair_key[k, new] = order.key(_lcm(lts[k], lts[new]))

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


def _slices(lts: list[tuple[int, ...]]):
    """The runs a <= x_0 < b on which the slice x_0 = a of the staircase of
    the exponent vectors ``lts`` stays the same, each with the vectors that
    cut that slice: those with first exponent <= a, less that exponent.  The
    last run has b = None."""
    starts = sorted({0, *(e[0] for e in lts)})
    for a, b in zip(starts, starts[1:] + [None]):
        yield a, b, [e[1:] for e in lts if e[0] <= a]


def _staircase(lts: list[tuple[int, ...]], nvars: int
               ) -> tuple[int, int, list[tuple[int, ...]]]:
    """The number of monomials under the staircase of ``lts``, their largest
    total degree (-1 when there are none), and the monomials of that degree
    in increasing lex order, walked run by run without listing the rest; a
    quotient that is not finite-dimensional raises ValueError."""
    if any(not any(e) for e in lts):  # the ideal holds 1
        return 0, -1, []
    if nvars == 0:
        return 1, 0, [()]
    count, top, tops = 0, -1, []
    for a, b, cut in _slices(lts):
        width, deg, tails = _staircase(cut, nvars - 1)
        if b is None:
            if width:
                raise ValueError("quotient is not finite-dimensional")
        elif width:
            count += (b - a) * width
            # the slices of a run are equal: its top degree is at x_0 = b - 1
            if b - 1 + deg > top:
                top, tops = b - 1 + deg, []
            if b - 1 + deg == top:
                tops += [(b - 1, *t) for t in tails]
    return count, top, tops


def quotient_dimension(gb: GroebnerBasis) -> int:
    """Vector-space dimension of the quotient ring: the number of monomials
    under the staircase, counted run by run without listing them; a
    quotient that is not finite-dimensional raises ValueError."""
    return _staircase(gb.leading_terms(), gb.generators[0].nvars)[0]


def top_staircase_monomial(gb: GroebnerBasis) -> tuple[int, ...]:
    """The unique monomial of largest total degree under the staircase; a
    top degree with more than one monomial, or none, raises ValueError."""
    _, top, tops = _staircase(gb.leading_terms(), gb.generators[0].nvars)
    if len(tops) != 1:
        raise ValueError(f"top staircase degree {top} is not "
                         f"one-dimensional: {tops}")
    return tops[0]


# -- Borel presentations ------------------------------------------------

def _power_sum(nvars: int, k: int) -> Polynomial:
    terms = {}
    for i in range(nvars):
        e = [0] * nvars
        e[i] = k
        terms[tuple(e)] = Fraction(1)
    return Polynomial(nvars, terms)


def _product_of_vars(nvars: int) -> Polynomial:
    return Polynomial(nvars, {(1,) * nvars: Fraction(1)})


# least and largest rank of each family's Borel presentation.  B1 = C1 is
# SO(3) and D2 is SO(4); G2 has rank 2 only.  Buchberger's time grows with
# |W|: `groebner --ideal borel:A:7` takes 0.35 s, B:6, C:6 and D:6 take
# 0.15 s, and `cohomology verify --case a-full:7` takes 0.4 s; above the
# bounds, Buchberger and the quotient dimension take 1.2-1.3 s on A8 and
# 0.1-0.2 s on B7 and D7 (child processes, 2 vCPUs, Python 3.11.7)
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

