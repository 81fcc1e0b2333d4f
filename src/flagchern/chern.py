"""Chern classes, exact integration, Chern numbers, and the Todd genus.

Two independent integration oracles are provided, with the same batch
contract.  ``chern_numbers`` is the fixed-point (Atiyah-Bott /
Berline-Vergne localization) kernel: an integral over G/K is a sum over the
torus-fixed points, one per coset W_K w of the Weyl group, evaluated in exact
integers at generic points (with a second point as a guard) and divided once
by the positive-root product.  It is normalized so the all-plus structure's
top Chern class integrates to +chi.  It walks the fixed points in chunks of
``FIXED_POINT_CHUNK``, one list entry per point, so that each step of the sum
is one C-level pass over a chunk rather than a bytecode loop per point: a
chunk's root images are transposed into one column per root slot, the
elementary symmetric functions e_1..e_kmax are built column by column, and
the monomials are evaluated along the trie of their class degrees
(``class_degree_trie``), smallest degree first, each node its parent times
one e_k, keeping only the current path.  ``chern_numbers_schubert`` is the
second oracle: it multiplies in the Schubert basis of H*(G/B) by Chevalley's
formula over the Bruhat covers, reads off the coefficient of the point class
sigma_{w0}, and calibrates it against the positive-root product.  It uses no
fixed points, no rational functions and no Groebner basis.  The two oracles
share only the monomial bookkeeping, the class-degree trie, which the
Schubert oracle walks largest degree first.

The universal Todd polynomials are Hirzebruch's multiplicative sequence for
x / (1 - e^{-x}), built one weighted degree at a time from td = exp(L).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul
from typing import Iterable, Mapping, Sequence

from .flagmodel import FlagManifold, InvariantACS
from .polyring import Polynomial, elementary_symmetric_values
from .rootsys import (BruhatCovers, bruhat_covers, coroot_pairings,
                      weyl_order)

# -- c-monomials ------------------------------------------------------------
# A Chern monomial over c_1..c_N is a tuple of N exponents; its weighted
# degree is sum((k+1) * exps[k]).


def weighted_degree(exps: Sequence[int]) -> int:
    return sum((k + 1) * e for k, e in enumerate(exps))


def format_cmonomial(exps: Sequence[int]) -> str:
    parts = []
    for k, e in enumerate(exps):
        if e == 1:
            parts.append(f"c{k + 1}")
        elif e > 1:
            parts.append(f"c{k + 1}^{e}")
    return "".join(parts) if parts else "1"


def parse_cmonomial(text: str, n: int) -> tuple[int, ...]:
    """Parse strings like ``c1^14c2`` into an exponent tuple over c_1..c_n."""
    import re

    exps = [0] * n
    pos = 0
    for m in re.finditer(r"c(\d+)(?:\^(\d+))?", text.replace("*", "").replace(" ", "")):
        if m.start() != pos:
            raise ValueError(f"cannot parse Chern monomial {text!r}")
        pos = m.end()
        k = int(m.group(1))
        e = int(m.group(2)) if m.group(2) else 1
        if not 1 <= k <= n:
            raise ValueError(f"class index c{k} out of range 1..{n}")
        exps[k - 1] += e
    if pos != len(text.replace("*", "").replace(" ", "")):
        raise ValueError(f"cannot parse Chern monomial {text!r}")
    return tuple(exps)


def _top_monomial(flag: FlagManifold, c_monomial) -> tuple[int, ...]:
    """Exponent tuple of a c-monomial, which must have weighted degree N."""
    n = flag.complex_dim
    m = parse_cmonomial(c_monomial, n) if isinstance(c_monomial, str) else tuple(c_monomial)
    if weighted_degree(m) != n:
        raise ValueError(
            f"monomial {format_cmonomial(m)} has weighted degree "
            f"{weighted_degree(m)}, expected {n}")
    return m


def monomials_of_weighted_degree(n_classes: int, degree: int) -> list[tuple[int, ...]]:
    """All exponent tuples over c_1..c_n_classes of the given weighted degree."""
    out: list[tuple[int, ...]] = []

    def rec(k: int, remaining: int, acc: list[int]):
        if k == n_classes:
            if remaining == 0:
                out.append(tuple(acc))
            return
        weight = k + 1
        for e in range(remaining // weight, -1, -1):
            acc.append(e)
            rec(k + 1, remaining - weight * e, acc)
            acc.pop()

    rec(0, degree, [])
    return out


def class_degree_trie(monos: Iterable[tuple[int, ...]],
                      largest_first: bool) -> tuple[dict, dict]:
    """The trie of the monomials' class-degree sequences, and each monomial's
    sequence, in first-seen order of the monomials.

    c1^2c3 has the sequence (3, 1, 1) largest first, (1, 1, 3) smallest
    first.  A trie node maps a degree to its child node; a leaf is an empty
    dict.  Every sequence sums to the same weighted degree, so none is a
    proper prefix of another and each leaf is one sequence.  Smallest first
    gives fewer nodes on a full batch (83 against 138 for the 42 monomials
    of degree 10), which is what a walk that spends one step per node wants;
    largest first keeps the degrees below each node small, which is what a
    walk whose step grows with the child degrees wants.
    """
    trie: dict = {}
    sequences: dict[tuple[int, ...], tuple[int, ...]] = {}
    for m in monos:
        seq = tuple(sorted((k + 1 for k, e in enumerate(m) for _ in range(e)),
                           reverse=largest_first))
        sequences[m] = seq
        node = trie
        for k in seq:
            node = node.setdefault(k, {})
    return trie, sequences


# -- Chern classes ----------------------------------------------------------

def chern_classes(flag: FlagManifold, acs: InvariantACS) -> list[Polynomial]:
    """c_1..c_N as polynomials on the ambient coordinates (N = complex dim):
    the elementary symmetric functions of the linear forms eps_alpha * alpha
    over the complementary positive roots."""
    forms = [Polynomial.linear_form(flag.rs.vectors[r]) * s
             for s, summand in zip(acs.signs, flag.summands())
             for r in summand.roots]
    return elementary_symmetric_values(forms, len(forms))[1:]


# -- Chern numbers: Schubert-calculus oracle --------------------------------

def _chevalley(state: dict[int, int], pairing: Sequence[int],
               covers: BruhatCovers, out: dict[int, int]) -> dict[int, int]:
    """Add lambda . state into ``out`` by Chevalley's formula
    lambda . sigma_w = sum <lambda, beta^vee> sigma_{w s_beta}, summed over
    the covers w < w s_beta; ``pairing`` holds <lambda, beta^vee> per beta."""
    offsets, targets, roots = covers.offsets, covers.targets, covers.roots
    get = out.get
    for w, c in state.items():
        lo, hi = offsets[w], offsets[w + 1]
        for t, b in zip(targets[lo:hi], roots[lo:hi]):
            p = pairing[b]
            if p:
                out[t] = get(t, 0) + c * p
    return out


_SCHUBERT_TOP_CACHE: dict = {}


def _schubert_top(rs, covers: BruhatCovers) -> int:
    """The sigma_{w0}-coefficient of the positive-root product (cached per
    family and rank)."""
    key = (rs.family, rs.rank)
    if key not in _SCHUBERT_TOP_CACHE:
        state = {0: 1}
        for b in rs.positive:
            state = _chevalley(state, coroot_pairings(rs, rs.coords[b]),
                               covers, {})
        top = state.get(covers.top, 0)
        # the Euler class of G/B integrates to chi(G/B) = |W|
        if top != weyl_order(rs):
            raise AssertionError(f"positive-root product has sigma_w0 "
                                 f"coefficient {top}, expected |W|")
        _SCHUBERT_TOP_CACHE[key] = top
    return _SCHUBERT_TOP_CACHE[key]


def chern_numbers_schubert(flag: FlagManifold, acs: InvariantACS,
                           monomials: Iterable) -> dict[tuple[int, ...], int]:
    """Exact Chern numbers for a batch of c-monomials by Schubert calculus.

    Pulled back to G/B, the integral of p over G/K is chi times the
    sigma_{w0}-coefficient of p times the K-positive roots, over that of the
    positive-root product.  Products are taken in the Schubert basis of
    H*(G/B), one linear form at a time by Chevalley's formula over the Bruhat
    covers of ``rootsys.bruhat_covers``, in Python ints.  The K-positive roots
    go first, so the batch shares them; then each monomial's class factors,
    largest first, along a depth-first walk of the trie of factor sequences.
    c_1 is the sum of the signed forms f_i, and c_k comes from the recurrence
    S_j += f_i S_{j-1}; one pass of it gives every child of a trie node.
    Only the states on the current path and their pending siblings are kept.
    """
    monos = [_top_monomial(flag, m) for m in monomials]
    rs = flag.rs
    covers = bruhat_covers(rs)
    forms = [[s * p for p in coroot_pairings(rs, rs.coords[r])]
             for s, summand in zip(acs.signs, flag.summands())
             for r in summand.roots]
    c1 = [sum(col) for col in zip(*forms)]
    n = len(forms)

    def times_classes(state, ks):
        """{k: state * c_k} for the sorted class degrees ks, all from one
        pass of the recurrence up to c_max(ks)."""
        top_k = ks[-1]
        if top_k == 1:
            return {1: _chevalley(state, c1, covers, {})}
        partial = [state] + [{} for _ in range(top_k)]
        for i, f in enumerate(forms):
            # S_j only feeds S_k while n - 1 - i forms remain to raise it
            for j in range(min(i + 1, top_k), max(0, ks[0] - n + i), -1):
                if partial[j - 1]:
                    _chevalley(partial[j - 1], f, covers, partial[j])
        return {k: {w: c for w, c in partial[k].items() if c} for k in ks}

    # a node's children all come from one recurrence pass up to the largest
    trie, sequences = class_degree_trie(monos, largest_first=True)
    tops = {}

    def walk(state, node, seq):
        if not node:
            if any(c for w, c in state.items() if w != covers.top):
                raise AssertionError(
                    "top Schubert state is not supported on w0")
            tops[seq] = state.get(covers.top, 0)
            return
        ks = sorted(node)
        children = times_classes(state, ks)
        for k in ks:
            walk(children.pop(k), node[k], seq + (k,))

    state = {0: 1}
    for b in flag.k_positives:
        state = _chevalley(state, coroot_pairings(rs, rs.coords[b]),
                           covers, {})
    walk(state, trie, ())
    chi = flag.euler_characteristic()
    reference = _schubert_top(rs, covers)
    out: dict[tuple[int, ...], int] = {}
    for m in monos:
        val = Fraction(tops[sequences[m]] * chi, reference)
        if val.denominator != 1:
            raise ArithmeticError(
                f"Chern number {format_cmonomial(m)} is not an integer: {val}")
        out[m] = int(val)
    return out


# -- Chern numbers: fixed-point oracle ---------------------------------------

# Fixed points per chunk of ``chern_numbers``: long enough that each list
# operation's per-call cost is spread thin, short enough that a chunk's
# columns stay small.
FIXED_POINT_CHUNK = 256


def _generic_points(roots) -> list[tuple[int, ...]]:
    """Two integer points, as values on the simple roots, where no root
    vanishes."""
    dim = len(roots[0])
    points = []
    base = 3
    while len(points) < 2:
        pt = tuple(base**i for i in range(dim))
        if all(sum(a * b for a, b in zip(r, pt)) for r in roots):
            points.append(pt)
        base += 2
    return points


def chern_numbers(flag: FlagManifold, acs: InvariantACS,
                  monomials: Iterable) -> dict[tuple[int, ...], int]:
    """Exact Chern numbers for a batch of c-monomials by localization.

    The integral of an invariant class p is the sum over the fixed points
    W_K w of sign(w) p(w x) prod_{K+} beta(w x) / prod_{Phi+} alpha(x), where
    the Chern classes are the elementary symmetric functions of the signed
    complementary roots.  A point x is given by integer values on the simple
    roots, so every root value, read off the root's simple-root coordinates,
    and every term is an integer.

    Each step works on ``FIXED_POINT_CHUNK`` fixed points at once, one list
    entry per point (see the module docstring); e_j += w e_{j-1} runs over
    the columns of the chunk's root images, one column per root slot.
    """
    monos = [_top_monomial(flag, m) for m in monomials]
    # every e_k is at hand, so a node costs one step whatever its degree
    trie, sequences = class_degree_trie(monos, largest_first=False)
    degrees = {k for seq in sequences.values() for k in seq}
    kmax, kmin = max(degrees, default=0), min(degrees, default=0)
    fixed = flag.fixed_points()
    roots = flag.rs.coords
    n = flag.complex_dim
    signs = [acs.signs[i] for i, s in enumerate(flag.summands()) for _ in s.roots]
    vals = [[sum(a * b for a, b in zip(r, pt)) for r in roots]
            for pt in _generic_points(roots)]
    # the slots' signed root values, looked up by root position
    signed = [(val.__getitem__, [-v for v in val].__getitem__) for val in vals]
    totals = [dict.fromkeys(sequences.values(), 0) for _ in vals]

    def walk(node, row, seq, e, acc):
        for k, child in node.items():
            if child:
                walk(child, list(map(mul, row, e[k])), seq + (k,), e, acc)
            else:
                acc[seq + (k,)] += sum(map(mul, row, e[k]))

    for start in range(0, len(fixed), FIXED_POINT_CHUNK):
        point_signs, images = zip(*fixed[start:start + FIXED_POINT_CHUNK])
        cols = list(zip(*images))
        for (plus, minus), acc in zip(signed, totals):
            base = list(point_signs)
            for col in cols[n:]:
                base = list(map(mul, base, map(plus, col)))
            e = [None]  # e_0 = 1 is never multiplied out
            for i, (s, col) in enumerate(zip(signs, cols)):
                w = list(map(plus if s > 0 else minus, col))
                if i < kmax:
                    e.append(list(map(mul, w, e[i])) if i else w)
                # e_j only feeds e_kmin.. while n - 1 - i slots remain
                for j in range(min(i, kmax), max(1, kmin - n + i), -1):
                    e[j] = list(map(add, e[j], map(mul, w, e[j - 1])))
                if 0 < i and kmin - n + i < 1 <= kmax:
                    e[1] = list(map(add, e[1], w))
            walk(trie, base, (), e, acc)
    denominators = [math.prod(val[i] for i in flag.rs.positive) for val in vals]
    out: dict[tuple[int, ...], int] = {}
    for m, seq in sequences.items():
        first, second = (Fraction(acc[seq], d)
                         for acc, d in zip(totals, denominators))
        if first != second:
            raise ArithmeticError("fixed-point sum disagrees between sample points")
        if first.denominator != 1:
            raise ArithmeticError(
                f"Chern number {format_cmonomial(m)} is not an integer: {first}")
        out[m] = int(first)
    return out


ORACLES = ("weyl", "schubert", "both", "groebner")


def chern_numbers_by(flag: FlagManifold, acs: InvariantACS, monos: list,
                     oracle: str) -> dict[tuple[int, ...], int]:
    """Chern numbers by ``chern_numbers`` (weyl), ``chern_numbers_schubert``
    (schubert, or its deprecated alias groebner) or both, which must agree."""
    if oracle not in ORACLES:
        raise ValueError(f"unknown oracle {oracle!r}")
    if oracle in ("schubert", "groebner"):
        return chern_numbers_schubert(flag, acs, monos)
    weyl = chern_numbers(flag, acs, monos)
    if oracle == "both":
        schubert = chern_numbers_schubert(flag, acs, monos)
        if weyl != schubert:
            raise ArithmeticError(
                f"oracle disagreement on {flag.name()} {acs.label()}: "
                f"fixed-point sum {weyl} vs Schubert {schubert}")
    return weyl


# -- Todd polynomials and the Todd genus ------------------------------------

def _todd_series(order: int) -> list[Fraction]:
    """Coefficients of x/(1 - e^{-x}) up to x^order."""
    # (1 - e^{-x})/x = sum_{j>=0} (-1)^j x^j / (j+1)!
    s = [Fraction((-1) ** j, math.factorial(j + 1)) for j in range(order + 1)]
    inv = [Fraction(1)] + [Fraction(0)] * order
    for k in range(1, order + 1):
        inv[k] = -sum(s[j] * inv[k - j] for j in range(1, k + 1))
    return inv


def _series_log(q: list[Fraction]) -> list[Fraction]:
    """log of a power series with constant term 1, same truncation order."""
    order = len(q) - 1
    out = [Fraction(0)] * (order + 1)
    # l' = q'/q  =>  k*l_k = k*q_k - sum_{j=1}^{k-1} j*l_j*q_{k-j}
    for k in range(1, order + 1):
        acc = k * q[k]
        for j in range(1, k):
            acc -= j * out[j] * q[k - j]
        out[k] = acc / k
    return out


def _power_sums_in_chern(n: int) -> list[Polynomial]:
    """p_1..p_n as polynomials in c_1..c_n (Newton's identities)."""
    c = [None] + [Polynomial.variable(n, k) for k in range(n)]
    p: list[Polynomial] = [Polynomial.constant(n, 0)]
    for k in range(1, n + 1):
        acc = Polynomial.zero(n)
        for i in range(1, k):
            acc = acc + (-1) ** (i - 1) * c[i] * p[k - i]
        acc = acc + (-1) ** (k - 1) * k * c[k]
        p.append(acc)
    return p[1:]


@dataclass(frozen=True)
class ToddExpansion:
    degree: int
    coefficients: Mapping[tuple[int, ...], Fraction]

    def common_denominator(self) -> int:
        d = 1
        for c in self.coefficients.values():
            d = d * c.denominator // math.gcd(d, c.denominator)
        return d


_TODD_CACHE: dict[int, ToddExpansion] = {}
# largest degree of ``todd_polynomial``: it has one term per partition of the
# degree, and builds them in 0.6 s at degree 20, 2.3 s at 24 (1575 terms) and
# 3.4 s at 25, while `chern --manifold "F(12;6,6)" --todd` (degree 36) runs
# for minutes (2 vCPUs, Python 3.11.7)
MAX_TODD_DEGREE = 24


def todd_polynomial(degree: int) -> ToddExpansion:
    """The universal Todd polynomial of the given weighted degree in c_1..c_degree.

    td = exp(L) with L = sum_k L_k, L_k = l_k p_k, where l_k are the
    coefficients of log(x / (1 - e^{-x})) and p_k the power sums in the
    Chern classes.  The graded pieces of td follow from td' = L' td:
    T_0 = 1 and m T_m = sum_{k=1}^m k L_k T_{m-k}, each product already of
    weighted degree m.  A degree outside 1..``MAX_TODD_DEGREE`` is refused
    (ValueError) before anything is built.
    """
    if not 1 <= degree <= MAX_TODD_DEGREE:
        raise ValueError(f"the Todd polynomial of degree {degree} is not "
                         f"built; the degree must be in 1..{MAX_TODD_DEGREE}")
    if degree in _TODD_CACHE:
        return _TODD_CACHE[degree]
    n = degree
    series = _series_log(_todd_series(n))  # log of x/(1-e^{-x})
    psums = _power_sums_in_chern(n)
    logs = [series[k] * psums[k - 1] for k in range(1, n + 1)]
    pieces = [Polynomial.one(n)]
    for m in range(1, n + 1):
        acc = Polynomial.zero(n)
        for k in range(1, m + 1):
            if series[k]:
                acc = acc + logs[k - 1] * pieces[m - k] * k
        pieces.append(acc * Fraction(1, m))
    exp = ToddExpansion(degree, dict(pieces[n].terms))
    _TODD_CACHE[degree] = exp
    return exp


def orientation_sign(flag: FlagManifold, acs: InvariantACS) -> int:
    """+1 if the structure's orientation agrees with the all-plus one.

    The structure orients each summand by its sign, so the comparison is the
    product of the signs raised to the summand complex dimensions (only odd
    complex dimension can matter, and only when N itself is odd).
    """
    o = 1
    for i, s in enumerate(flag.summands()):
        if acs.signs[i] == -1 and s.dim_complex % 2 == 1:
            o = -o
    return o


def todd_genus(flag: FlagManifold, acs: InvariantACS,
               numbers: Mapping[tuple[int, ...], int]) -> Fraction:
    """Integral of the top Todd polynomial of the tangent bundle.

    Evaluated against the fundamental class oriented by the structure itself
    (not the fixed all-plus orientation used by ``chern_numbers``), so every
    integrable structure has genus exactly 1.  ``numbers`` holds the Chern
    numbers, in that all-plus orientation, of at least the Todd polynomial's
    monomials, from either oracle.
    """
    td = todd_polynomial(flag.complex_dim)
    total = sum((c * numbers[m] for m, c in td.coefficients.items()), Fraction(0))
    return orientation_sign(flag, acs) * total
