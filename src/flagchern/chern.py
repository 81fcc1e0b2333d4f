"""Exact integration, Chern numbers, and the Todd genus.

The Chern classes of a structure are never formed as polynomials.  Both
oracles take c_k as the k-th elementary symmetric function of the signed
complementary roots, the fixed-point kernel on integer root values and the
Schubert oracle on Schubert expansions, so both need only the root data.
Two independent integration oracles are provided, with the same batch
contract.  ``chern_numbers`` is the fixed-point (Atiyah-Bott /
Berline-Vergne localization) kernel: an integral over G/K is a sum over the
torus-fixed points, one per coset W_K w of the Weyl group, evaluated in exact
integers at the points (1, ..., 1) and (1, 2, ..., r) on the simple roots
(the second a guard on the first) and divided once by the positive-root
product.  It is normalized so the all-plus structure's top Chern class
integrates to +chi.  It walks the fixed points in chunks of
``FIXED_POINT_CHUNK``, one list entry per point, so that each step of the sum
is one C-level pass over a chunk rather than a bytecode loop per point: a
chunk's root images are transposed into one column per root slot, the
elementary symmetric functions e_1..e_kmax are built column by column, and
the monomials are evaluated along the trie of their class degrees
(``class_degree_trie``), smallest degree first, each node its parent times
one e_k, keeping only the current path.  ``chern_numbers_schubert`` is the
second oracle: it multiplies in the Schubert basis of H*(G/B) by Chevalley's
formula over the Bruhat covers, reads off the coefficient of the point class
sigma_{w0}, and calibrates it against the positive-root product.  It splits
each monomial's class degrees, largest first, into a head (the largest
class, times the K-positive roots) and a tail (the rest, from sigma_e), and
pairs the two halves by Poincare duality, sigma_u sigma_v = sigma_{w0}
exactly when v = w0 u, so no product climbs above its larger half.  It uses
no fixed points, no rational functions and no Groebner basis.  The two
oracles share only the monomial bookkeeping, the class-degree sequences of
``class_degree_trie``, which the Schubert oracle reads reversed, largest
degree first.

The universal Todd polynomials are Hirzebruch's multiplicative sequence for
x / (1 - e^{-x}), built one weighted degree at a time from td = exp(L), in
int numerators over one denominator per degree.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul
from typing import Iterable, Mapping, Sequence

from .flagmodel import FlagManifold, InvariantACS
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


_CLASS_POWER = re.compile(r"c(\d+)(?:\^(\d+))?")


def parse_cmonomial(text: str, n: int) -> tuple[int, ...]:
    """Parse strings like ``c1^14c2`` into an exponent tuple over c_1..c_n."""
    compact = text.replace("*", "").replace(" ", "")
    exps = [0] * n
    pos = 0
    for m in _CLASS_POWER.finditer(compact):
        if m.start() != pos:
            raise ValueError(f"cannot parse Chern monomial {text!r}")
        pos = m.end()
        k = int(m.group(1))
        e = int(m.group(2)) if m.group(2) else 1
        if not 1 <= k <= n:
            raise ValueError(f"class index c{k} out of range 1..{n}")
        exps[k - 1] += e
    if pos != len(compact):
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


def class_degree_trie(monos: Iterable[tuple[int, ...]]) -> tuple[dict, dict]:
    """The trie of the monomials' class-degree sequences, smallest degree
    first, and each monomial's sequence, in first-seen order of the
    monomials.

    c1^2c3 has the sequence (1, 1, 3).  A trie node maps a degree to its
    child node; a leaf is an empty dict.  Every sequence sums to the same
    weighted degree, so none is a proper prefix of another and each leaf is
    one sequence.  Smallest first gives fewer nodes on a full batch than
    largest first (83 against 138 for the 42 monomials of degree 10), which
    is what a walk that spends one step per node wants.
    """
    trie: dict = {}
    sequences: dict[tuple[int, ...], tuple[int, ...]] = {}
    for m in monos:
        seq = tuple(k + 1 for k, e in enumerate(m) for _ in range(e))
        sequences[m] = seq
        node = trie
        for k in seq:
            node = node.setdefault(k, {})
    return trie, sequences


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


def _root_product(rs, covers: BruhatCovers,
                  roots: Iterable[int]) -> dict[int, int]:
    """The Schubert expansion of the product of ``roots`` (positions in
    ``rs``), from sigma_e one root at a time by Chevalley's formula."""
    state = {0: 1}
    for b in roots:
        state = _chevalley(state, coroot_pairings(rs, rs.coords[b]),
                           covers, {})
    return state


@functools.cache
def _schubert_top(rs) -> int:
    """The sigma_{w0}-coefficient of the positive-root product (computed
    once per root system)."""
    covers = bruhat_covers(rs)
    top = _root_product(rs, covers, rs.positive).get(covers.top, 0)
    # the Euler class of G/B integrates to chi(G/B) = |W|
    if top != weyl_order(rs):
        raise AssertionError(f"positive-root product has sigma_w0 "
                             f"coefficient {top}, expected |W|")
    return top


def chern_numbers_schubert(flag: FlagManifold, acs: InvariantACS,
                           monomials: Iterable) -> dict[tuple[int, ...], int]:
    """Exact Chern numbers for a batch of c-monomials by Schubert calculus.

    Pulled back to G/B, the integral of p over G/K is chi times the
    sigma_{w0}-coefficient of p times the K-positive roots, over that of the
    positive-root product.  Products are taken in the Schubert basis of
    H*(G/B), one linear form at a time by Chevalley's formula over the Bruhat
    covers of ``rootsys.bruhat_covers``, in Python ints.  c_1 is the sum of
    the signed forms f_i, and c_k comes from the recurrence
    S_j += f_i S_{j-1}; one pass of it gives c_k for every k asked for.

    Each monomial's class degrees, largest first, are split into a head k1
    and a tail (k2, ...).  One pass of the recurrence from e_K, the product
    of the K-positive roots, gives the head e_K c_k1 for every distinct k1
    of the batch.  The tails c_k2 ... are built from sigma_e along the trie
    of tails, largest degree first, keeping only the states on the current
    path and their pending siblings.  A tail of degree d is paired with its
    head as soon as the walk reaches it, by Poincare duality: sigma_u sigma_v
    has sigma_{w0}-coefficient 1 if v = w0 u and 0 otherwise, and w0 u of
    length l(w0) - d sits at ``starts[l(w0) - d] + starts[d + 1] - 1 - u``
    (``rootsys._cover_table`` numbers each length by the name w^-1(2 rho),
    and the name of w0 u is minus that of u).  So no state ever climbs
    above the larger half of the product.
    """
    monos = [_top_monomial(flag, m) for m in monomials]
    rs = flag.rs
    covers = bruhat_covers(rs)
    starts = covers.starts
    top_length = len(starts) - 2
    k_length = len(flag.k_positives)
    if k_length + flag.complex_dim != top_length:
        raise AssertionError(
            f"{k_length} K-positive roots and complex dimension "
            f"{flag.complex_dim} do not add up to l(w0) = {top_length}")
    sizes = [b - a for a, b in zip(starts, starts[1:])]
    if sizes != sizes[::-1]:
        raise AssertionError(f"Bruhat level sizes {sizes} are not "
                             f"palindromic")
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

    def check_length(state, d):
        if state and not starts[d] <= min(state) <= max(state) < starts[d + 1]:
            raise AssertionError(
                f"Schubert state of degree {d} leaves its length range")

    # each monomial's class degrees, largest first
    sequences = {m: seq[::-1]
                 for m, seq in class_degree_trie(monos)[1].items()}
    # 0 marks the end of a tail, and maps to the head that completes it
    tails: dict = {}
    for seq in sequences.values():
        node = tails
        for k in seq[1:]:
            node = node.setdefault(k, {})
        node[0] = seq[0]
    state = _root_product(rs, covers, flag.k_positives)
    ks = sorted({seq[0] for seq in sequences.values()})
    heads = times_classes(state, ks) if ks else {}
    for k, head in heads.items():
        check_length(head, k_length + k)
    tops = {}

    def walk(state, node, tail, d):
        check_length(state, d)
        if 0 in node:
            head = heads[node[0]]
            mirror = starts[top_length - d] + starts[d + 1] - 1
            tops[(node[0],) + tail] = sum(
                c * head.get(mirror - v, 0) for v, c in state.items())
        ks = sorted(k for k in node if k)
        if ks:
            children = times_classes(state, ks)
            for k in ks:
                walk(children.pop(k), node[k], tail + (k,), d + k)

    walk({0: 1}, tails, (), 0)
    chi = flag.euler_characteristic()
    reference = _schubert_top(rs)
    out: dict[tuple[int, ...], int] = {}
    for m in monos:
        total = tops[sequences[m]] * chi
        value, rest = divmod(total, reference)
        if rest:
            raise ArithmeticError(
                f"Chern number {format_cmonomial(m)} is not an integer: "
                f"{Fraction(total, reference)}")
        out[m] = value
    return out


# -- Chern numbers: fixed-point oracle ---------------------------------------

# Fixed points per chunk of ``chern_numbers``: long enough that each list
# operation's per-call cost is spread thin, short enough that a chunk's
# columns stay small.
FIXED_POINT_CHUNK = 256


def _generic_points(roots) -> list[tuple[int, ...]]:
    """Two integer points, as values on the simple roots, where no root
    vanishes: (1, ..., 1), where a root's value is its height, and
    (1, 2, ..., r).  A positive root has simple-root coordinates >= 0, not
    all 0, so it is positive at both, and the values stay small.

    Each fixed-point term, and so the sum over any set of fixed points, is
    homogeneous of degree 0 in the point, so two proportional points give
    the same sum and guard nothing; these two are not proportional for
    r >= 2.  At r = 1 every point is a multiple of every other, and the
    second is (2,).
    """
    rank = len(roots[0])
    return [(1,) * rank, tuple(range(1, rank + 1)) if rank > 1 else (2,)]


def chern_numbers(flag: FlagManifold, acs: InvariantACS,
                  monomials: Iterable) -> dict[tuple[int, ...], int]:
    """Exact Chern numbers for a batch of c-monomials by localization.

    The integral of an invariant class p is the sum over the fixed points
    W_K w of sign(w) p(w x) prod_{K+} beta(w x) / prod_{Phi+} alpha(x), where
    the Chern classes are the elementary symmetric functions of the signed
    complementary roots.  A point x is given by integer values on the simple
    roots, so every root value, read off the root's simple-root coordinates,
    and every term is an integer.  The sum is taken at both points of
    ``_generic_points``; the two quotients must agree, and be integers.

    Each step works on ``FIXED_POINT_CHUNK`` fixed points at once, one list
    entry per point (see the module docstring); e_j += w e_{j-1} runs over
    the columns of the chunk's root images, one column per root slot.
    """
    monos = [_top_monomial(flag, m) for m in monomials]
    # every e_k is at hand, so a node costs one step whatever its degree
    trie, sequences = class_degree_trie(monos)
    degrees = {k for seq in sequences.values() for k in seq}
    kmax, kmin = max(degrees, default=0), min(degrees, default=0)
    fixed = flag.fixed_points
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
    # both denominators are positive: every positive root is, at both points
    den, den2 = (math.prod(val[i] for i in flag.rs.positive) for val in vals)
    out: dict[tuple[int, ...], int] = {}
    for m, seq in sequences.items():
        num, num2 = totals[0][seq], totals[1][seq]
        if num * den2 != num2 * den:
            raise ArithmeticError("fixed-point sum disagrees between sample points")
        value, rest = divmod(num, den)
        if rest:
            raise ArithmeticError(
                f"Chern number {format_cmonomial(m)} is not an integer: "
                f"{Fraction(num, den)}")
        out[m] = value
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


def _partition_power_sums(n: int) -> list[dict[tuple[int, ...], int]]:
    """p_1..p_n in c_1..c_n by Newton's identities, p_k = sum_{i<k}
    (-1)^{i-1} c_i p_{k-i} + (-1)^{k-1} k c_k, with index 0 unused.  A
    c-monomial is keyed by its partition, the class indices in descending
    order, so c_i times a monomial adds the part i; coefficients are ints."""
    p: list[dict[tuple[int, ...], int]] = [{}]
    for k in range(1, n + 1):
        acc = {(k,): (-1) ** (k - 1) * k}
        for i in range(1, k):
            sign = (-1) ** (i - 1)
            for lam, a in p[k - i].items():
                key = tuple(sorted(lam + (i,), reverse=True))
                acc[key] = acc.get(key, 0) + sign * a
        p.append(acc)
    return p


@dataclass(frozen=True)
class ToddExpansion:
    degree: int
    coefficients: Mapping[tuple[int, ...], Fraction]
    denominator: int  # the least common denominator of the coefficients


# largest degree of ``todd_polynomial``: it has one term per partition of the
# degree, and builds them in 0.05-0.09 s at degree 20, 0.19-0.34 s at 24
# (1575 terms) and 0.33-0.44 s at 25 (1958 terms; 2 vCPUs, Python 3.11.7).
# The cap stays at 24 until a check independent of this builder reaches
# above it (ROADMAP item 1).
MAX_TODD_DEGREE = 24


@functools.cache
def todd_polynomial(degree: int) -> ToddExpansion:
    """The universal Todd polynomial of the given weighted degree in c_1..c_degree.

    td = exp(L) with L = sum_k L_k, L_k = l_k p_k, where l_k are the
    coefficients of log(x / (1 - e^{-x})) and p_k the power sums in the
    Chern classes.  The graded pieces of td follow from td' = L' td:
    T_0 = 1 and m T_m = sum_{k=1}^m k L_k T_{m-k}, each product already of
    weighted degree m.  Each T_m is held as int numerators keyed by
    partitions (see ``_partition_power_sums``) over one denominator,
    reduced by their gcd, and turned into exponent tuples over c_1..c_degree
    with ``Fraction`` coefficients only at the end.  A degree outside
    1..``MAX_TODD_DEGREE`` is refused (ValueError) before anything is built.
    """
    if not 1 <= degree <= MAX_TODD_DEGREE:
        raise ValueError(f"the Todd polynomial of degree {degree} is not "
                         f"built; the degree must be in 1..{MAX_TODD_DEGREE}")
    n = degree
    series = _series_log(_todd_series(n))  # log of x/(1-e^{-x})
    psums = _partition_power_sums(n)
    pieces = [({(): 1}, 1)]  # (numerators, denominator) of T_0..T_m
    for m in range(1, n + 1):
        ks = [k for k in range(1, m + 1) if series[k]]
        den = math.lcm(*(series[k].denominator * pieces[m - k][1]
                         for k in ks))
        acc: dict[tuple[int, ...], int] = {}
        get = acc.get
        for k in ks:
            nums, d = pieces[m - k]
            lk = series[k]
            scale = k * lk.numerator * (den // (lk.denominator * d))
            for lam, a in psums[k].items():
                a_scaled = a * scale
                for mu, b in nums.items():
                    key = tuple(sorted(lam + mu, reverse=True))
                    acc[key] = get(key, 0) + a_scaled * b
        den *= m
        g = math.gcd(den, *acc.values())
        pieces.append(({key: a // g for key, a in acc.items() if a}, den // g))
    nums, den = pieces[n]
    coefficients = {}
    for lam, a in nums.items():
        exps = [0] * n
        for part in lam:
            exps[part - 1] += 1
        coefficients[tuple(exps)] = Fraction(a, den)
    return ToddExpansion(degree, coefficients, den)


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
    monomials, from either oracle.  The sum is taken in integers, each
    coefficient's numerator over the polynomial's one denominator, and
    divided once.
    """
    td = todd_polynomial(flag.complex_dim)
    den = td.denominator
    total = sum(c.numerator * (den // c.denominator) * numbers[m]
                for m, c in td.coefficients.items())
    return orientation_sign(flag, acs) * Fraction(total, den)
