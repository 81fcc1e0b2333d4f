"""Exact integration, Chern numbers, and the Todd genus.

The Chern classes of a structure are never formed as polynomials.  Both
oracles take c_k as the k-th elementary symmetric function of the signed
complementary roots, the fixed-point kernel on integer root values and the
Schubert oracle on Schubert expansions, so both need only the root data.
Two independent integration oracles are provided, with one batch contract:
several structures of one manifold and a batch of monomials in, one dict
per structure out, in order; a table section's columns are one call.
``chern_numbers_many`` is the fixed-point (Atiyah-Bott / Berline-Vergne
localization) kernel, and ``chern_numbers`` is that kernel on one
structure: an integral over G/K is a sum over the torus-fixed points, one
per coset W_K w of the Weyl group, evaluated in exact integers at the
points (1, ..., 1) and (1, 2, ..., r) on the simple roots (the second a
guard on the first) and divided once by the positive-root product.  It is
normalized so the all-plus structure's top Chern class integrates to +chi.
It makes one pass over the fixed points for all the structures, in chunks
of ``FIXED_POINT_CHUNK`` (``_fixed_point_sums``): per chunk what the signs
do not change is built once, and the rest per structure in turn.  There
each fixed point packs its values of c_0..c_kmax, for the largest class
degree kmax the batch reads, into the lanes of one int, and the fixed
points with equal packed ints are summed as one group before the monomials
are formed.  When sigma = -w0 maps Theta to itself, w0 pairs the fixed
points W_K w and W_K w0 w, and J's term at W_K w0 w is sigma J's term at
W_K w; then the pass runs over one point of each pair, for the structures
and their sigma-images, and J's sum is its half plus sigma J's.

``chern_numbers_schubert`` is the second oracle: it multiplies in the
Schubert basis of H*(G/B) by Chevalley's formula over the Bruhat covers,
read one row of (target, root) pairs per element, reads off the
coefficient of the point class sigma_{w0}, and calibrates it against the
positive-root product.  Like the kernel, it builds what the signs do not
change once per call, and the rest per structure in turn.  It uses no
fixed points, no rational functions and no Groebner basis.  The two
oracles share only the bookkeeping: the slot signs of ``_slot_signs``, the
batch of class-degree sequences of ``_class_sequences``, which the Schubert
oracle reads reversed, largest degree first, and the exact division.

The universal Todd polynomials are Hirzebruch's multiplicative sequence for
x / (1 - e^{-x}), built one weighted degree at a time from td = exp(L), in
int numerators over one denominator per degree.  The pieces of that
recurrence are kept, so every degree asked for reads its own piece and no
degree is built twice.
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction
from itertools import accumulate, repeat
from operator import add, and_, lshift, mul, rshift, sub
from typing import Collection, Iterable, Mapping, NamedTuple, Sequence

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


def top_monomial(flag: FlagManifold, c_monomial) -> tuple[int, ...]:
    """Exponent tuple of a c-monomial, which must have weighted degree N."""
    n = flag.complex_dim
    m = parse_cmonomial(c_monomial, n) if isinstance(c_monomial, str) else tuple(c_monomial)
    if weighted_degree(m) != n:
        raise ValueError(
            f"monomial {format_cmonomial(m)} has weighted degree "
            f"{weighted_degree(m)}, expected {n}")
    return m


def _class_sequences(flag: FlagManifold,
                     monomials) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Each distinct monomial's exponent tuple, validated once (see
    ``top_monomial``), mapped to its class degrees, smallest first, in
    first-seen order: c1^2c3 has the sequence (1, 1, 3).  Every sequence
    sums to N, so none is a proper prefix of another."""
    checked: dict = {}
    for m in monomials:
        key = m if isinstance(m, str) else tuple(m)
        if key not in checked:
            checked[key] = top_monomial(flag, key)
    return {m: tuple(k + 1 for k, e in enumerate(m) for _ in range(e))
            for m in checked.values()}


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


def _slot_signs(flag: FlagManifold, acs: InvariantACS) -> list[int]:
    """The structure's sign on each complementary root slot, summand by
    summand; ValueError unless it has one sign per summand."""
    summands = flag.summands()
    if len(acs.signs) != len(summands):
        raise ValueError(f"structure {acs.label()} has {len(acs.signs)} signs"
                         f", but {flag.name()} has {len(summands)} summands")
    return [s for s, part in zip(acs.signs, summands) for _ in part.roots]


def _exact_quotient(m: tuple[int, ...], total: int, den: int) -> int:
    """total / den, the Chern number of ``m``; ArithmeticError unless exact."""
    value, rest = divmod(total, den)
    if rest:
        raise ArithmeticError(f"Chern number {format_cmonomial(m)} is not an "
                              f"integer: {Fraction(total, den)}")
    return value


# -- Chern numbers: Schubert-calculus oracle --------------------------------

def _chevalley(state: dict[int, int], pairing: Sequence[int],
               covers: BruhatCovers, out: dict[int, int]) -> dict[int, int]:
    """Add lambda . state into ``out`` by Chevalley's formula
    lambda . sigma_w = sum <lambda, beta^vee> sigma_{w s_beta}, summed over
    the covers w < w s_beta, read from the (target, root) pairs of w's row;
    ``pairing`` holds <lambda, beta^vee> per beta."""
    rows = covers.rows
    get = out.get
    for w, c in state.items():
        for t, b in rows[w]:
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


def chern_numbers_schubert(flag: FlagManifold,
                           structures: Sequence[InvariantACS],
                           monomials: Iterable) -> list[dict[tuple[int, ...], int]]:
    """Exact Chern numbers of several structures of one manifold for one
    batch of c-monomials by Schubert calculus, one dict per structure.

    Pulled back to G/B, the integral of p over G/K is chi times the
    sigma_{w0}-coefficient of p times the K-positive roots, over that of the
    positive-root product.  Products are taken in the Schubert basis of
    H*(G/B), one linear form at a time by Chevalley's formula over the Bruhat
    covers of ``rootsys.bruhat_covers``, in Python ints: each sigma_w of a
    state reads its row of (target, root) pairs.  c_1 is the sum of
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

    The structures differ only in the signs of the forms, so the cover table
    and its checks, the trie of tails, e_K, the coroot pairings and chi are
    taken once per call, and the rest per structure in turn.
    """
    # each monomial's class degrees, largest first
    sequences = {m: seq[::-1]
                 for m, seq in _class_sequences(flag, monomials).items()}
    slot_signs = [_slot_signs(flag, acs) for acs in structures]
    if not structures:
        return []
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
    pairings = [coroot_pairings(rs, rs.coords[r])
                for summand in flag.summands() for r in summand.roots]
    n = len(pairings)

    def check_length(state, d):
        if state and not starts[d] <= min(state) <= max(state) < starts[d + 1]:
            raise AssertionError(
                f"Schubert state of degree {d} leaves its length range")

    # 0 marks the end of a tail, and maps to the head that completes it
    tails: dict = {}
    for seq in sequences.values():
        node = tails
        for k in seq[1:]:
            node = node.setdefault(k, {})
        node[0] = seq[0]
    k_product = _root_product(rs, covers, flag.k_positives)
    head_ks = sorted({seq[0] for seq in sequences.values()})
    chi = flag.euler_characteristic()
    reference = _schubert_top(rs)

    def numbers(signs):
        """One structure's Chern numbers, from its slot signs."""
        forms = [[s * p for p in ps] for s, ps in zip(signs, pairings)]
        c1 = [sum(col) for col in zip(*forms)]

        def times_classes(state, ks):
            """{k: state * c_k} for the sorted class degrees ks, all from
            one pass of the recurrence up to c_max(ks)."""
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

        heads = times_classes(k_product, head_ks) if head_ks else {}
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
        return {m: _exact_quotient(m, tops[sequences[m]] * chi, reference)
                for m in sequences}

    return [numbers(signs) for signs in slot_signs]


# -- Chern numbers: fixed-point oracle ---------------------------------------

# Fixed points per chunk of the fixed-point kernel: long enough that each list
# operation's per-call cost is spread thin, short enough that a chunk's
# columns, packed ints and groups stay small.
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


def _trie_steps(sequences: Iterable[tuple[int, ...]]) -> list:
    """The class-degree sequences as flat steps (depth, k, leaf), one per
    distinct nonempty prefix.  A step multiplies the row at its depth by
    e_k: into the row one deeper when ``leaf`` is None, and otherwise summed
    into the total of sequence number ``leaf``.  In sorted order each
    sequence shares with the one before it exactly the prefix whose rows are
    still held, so only the rest of it is stepped through.  Smallest degree
    first gives fewer steps on a full batch than largest first (83 against
    138 for the 42 monomials of degree 10)."""
    steps, prev = [], ()
    for seq, leaf in sorted((seq, i) for i, seq in enumerate(sequences)):
        held = next((d for d, (a, b) in enumerate(zip(seq, prev))
                     if a != b), 0)
        steps += [(d, seq[d], None) for d in range(held, len(seq) - 1)]
        steps.append((len(seq) - 1, seq[-1], leaf))
        prev = seq
    return steps


def _fixed_point_sums(flag: FlagManifold, slot_signs: list[list[int]],
                      vals: list[list[int]],
                      sequences: Collection[tuple[int, ...]]) -> list:
    """The fixed-point sums of the numerators, totals[structure][sample
    point][monomial], for the structures' slot signs, the root values
    ``vals`` at each sample point and the class-degree sequences of the
    distinct monomials (at least one).

    Each fixed point holds e_0..e_kmax of its signed slot values packed in
    one int, P = sum e_k 2^(kB): the polynomial prod (1 + s w X) at
    X = 2^B, built one slot at a time as P + (w P << B) or P - (w P << B)
    for the slot's sign s.  Lane k of a product reads only lanes <= k, so
    once the degree passes kmax, P is cut to its kmax + 1 lowest lanes
    (mod 2^((kmax + 1) B)) and e_0..e_kmax stay exact.  The width B is
    taken per sample point: with M the largest |root value| there, which
    bounds every slot value, |e_k| <= C(n, k) M^k for k <= kmax, and B
    leaves a sign bit and one bit of margin above that bound.  So every
    |e_k| < 2^(B-1): adding 2^(B-1) to each lane leaves each lane in
    [0, 2^B) with no carry between lanes, and then a shift and a mask read
    e_k exactly, and equal P means equal e_0..e_kmax.

    Fixed points with equal P give every monomial the same factor, so they
    form one group, whose base values (sign(w) times the K-positive
    product) are summed; a group whose sum is 0 is dropped.  Each group
    decodes only the e_k the batch reads, and the sequences run as flat
    steps (``_trie_steps``) over the groups, one row held per depth, each
    row its parent times one e_k.

    Per chunk of ``FIXED_POINT_CHUNK`` fixed points the transpose of the
    root images and, per sample point, the base row and the plus-signed
    slot columns, shifted by B, are built once for all structures; the
    packed ints, groups and step rows are built for one structure at a
    time.

    When the fixed points are paired (``FlagManifold.w0_summands`` gives
    pi, and all chi of them are there), the chunks run over the first
    chi/2 only.  Point i + chi/2 is W_K w0 w for point i = W_K w, and there
    J's signed slot values are the negatives of sigma J's at point i, where
    sigma J has the sign s[i] on summand pi[i]: w0 maps each summand i onto
    minus summand pi[i].  So e_k changes by (-1)^k and each monomial by
    (-1)^N; the base value changes by (-1)^N too, sign(w0) = (-1)^|Phi+|
    against (-1)^|K+| from the K-positive roots, which sigma permutes.
    Hence J's term at point i + chi/2 is sigma J's at point i, and J's
    full sum is its half sum plus sigma J's.  The chunks run over the
    distinct sign vectors of the batch and their mirrors, the sign vectors
    of their sigma J, so a sigma-invariant J, or a pair J, sigma J, costs
    half its full sum.
    """
    steps = _trie_steps(sequences)
    degrees = {k for seq in sequences for k in seq}
    lanes = max(degrees) + 1  # e_0..e_kmax
    rows = [None] * max(map(len, sequences))
    n = flag.complex_dim
    widths = []
    for val in vals:
        bound = max(map(abs, val))
        widths.append(max((math.comb(n, k) * bound ** k).bit_length()
                          for k in range(lanes)) + 2)
    fixed = flag.fixed_points
    # a shortened enumeration is summed as it is, unpaired
    pi = (flag.w0_summands if len(fixed) == flag.euler_characteristic()
          else None)
    mirror = None
    if pi is not None:
        fixed = fixed[:len(fixed) // 2]
        summands = flag.summands()
        # sigma J's sign on summand pi[i] is J's on summand i, read at that
        # summand's first slot
        source = dict(zip(pi, accumulate(
            (s.dim_complex for s in summands), initial=0)))
        picks = [source[j] for j, s in enumerate(summands) for _ in s.roots]

        def mirror(signs):
            return tuple(map(signs.__getitem__, picks))
    # the distinct structures summed, with their mirrors when paired
    index: dict[tuple[int, ...], int] = {}
    for signs in map(tuple, slot_signs):
        index.setdefault(signs, len(index))
        if mirror:
            index.setdefault(mirror(signs), len(index))
    totals = [[[0] * len(sequences) for _ in vals] for _ in index]
    for start in range(0, len(fixed), FIXED_POINT_CHUNK):
        point_signs, images = zip(*fixed[start:start + FIXED_POINT_CHUNK])
        cols = list(zip(*images))
        ones = [1] * len(images)
        for p, (val, width) in enumerate(zip(vals, widths)):
            plus = val.__getitem__
            base = list(point_signs)
            for col in cols[n:]:
                base = list(map(mul, base, map(plus, col)))
            slots = [list(map(lshift, map(plus, col), repeat(width)))
                     for col in cols[:n]]
            lane = (1 << width) - 1
            cut = (1 << lanes * width) - 1
            half = 1 << width - 1
            bias = half * (cut // lane)  # 2^(B-1) in every lane
            for signs, acc in zip(index, totals):
                packed = ones
                for i, (s, w) in enumerate(zip(signs, slots)):
                    packed = map(add if s > 0 else sub, packed,
                                 map(mul, w, packed))
                    packed = list(map(and_, packed, repeat(cut))
                                  if i >= lanes - 1 else packed)
                groups: dict[int, int] = {}
                get = groups.get
                for key, b in zip(packed, base):
                    groups[key] = get(key, 0) + b
                keys = [key + bias for key, b in groups.items() if b]
                if not keys:
                    continue
                rows[0] = [b for b in groups.values() if b]
                e = {k: list(map(sub, map(and_, map(rshift, keys,
                                                    repeat(k * width)),
                                          repeat(lane)), repeat(half)))
                     for k in degrees}
                acc = acc[p]
                for depth, k, leaf in steps:
                    if leaf is None:
                        rows[depth + 1] = list(map(mul, rows[depth], e[k]))
                    else:
                        acc[leaf] += sum(map(mul, rows[depth], e[k]))
    if not mirror:
        return [totals[index[tuple(signs)]] for signs in slot_signs]
    return [[list(map(add, own, partner)) for own, partner in
             zip(totals[index[signs]], totals[index[mirror(signs)]])]
            for signs in map(tuple, slot_signs)]


def chern_numbers_many(flag: FlagManifold,
                       structures: Sequence[InvariantACS],
                       monomials: Iterable) -> list[dict[tuple[int, ...], int]]:
    """Exact Chern numbers of several structures of one manifold for one
    batch of c-monomials by localization, one dict per structure in order.

    The integral of an invariant class p is the sum over the fixed points
    W_K w of sign(w) p(w x) prod_{K+} beta(w x) / prod_{Phi+} alpha(x), where
    the Chern classes are the elementary symmetric functions of the signed
    complementary roots.  A point x is given by integer values on the simple
    roots, so every root value, read off the root's simple-root coordinates,
    and every term is an integer.  The sum is taken at both points of
    ``_generic_points``; for each structure the two quotients must agree,
    and be integers.

    The structures share the fixed points, the root values and the
    K-positive factor, and differ only in the signs of the complementary
    slots.  So each distinct monomial is validated once and the sums of all
    structures are taken in one pass over the fixed points
    (``_fixed_point_sums``).  There each fixed point's e_0..e_kmax, for the
    largest class degree kmax of the batch, sit in the lanes of one packed
    int, the fixed points with equal packed ints form one group, and each
    monomial is formed once per group.  When the fixed points are paired
    by w0 (``FlagManifold.w0_summands``), the pass runs over one point of
    each pair, for the distinct structures and their sigma-images, so a
    sigma-invariant structure, or a pair J, sigma J, costs half its full
    sum.  It holds chunk-sized lists for one structure at a time: the
    memory held grows with the number of structures only by their sums.
    An empty batch gives one empty dict per structure.
    """
    sequences = _class_sequences(flag, monomials)
    if not structures:
        return []
    roots = flag.rs.coords
    vals = [[sum(a * b for a, b in zip(r, pt)) for r in roots]
            for pt in _generic_points(roots)]
    slot_signs = [_slot_signs(flag, acs) for acs in structures]
    if not sequences:
        return [{} for _ in structures]
    totals = _fixed_point_sums(flag, slot_signs, vals, sequences.values())
    # both denominators are positive: every positive root is, at both points
    den, den2 = (math.prod(val[i] for i in flag.rs.positive) for val in vals)
    out = []
    for nums, nums2 in totals:
        numbers: dict[tuple[int, ...], int] = {}
        for m, num, num2 in zip(sequences, nums, nums2):
            if num * den2 != num2 * den:
                raise ArithmeticError(
                    "fixed-point sum disagrees between sample points")
            numbers[m] = _exact_quotient(m, num, den)
        out.append(numbers)
    return out


def chern_numbers(flag: FlagManifold, acs: InvariantACS,
                  monomials: Iterable) -> dict[tuple[int, ...], int]:
    """Exact Chern numbers of one structure for a batch of c-monomials by
    localization: ``chern_numbers_many`` on that structure alone."""
    return chern_numbers_many(flag, [acs], monomials)[0]


ORACLES = ("weyl", "schubert", "both", "groebner")


def chern_numbers_by(flag: FlagManifold, structures: Sequence[InvariantACS],
                     monos: list,
                     oracle: str) -> list[dict[tuple[int, ...], int]]:
    """Chern numbers of each structure, one dict per structure in order, by
    one call of ``chern_numbers_many`` (weyl), of ``chern_numbers_schubert``
    (schubert, or its deprecated alias groebner) or of both, which must
    agree on every structure.  Each oracle parses and validates each
    distinct monomial once (``_class_sequences``), so a batch may
    repeat monomials, as ``chern --todd`` does with the requested numbers.

    Under both, the Schubert oracle runs first: it refuses a Weyl group
    above ``MAX_BRUHAT_ORDER`` before building anything, and the kernel
    never refuses what it accepts (chi <= |W| <= ``MAX_BRUHAT_ORDER`` <
    ``MAX_FIXED_POINTS``), so a refusal comes before the fixed-point sum."""
    if oracle not in ORACLES:
        raise ValueError(f"unknown oracle {oracle!r}")
    if oracle == "weyl":
        return chern_numbers_many(flag, structures, monos)
    schuberts = chern_numbers_schubert(flag, structures, monos)
    if oracle != "both":
        return schuberts
    weyl = chern_numbers_many(flag, structures, monos)
    for acs, numbers, schubert in zip(structures, weyl, schuberts):
        if numbers != schubert:
            raise ArithmeticError(
                f"oracle disagreement on {flag.name()} {acs.label()}: "
                f"fixed-point sum {numbers} vs Schubert {schubert}")
    return weyl


# -- Todd polynomials and the Todd genus ------------------------------------

@functools.cache
def _todd_log_coefficient(k: int) -> Fraction:
    """l_k, the coefficient of x^k in log(x / (1 - e^{-x})), for k >= 1.

    The log is -log s with s = (1 - e^{-x})/x = sum_j (-1)^j x^j / (j+1)!,
    and (log s)' = s'/s gives k l_k = -k s_k - sum_{j<k} j l_j s_{k-j}."""
    def s(j):
        return Fraction((-1) ** j, math.factorial(j + 1))
    return -(k * s(k) + sum(j * _todd_log_coefficient(j) * s(k - j)
                            for j in range(1, k))) / k


@functools.cache
def _power_sum(k: int) -> dict[tuple[int, ...], int]:
    """p_k in c_1..c_k by Newton's identities, p_k = sum_{i<k}
    (-1)^{i-1} c_i p_{k-i} + (-1)^{k-1} k c_k.  A c-monomial is keyed by its
    partition, the class indices in descending order, so c_i times a
    monomial adds the part i; coefficients are ints."""
    acc = {(k,): (-1) ** (k - 1) * k}
    for i in range(1, k):
        sign = (-1) ** (i - 1)
        for lam, a in _power_sum(k - i).items():
            key = tuple(sorted(lam + (i,), reverse=True))
            acc[key] = acc.get(key, 0) + sign * a
    return acc


@functools.cache
def _todd_piece(m: int) -> tuple[dict[tuple[int, ...], int], int]:
    """T_m, the weighted-degree-m part of td = exp(L), as int numerators
    keyed by partitions (see ``_power_sum``) over one denominator, reduced
    by their gcd.

    L = sum_k L_k with L_k = l_k p_k, and td' = L' td gives T_0 = 1 and
    m T_m = sum_{k=1}^m k L_k T_{m-k}, each product already of weighted
    degree m.  T_m does not depend on the degree of the polynomial it is
    read for, so the recurrence is kept, grown to the largest degree asked
    for, and every degree reads its own piece from it.
    """
    if m == 0:
        return {(): 1}, 1
    ks = [k for k in range(1, m + 1) if _todd_log_coefficient(k)]
    den = math.lcm(*(_todd_log_coefficient(k).denominator
                     * _todd_piece(m - k)[1] for k in ks))
    acc: dict[tuple[int, ...], int] = {}
    get = acc.get
    for k in ks:
        nums, d = _todd_piece(m - k)
        lk = _todd_log_coefficient(k)
        scale = k * lk.numerator * (den // (lk.denominator * d))
        for lam, a in _power_sum(k).items():
            a_scaled = a * scale
            for mu, b in nums.items():
                key = tuple(sorted(lam + mu, reverse=True))
                acc[key] = get(key, 0) + a_scaled * b
    den *= m
    g = math.gcd(den, *acc.values())
    return {key: a // g for key, a in acc.items() if a}, den // g


class ToddExpansion(NamedTuple):
    numerators: Mapping[tuple[int, ...], int]  # coefficients times denominator
    denominator: int  # the least common denominator of the coefficients


# largest degree of ``todd_polynomial``: it has one term per partition of the
# degree, and builds them in 0.05-0.09 s at degree 20, 0.19-0.34 s at 24
# (1575 terms) and 0.33-0.44 s at 25 (1958 terms; 2 vCPUs, Python 3.11.7).
# The cap stays at 24 until a check independent of this builder reaches
# above it (ROADMAP item 4).
MAX_TODD_DEGREE = 24


@functools.cache
def todd_polynomial(degree: int) -> ToddExpansion:
    """The universal Todd polynomial of the given weighted degree in c_1..c_degree.

    It is T_degree of Hirzebruch's multiplicative sequence td = exp(L) (see
    ``_todd_piece``, where l_k are the coefficients of
    log(x / (1 - e^{-x})) and p_k the power sums in the Chern classes),
    keyed by exponent tuples over c_1..c_degree, its coefficients as int
    numerators over one denominator.  A degree outside 1..``MAX_TODD_DEGREE``
    is refused (ValueError) before anything is built.
    """
    if not 1 <= degree <= MAX_TODD_DEGREE:
        raise ValueError(f"the Todd polynomial of degree {degree} is not "
                         f"built; the degree must be in 1..{MAX_TODD_DEGREE}")
    nums, den = _todd_piece(degree)
    numerators = {}
    for lam, a in nums.items():
        exps = [0] * degree
        for part in lam:
            exps[part - 1] += 1
        numerators[tuple(exps)] = a
    return ToddExpansion(numerators, den)


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
               numbers: Mapping[tuple[int, ...], int]) -> int:
    """Integral of the top Todd polynomial of the tangent bundle.

    Evaluated against the fundamental class oriented by the structure itself
    (not the fixed all-plus orientation used by ``chern_numbers``), so every
    integrable structure has genus exactly 1.  ``numbers`` holds the Chern
    numbers, in that all-plus orientation, of at least the Todd polynomial's
    monomials, from either oracle.  The sum is taken in integers, over the
    polynomial's numerators, and divided once by its denominator, exactly:
    the genus is the index of the spin^c Dirac operator, so a remainder
    raises ArithmeticError.
    """
    td = todd_polynomial(flag.complex_dim)
    den = td.denominator
    total = sum(a * numbers[m] for m, a in td.numerators.items())
    genus, rest = divmod(total, den)
    if rest:
        raise ArithmeticError(f"Todd genus of {flag.name()} {acs.label()} is "
                              f"not an integer: {Fraction(total, den)}")
    return orientation_sign(flag, acs) * genus
