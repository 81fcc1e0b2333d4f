"""Root systems for families A, B, C, D, G2, their Weyl group orders and
Bruhat covers.

Only the simple roots are written down, in an explicit ambient coordinate
space: A_n lives in n+1 coordinates (roots e_i - e_j), B/C/D_n in n
coordinates, and G2 in 3 coordinates on the trace-zero plane (so some
coordinates have denominator 3).  Every other root is generated from them in
integer simple-root coordinates, with Cartan integers from the integer Gram
matrix of the simple roots, and the ambient vectors follow.  A root is named
by its position in the sorted order of the ambient vectors, and every table
of ``RootSystem`` is indexed by that position.  ``_coroot`` is the one place
a Cartan integer is computed; ``RootSystem.coroots`` holds them for every
positive root, and every reflection in the package reads them.
|W| is Kostant's product of (ht beta + 1) / ht beta over the positive roots
(``weyl_order``), so a family needs no order formula of its own.
No program path lists W: the fixed points and the Bruhat cover table walk
orbits.  ``weyl_group`` lists W as signed root permutations only as the
reference that ``perfbench/tests/test_bench_reference.py`` and the tests
check the orders against.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

Vector = tuple[Fraction, ...]
Coroot = tuple[tuple[int, int], ...]

SUPPORTED_FAMILIES = ("A", "B", "C", "D", "G2")
# ranks above this are refused before any root is generated: D_60 has 7080
# roots, and `roots --family D --rank 60 --format json` takes 3.6 s and
# 52 MiB (2 vCPUs, Python 3.11.7); decompose "F(40)" takes 0.6 s
MAX_RANK = 60


@dataclass(frozen=True, eq=False)
class RootSystem:
    """A root system, one object per family and rank.

    Every root is named by its position p in the sorted order of the ambient
    vectors: ``vectors[p]`` is its ambient vector, ``coords[p]`` its integer
    coordinates in the basis of the simple roots, and ``index`` maps those
    coordinates back to p.  ``positive`` lists the positive roots by height,
    then by vector; ``simple`` the simple roots alpha_1..alpha_n.
    ``cartan[k]`` is the coroot of alpha_k (see ``_coroot``), and ``gram``
    the integer Gram matrix of the simple roots (of their ambient vectors
    times 3 for G2).
    """
    family: str
    rank: int
    vectors: tuple[Vector, ...] = field(repr=False)
    coords: tuple[tuple[int, ...], ...] = field(repr=False)
    index: dict = field(repr=False)
    positive: tuple[int, ...] = field(repr=False)
    simple: tuple[int, ...] = field(repr=False)
    cartan: tuple[Coroot, ...] = field(repr=False)
    gram: tuple = field(repr=False)

    @property
    def simples(self) -> tuple[Vector, ...]:
        return tuple(self.vectors[p] for p in self.simple)

    @property
    def ambient_dim(self) -> int:
        return len(self.vectors[0])

    @property
    def n_positive(self) -> int:
        return len(self.positive)

    @functools.cached_property
    def reflections(self) -> tuple[tuple[int, ...], ...]:
        """The simple reflections as permutations of the root positions:
        ``reflections[k][p]`` is the position of s_k applied to root p."""
        return tuple(tuple(self.index[reflect(c, k, coroot)]
                           for c in self.coords)
                     for k, coroot in enumerate(self.cartan))

    @functools.cached_property
    def coroots(self) -> tuple[Coroot, ...]:
        """The coroot of every positive root, in ``positive`` order (see
        ``_coroot``)."""
        return tuple(_coroot(self.gram, self.coords[p]) for p in self.positive)

    @functools.cached_property
    def _covers(self) -> BruhatCovers:
        """The Bruhat cover table of W; ``bruhat_covers`` refuses a large W
        before reading it."""
        return _cover_table(self)

    def to_json(self) -> dict:
        """The roots as integer vectors over a common denominator (3 for G2),
        and the positive and simple roots by position among them."""
        den = math.lcm(*(c.denominator for r in self.vectors for c in r))
        return {
            "family": self.family,
            "rank": self.rank,
            "ambient_dim": self.ambient_dim,
            "denominator": den,
            "roots": [[int(c * den) for c in r] for r in self.vectors],
            "positives": list(self.positive),
            "simples": list(self.simple),
        }


def _solve(matrix, rhs) -> list[list[Fraction]]:
    """Solve a small square rational system matrix * x = b for every row b
    of ``rhs`` at once, by Gauss-Jordan elimination."""
    n = len(matrix)
    m = [[Fraction(matrix[i][j]) for j in range(n)]
         + [Fraction(b[i]) for b in rhs] for i in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[pivot] = m[pivot], m[col]
        inv = 1 / m[col][col]
        m[col] = [v * inv for v in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return [[m[i][n + k] for i in range(n)] for k in range(len(rhs))]


def _coroot(gram, beta: tuple[int, ...]) -> Coroot:
    """The Cartan integers <alpha_i, beta^vee> = 2 (alpha_i, beta) / (beta,
    beta) of a root beta, given in simple-root coordinates, over the simple
    roots alpha_i, as the pairs (i, value) with a nonzero value.

    <c, beta^vee> is then sum(c[i] * value) for any c in simple-root
    coordinates.
    """
    support = [(j, b) for j, b in enumerate(beta) if b]
    inner = [sum(row[j] * b for j, b in support) for row in gram]
    norm = sum(inner[j] * b for j, b in support)
    return tuple((i, 2 * x // norm) for i, x in enumerate(inner) if x)


def reflect(c: tuple[int, ...], k: int, coroot: Coroot) -> tuple[int, ...]:
    """s_k(c) = c - <c, alpha_k^vee> e_k, for c in simple-root coordinates
    and ``coroot`` the coroot of the simple root alpha_k."""
    p = sum(c[i] * x for i, x in coroot)
    if not p:
        return c
    out = list(c)
    out[k] -= p
    return tuple(out)


def check_rank(rank: int) -> None:
    """Refuse (ValueError) a rank above ``MAX_RANK``."""
    if rank > MAX_RANK:
        raise ValueError(f"rank {rank} is above the bound {MAX_RANK}")


def build_root_system(family: str, rank: int) -> RootSystem:
    """Standard realization of the root system of the given family and rank
    (one object per family and rank, built by ``_root_system``).  An
    unsupported family, or a rank above ``MAX_RANK`` or too small for the
    family, is refused (ValueError) before any root is built, and a refusal
    is never kept."""
    family = family.upper()
    if family not in SUPPORTED_FAMILIES:
        raise ValueError(f"unsupported family {family!r}; expected one of {SUPPORTED_FAMILIES}")
    check_rank(rank)
    if family == "G2":
        if rank != 2:
            raise ValueError("G2 has rank 2")
    else:
        least = {"A": 1, "B": 2, "C": 2, "D": 3}[family]
        if rank < least:
            raise ValueError(f"{family}_n needs rank >= {least}")
    return _root_system(family, rank)


@functools.cache
def _root_system(family: str, rank: int) -> RootSystem:
    """The root system of a supported family and rank.

    Only the simple roots are written down: e_i - e_{i+1}, ending in
    e_n - e_{n+1} for A_n, e_n for B_n, 2e_n for C_n and e_{n-1} + e_n for
    D_n, and for G2 the long x - y and the short projection of y on the
    trace-zero plane (times 3 below, so every vector is integral).  Every
    root is W-conjugate to a simple root (Humphreys, Introduction to Lie
    Algebras and Representation Theory, 10.3), so the roots are the closure
    of the simple roots e_k under the simple reflections ``reflect``; the
    ambient vector of s_k(c) is that of c minus (c_k - s_k(c)_k) alpha_k.
    """
    if family == "G2":
        den, simples = 3, [(3, -3, 0), (-1, 2, -1)]
    else:
        dim = rank + 1 if family == "A" else rank
        rows = [[int(j == i) - int(j == i + 1) for j in range(dim)]
                for i in range(rank)]
        if family != "A":
            rows[-1][-2:] = {"B": [0, 1], "C": [0, 2], "D": [1, 1]}[family]
        den, simples = 1, [tuple(a) for a in rows]
    gram = tuple(tuple(sum(x * y for x, y in zip(a, b)) for b in simples)
                 for a in simples)
    units = [tuple(int(i == k) for i in range(rank)) for k in range(rank)]
    cartan = tuple(_coroot(gram, e) for e in units)
    vectors, frontier = dict(zip(units, simples)), units
    while frontier:
        nxt = []
        for c in frontier:
            for k, coroot in enumerate(cartan):
                d = reflect(c, k, coroot)
                if d not in vectors:
                    p = c[k] - d[k]
                    vectors[d] = tuple(x - p * y
                                       for x, y in zip(vectors[c], simples[k]))
                    nxt.append(d)
        frontier = nxt
    # sorting the integer vectors sorts the roots: the scale is positive
    ordered = sorted((v, c) for c, v in vectors.items())
    coords = tuple(c for _, c in ordered)
    index = {c: p for p, c in enumerate(coords)}
    # canonical order of positives: by height, then by vector (stable sort)
    positive = sorted((p for p, c in enumerate(coords) if sum(c) > 0),
                      key=lambda p: sum(coords[p]))
    return RootSystem(
        family=family,
        rank=rank,
        vectors=tuple(tuple(Fraction(x, den) for x in v) for v, _ in ordered),
        coords=coords,
        index=index,
        positive=tuple(positive),
        simple=tuple(index[e] for e in units),
        cartan=cartan,
        gram=gram,
    )


def weyl_order(rs: RootSystem) -> int:
    """|W|, as Kostant's product over the positive roots (see
    ``height_product``)."""
    return height_product(rs, rs.positive)


def height_product(rs: RootSystem, roots: Sequence[int]) -> int:
    """The product of (ht beta + 1) / ht beta over the given positive roots.

    Over every positive root it is |W| (Kostant, Amer. J. Math. 81 (1959);
    Macdonald, Math. Ann. 199 (1972)), so over a closed subsystem's
    complement it is a quotient of Weyl-group orders.  A product that is not
    an integer raises AssertionError.
    """
    num = den = 1
    for p in roots:
        h = sum(rs.coords[p])
        num *= h + 1
        den *= h
    order, rest = divmod(num, den)
    if rest:
        raise AssertionError(f"height product {num}/{den} over "
                             f"{rs.family}{rs.rank} roots is not an integer")
    return order


def coroot_pairings(rs: RootSystem, c: Sequence[int]) -> list[int]:
    """<c, beta^vee> for every positive root beta, in ``rs.positive`` order,
    for c in simple-root coordinates."""
    return [sum(c[i] * x for i, x in coroot) for coroot in rs.coroots]


def reflection_closure(perms: Sequence[tuple[int, ...]],
                       n_roots: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """The group generated by reflections given as permutations of
    ``n_roots`` root positions, as (sign, permutation) pairs.

    Breadth-first by word length, so the sign is (-1)^length; within a
    length the permutations are sorted, which makes the order deterministic.
    """
    level = [tuple(range(n_roots))]
    seen = set(level)
    out = []
    sign = 1
    while level:
        out += [(sign, w) for w in level]
        nxt = {tuple(g[i] for i in w) for w in level for g in perms}
        level = sorted(nxt - seen)
        seen.update(level)
        sign = -sign
    return tuple(out)


def weyl_group(rs: RootSystem) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """The full Weyl group as (sign, permutation of the root positions)
    pairs."""
    return reflection_closure(rs.reflections, len(rs.coords))


# |W(B6)| = |W(C6)|: every A_n up to A7, B/C up to rank 6 and D up to D6
MAX_BRUHAT_ORDER = 46080


@dataclass(frozen=True)
class BruhatCovers:
    """The Bruhat covers w < w s_beta of a Weyl group, in compressed rows.

    Elements are numbered by length, then by their name w^-1(2 rho) (see
    ``_cover_table``): 0 is the identity, ``top`` the longest element w0.
    The elements of length d are ``starts[d]`` to ``starts[d + 1] - 1``, for
    d = 0..l(w0) + 1.  The covers of element w are the entries
    ``offsets[w]`` to ``offsets[w + 1]`` of ``targets`` (the index of
    w s_beta) and ``roots`` (the index of beta in ``rs.positive``).
    """
    offsets: list
    targets: list
    roots: list
    top: int
    starts: list


def bruhat_covers(rs: RootSystem) -> BruhatCovers:
    """The Bruhat cover table of W, built once per root system.

    Groups with |W| above ``MAX_BRUHAT_ORDER`` are refused before any
    element is built.
    """
    order = weyl_order(rs)
    if order > MAX_BRUHAT_ORDER:
        raise ValueError(
            f"|W({rs.family}{rs.rank})| = {order} exceeds the "
            f"Bruhat-table bound {MAX_BRUHAT_ORDER} of the Schubert "
            f"oracle; the fixed-point oracle (--oracle weyl) has no such "
            f"bound")
    return rs._covers


def _cover_table(rs: RootSystem) -> BruhatCovers:
    """Build the Bruhat cover table of W.

    An element w is named by mu = w^-1(2 rho) in simple-root coordinates, as
    ``FlagManifold.fixed_points`` names a coset by an orbit point.  2 rho
    pairs positively with every positive coroot, so w s_beta is longer than
    w exactly when p = <mu, beta^vee> > 0; its name is s_beta(mu) =
    mu - p beta, and it is a cover when that name has the next length.  W
    is walked breadth-first by length through the simple roots (the first
    ``rank`` positive roots), two lengths alive at a time, and each name
    carries its pairings <mu, beta^vee>: those of s_beta(mu) subtract p times
    those of beta.  Each length is numbered in the sorted order of its
    names; the name of w0 w is -mu, so w0 reverses that order between
    lengths d and l(w0) - d.
    """
    betas = [rs.coords[p] for p in rs.positive]
    simple = [(b, coroot_pairings(rs, betas[b])) for b in range(rs.rank)]
    two_rho = tuple(map(sum, zip(*betas)))
    level = {two_rho: coroot_pairings(rs, two_rho)}
    offsets, targets, roots, first, length = [0], [], [], 0, 0
    starts = [0]
    while True:
        longer = {}
        for mu, pairs in level.items():
            for b, col in simple:
                p = pairs[b]
                if p > 0:
                    nu = tuple([m - p * x for m, x in zip(mu, betas[b])])
                    if nu not in longer:
                        longer[nu] = [x - p * y for x, y in zip(pairs, col)]
        longer = dict(sorted(longer.items()))
        after = first + len(level)
        index = {nu: after + i for i, nu in enumerate(longer)}
        for mu, pairs in level.items():
            for b, (p, beta) in enumerate(zip(pairs, betas)):
                if p > 0:
                    t = index.get(tuple([m - p * x for m, x in zip(mu, beta)]))
                    if t is not None:
                        targets.append(t)
                        roots.append(b)
            offsets.append(len(targets))
        starts.append(after)
        if not longer:
            break
        level, first, length = longer, after, length + 1
    if after != weyl_order(rs) or len(level) != 1 or length != rs.n_positive:
        raise AssertionError(f"W({rs.family}{rs.rank}) has {after} elements "
                             f"and {len(level)} of the top length {length}")
    return BruhatCovers(offsets, targets, roots, first, starts)
