"""Root systems for families A, B, C, D, G2 and their Weyl groups.

Roots are vectors of rationals in an explicit ambient coordinate space:
A_n lives in n+1 coordinates (roots e_i - e_j), B/C/D_n in n coordinates,
and G2 in 3 coordinates on the trace-zero plane (so some coordinates have
denominator 3).  Per family and rank, the roots are also held in the sorted
order of ``integral_roots`` as integer vectors and, in ``root_coefficients``,
as integer coordinates in the basis of simple roots; heights and the
canonical order of the positive roots read that table.  Weyl group elements
are permutations of the roots in that order, each carrying its sign
(-1)^length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .polyring import Polynomial

Vector = tuple[Fraction, ...]

SUPPORTED_FAMILIES = ("A", "B", "C", "D", "G2")


def _vec(*entries) -> Vector:
    return tuple(Fraction(e) for e in entries)


def vec_add(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u: Vector, v: Vector) -> Vector:
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c, v: Vector) -> Vector:
    c = Fraction(c)
    return tuple(c * a for a in v)


def vec_dot(u, v):
    """Inner product; exact for Fraction and for int vectors alike."""
    return sum(a * b for a, b in zip(u, v))


def vec_neg(v: Vector) -> Vector:
    return tuple(-a for a in v)


def root_form(root: Vector) -> Polynomial:
    """The root as a degree-1 polynomial on the ambient coordinates."""
    return Polynomial.linear_form(root)


@dataclass(frozen=True)
class RootSystem:
    family: str
    rank: int
    ambient_dim: int
    roots: frozenset[Vector]
    positives: tuple[Vector, ...]
    simples: tuple[Vector, ...]

    @property
    def n_positive(self) -> int:
        return len(self.positives)

    def simple_coefficients(self, root: Vector) -> tuple[int, ...]:
        """Integer coordinates of a root in the basis of simple roots."""
        return root_coefficients(self)[root]

    def height(self, root: Vector) -> int:
        return sum(root_coefficients(self)[root])

    def denominator(self) -> int:
        """Least common denominator of the root coordinates (3 for G2)."""
        den = 1
        for r in self.roots:
            for c in r:
                den = den * c.denominator // _gcd(den, c.denominator)
        return den

    def to_json(self) -> dict:
        den = self.denominator()
        ordered = sorted(self.roots)
        index = {r: i for i, r in enumerate(ordered)}
        return {
            "family": self.family,
            "rank": self.rank,
            "ambient_dim": self.ambient_dim,
            "denominator": den,
            "roots": [[int(c * den) for c in r] for r in ordered],
            "positives": [index[r] for r in self.positives],
            "simples": [index[r] for r in self.simples],
        }


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


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


def build_root_system(family: str, rank: int) -> RootSystem:
    """Standard realization of the root system of the given family and rank."""
    family = family.upper()
    if family not in SUPPORTED_FAMILIES:
        raise ValueError(f"unsupported family {family!r}; expected one of {SUPPORTED_FAMILIES}")

    if family == "A":
        if rank < 1:
            raise ValueError("A_n needs rank >= 1")
        dim = rank + 1
        e = [_unit(dim, i) for i in range(dim)]
        positives = [vec_sub(e[i], e[j]) for i in range(dim) for j in range(i + 1, dim)]
        simples = [vec_sub(e[i], e[i + 1]) for i in range(rank)]
    elif family in ("B", "C"):
        if rank < 2:
            raise ValueError(f"{family}_n needs rank >= 2")
        dim = rank
        e = [_unit(dim, i) for i in range(dim)]
        positives = []
        for i in range(dim):
            for j in range(i + 1, dim):
                positives.append(vec_sub(e[i], e[j]))
                positives.append(vec_add(e[i], e[j]))
        if family == "B":
            positives.extend(e)
            simples = [vec_sub(e[i], e[i + 1]) for i in range(rank - 1)] + [e[-1]]
        else:
            positives.extend(vec_scale(2, v) for v in e)
            simples = [vec_sub(e[i], e[i + 1]) for i in range(rank - 1)] + [vec_scale(2, e[-1])]
    elif family == "D":
        if rank < 3:
            raise ValueError("D_n needs rank >= 3")
        dim = rank
        e = [_unit(dim, i) for i in range(dim)]
        positives = []
        for i in range(dim):
            for j in range(i + 1, dim):
                positives.append(vec_sub(e[i], e[j]))
                positives.append(vec_add(e[i], e[j]))
        simples = [vec_sub(e[i], e[i + 1]) for i in range(rank - 1)] + [vec_add(e[-2], e[-1])]
    else:  # G2
        if rank != 2:
            raise ValueError("G2 has rank 2")
        dim = 3
        # Simple roots: long a1 = projection of x - y, short a2 = projection of y,
        # on the trace-zero plane of the 3 diagonal coordinates.
        a1 = _vec(1, -1, 0)
        a2 = _vec(Fraction(-1, 3), Fraction(2, 3), Fraction(-1, 3))
        simples = [a1, a2]
        positives = [
            a1,
            a2,
            vec_add(a1, a2),
            vec_add(a1, vec_scale(2, a2)),
            vec_add(a1, vec_scale(3, a2)),
            vec_add(vec_scale(2, a1), vec_scale(3, a2)),
        ]

    roots = frozenset(positives) | frozenset(vec_neg(v) for v in positives)
    rs = RootSystem(
        family=family,
        rank=rank,
        ambient_dim=dim,
        roots=roots,
        positives=tuple(positives),
        simples=tuple(simples),
    )
    # canonical order of positives: by height, then by coordinates
    ordered = sorted(rs.positives, key=lambda r: (rs.height(r), r))
    return RootSystem(
        family=family,
        rank=rank,
        ambient_dim=dim,
        roots=roots,
        positives=tuple(ordered),
        simples=tuple(simples),
    )


def _unit(dim: int, i: int) -> Vector:
    return tuple(Fraction(1) if j == i else Fraction(0) for j in range(dim))


def weyl_order(rs: RootSystem) -> int:
    """|W| in closed form: (n+1)! for A_n, 2^n n! for B_n and C_n,
    2^(n-1) n! for D_n, and 12 for G2."""
    n = rs.rank
    if rs.family == "A":
        return math.factorial(n + 1)
    if rs.family in ("B", "C"):
        return 2 ** n * math.factorial(n)
    if rs.family == "D":
        return 2 ** (n - 1) * math.factorial(n)
    return 12


_INTEGRAL_ROOTS_CACHE: dict = {}


def integral_roots(rs: RootSystem) -> tuple[tuple[Vector, ...],
                                            tuple[tuple[int, ...], ...],
                                            tuple[tuple[int, ...], ...]]:
    """The roots in sorted order, as integer vectors, and the simple
    reflections as permutations of that order (cached per family and rank).

    Returns (roots, integer roots, permutations): the integer vectors are the
    roots times ``rs.denominator()`` (3 for G2, else 1), and permutation ``i``
    sends the position of a root to the position of its image under the
    reflection in simple root ``i``.
    """
    key = (rs.family, rs.rank)
    if key in _INTEGRAL_ROOTS_CACHE:
        return _INTEGRAL_ROOTS_CACHE[key]
    roots = tuple(sorted(rs.roots))
    den = rs.denominator()
    scaled = tuple(tuple(int(c * den) for c in r) for r in roots)
    index = {v: i for i, v in enumerate(scaled)}
    perms = []  # 2 (v, a) / (a, a) is a Cartan integer, so // is exact
    for a in (scaled[roots.index(a)] for a in rs.simples):
        norm = vec_dot(a, a)
        perms.append(tuple(
            index[tuple(x - 2 * vec_dot(v, a) // norm * y
                        for x, y in zip(v, a))]
            for v in scaled))
    table = roots, scaled, tuple(perms)
    _INTEGRAL_ROOTS_CACHE[key] = table
    return table


_COEFFICIENTS_CACHE: dict = {}


def root_coefficients(rs: RootSystem) -> dict[Vector, tuple[int, ...]]:
    """Each root's integer coordinates in the basis of simple roots, in the
    ``integral_roots`` order (cached per family and rank).

    One Gram system over the simple roots is solved, once, for the dual
    basis; each root's coordinates are then integer dot products.
    """
    key = (rs.family, rs.rank)
    if key in _COEFFICIENTS_CACHE:
        return _COEFFICIENTS_CACHE[key]
    roots, scaled, _ = integral_roots(rs)
    simples = [scaled[roots.index(a)] for a in rs.simples]
    n = rs.rank
    # the rows of the inverse Gram matrix give the dual basis w_k, with
    # (alpha_i, w_k) = delta_ik, so a root's k-th coordinate is (root, w_k);
    # the scale factor of the integer vectors cancels in that product
    inverse = _solve([[vec_dot(a, b) for b in simples] for a in simples],
                     [[int(i == k) for i in range(n)] for k in range(n)])
    duals = [[sum(c * a[j] for c, a in zip(row, simples))
              for j in range(rs.ambient_dim)] for row in inverse]
    d = math.lcm(*(x.denominator for w in duals for x in w))
    duals = [[int(x * d) for x in w] for w in duals]
    table = {}
    for r, v in zip(roots, scaled):
        c = [vec_dot(v, w) for w in duals]
        if any(x % d for x in c):
            raise ArithmeticError(f"root {r} of {rs.family}{rs.rank} has "
                                  f"non-integral simple-root coordinates")
        table[r] = tuple(x // d for x in c)
    _COEFFICIENTS_CACHE[key] = table
    return table


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
    """The full Weyl group as (sign, permutation of the ``integral_roots``
    order) pairs."""
    roots, _, perms = integral_roots(rs)
    return reflection_closure(perms, len(roots))


# |W(B6)| = |W(C6)|: every A_n up to A7, B/C up to rank 6 and D up to D6
MAX_BRUHAT_ORDER = 46080


@dataclass(frozen=True)
class BruhatCovers:
    """The Bruhat covers w < w s_beta of a Weyl group, in compressed rows.

    Elements are numbered in ``weyl_group`` order (0 is the identity, ``top``
    the longest element w0).  The covers of element w are the entries
    ``offsets[w]`` to ``offsets[w + 1]`` of ``targets`` (the index of
    w s_beta) and ``roots`` (the index of beta in ``rs.positives``).
    """
    offsets: list
    targets: list
    roots: list
    top: int


_COVERS_CACHE: dict = {}


def bruhat_covers(rs: RootSystem) -> BruhatCovers:
    """The Bruhat cover table of W (cached per family and rank).

    Groups with |W| above ``MAX_BRUHAT_ORDER`` are refused before any
    element is built.
    """
    key = (rs.family, rs.rank)
    if key not in _COVERS_CACHE:
        order = weyl_order(rs)
        if order > MAX_BRUHAT_ORDER:
            raise ValueError(
                f"|W({rs.family}{rs.rank})| = {order} exceeds the "
                f"Bruhat-table bound {MAX_BRUHAT_ORDER} of the Schubert "
                f"oracle; the fixed-point oracle (--oracle weyl) has no such "
                f"bound")
        _COVERS_CACHE[key] = _cover_table(rs)
    return _COVERS_CACHE[key]


def _cover_table(rs: RootSystem) -> BruhatCovers:
    """Build the Bruhat cover table of W.

    W is walked breadth-first by length, as in ``reflection_closure``, with
    only two lengths of root permutations alive at a time.  w -> w s_beta
    raises the length exactly when w(beta) > 0, and is a cover when w s_beta
    has the next length.  The elements of one length are keyed by the
    images of the simple roots, which determine them, and w s_beta sends
    alpha_i to w(s_beta(alpha_i)), so a target is found without composing
    full permutations.
    """
    roots, scaled, perms = integral_roots(rs)
    index = {r: i for i, r in enumerate(roots)}
    position = {v: i for i, v in enumerate(scaled)}
    simple_pos = [index[a] for a in rs.simples]
    positive = [False] * len(roots)
    reflections = []  # (position of beta, positions of s_beta(alpha_i))
    for a in rs.positives:
        pos = index[a]
        positive[pos] = True
        v = scaled[pos]
        norm = vec_dot(v, v)
        reflections.append((pos, [
            position[tuple(x - 2 * vec_dot(scaled[i], v) // norm * y
                           for x, y in zip(scaled[i], v))]
            for i in simple_pos]))
    offsets, targets, betas = [0], [], []
    level, shorter, first, length = [list(range(len(roots)))], set(), 0, 0
    while True:
        keys = {tuple(w[i] for i in simple_pos) for w in level}
        longer = {}  # g w for simple g has length +-1; keep the longer
        for w in level:
            for g in perms:
                u = [g[i] for i in w]
                k = tuple(u[i] for i in simple_pos)
                if k not in shorter:
                    longer[k] = u
        longer = sorted(longer.values())
        after = first + len(level)
        element = {tuple(u[i] for i in simple_pos): after + k
                   for k, u in enumerate(longer)}
        for w in level:
            for b, (pos, image) in enumerate(reflections):
                if positive[w[pos]]:
                    t = element.get(tuple(w[i] for i in image))
                    if t is not None:
                        targets.append(t)
                        betas.append(b)
            offsets.append(len(targets))
        if not longer:
            break
        level, shorter, first, length = longer, keys, after, length + 1
    if after != weyl_order(rs) or len(level) != 1 or length != rs.n_positive:
        raise AssertionError(f"W({rs.family}{rs.rank}) has {after} elements "
                             f"and {len(level)} of the top length {length}")
    return BruhatCovers(offsets, targets, betas, first)
