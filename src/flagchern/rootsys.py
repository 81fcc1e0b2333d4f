"""Root systems for families A, B, C, D, G2 and their Weyl groups.

Roots are vectors of rationals in an explicit ambient coordinate space:
A_n lives in n+1 coordinates (roots e_i - e_j), B/C/D_n in n coordinates,
and G2 in 3 coordinates on the trace-zero plane (so some coordinates have
denominator 3).  Weyl group elements are dense rational matrices acting on
the ambient space, each carrying its sign (-1)^length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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


def vec_dot(u: Vector, v: Vector) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def vec_neg(v: Vector) -> Vector:
    return tuple(-a for a in v)


def root_form(root: Vector) -> Polynomial:
    """The root as a degree-1 polynomial on the ambient coordinates."""
    return Polynomial.linear_form(root)


class WeylElement:
    """An orthogonal linear map on the ambient space with its parity sign."""

    __slots__ = ("matrix", "sign", "length")

    def __init__(self, matrix: tuple[tuple[Fraction, ...], ...], sign: int, length: int):
        self.matrix = matrix
        self.sign = sign
        self.length = length

    def apply(self, v: Sequence) -> Vector:
        return tuple(
            sum(row[j] * v[j] for j in range(len(v)) if row[j]) if any(row) else 0
            for row in self.matrix
        )

    def act(self, p: Polynomial) -> Polynomial:
        """Coordinate substitution x -> w(x) on polynomials.

        Chosen so that acting on the linear form of a root gives the linear
        form of the mapped root: act(w, form(a)) = form(w(a)).
        """
        n = len(self.matrix)
        if p.nvars != n:
            raise ValueError("polynomial/matrix dimension mismatch")
        images = [
            Polynomial.linear_form([self.matrix[i][j] for i in range(n)])
            for j in range(n)
        ]
        return p.substitute(images)

    def __eq__(self, other):
        return isinstance(other, WeylElement) and self.matrix == other.matrix

    def __hash__(self):
        return hash(self.matrix)

    def __repr__(self):
        return f"WeylElement(length={self.length}, sign={self.sign:+d})"


@dataclass(frozen=True)
class WeylGroup:
    elements: tuple[WeylElement, ...]

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


@dataclass(frozen=True)
class RootSystem:
    family: str
    rank: int
    ambient_dim: int
    roots: frozenset[Vector]
    positives: tuple[Vector, ...]
    simples: tuple[Vector, ...]
    _weyl_cache: list = field(default_factory=list, compare=False, repr=False)

    @property
    def n_positive(self) -> int:
        return len(self.positives)

    def is_root(self, v: Vector) -> bool:
        return v in self.roots

    def simple_coefficients(self, root: Vector) -> tuple[Fraction, ...]:
        """Coordinates of a root in the basis of simple roots (exact)."""
        gram = [[vec_dot(a, b) for b in self.simples] for a in self.simples]
        rhs = [vec_dot(a, root) for a in self.simples]
        return tuple(_solve(gram, rhs))

    def height(self, root: Vector) -> Fraction:
        return sum(self.simple_coefficients(root), Fraction(0))

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


def _solve(matrix, rhs) -> list[Fraction]:
    """Solve a small square rational linear system by Gaussian elimination."""
    n = len(rhs)
    m = [[Fraction(matrix[i][j]) for j in range(n)] + [Fraction(rhs[i])] for i in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[pivot] = m[pivot], m[col]
        inv = 1 / m[col][col]
        m[col] = [v * inv for v in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return [m[i][n] for i in range(n)]


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


def _simplify(x: Fraction):
    """Use plain ints for integral entries (much faster arithmetic)."""
    return x.numerator if x.denominator == 1 else x


def reflection_matrix(alpha: Vector) -> tuple[tuple, ...]:
    """Matrix of the orthogonal reflection through the hyperplane normal to alpha."""
    n = len(alpha)
    norm = vec_dot(alpha, alpha)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            v = Fraction(1) if i == j else Fraction(0)
            row.append(_simplify(v - 2 * alpha[i] * alpha[j] / norm))
        rows.append(tuple(row))
    return tuple(rows)


def _matmul(a, b):
    n = len(a)
    # rows of a are sparse for the signed-permutation families; skip zeros
    rows = []
    for i in range(n):
        arow = a[i]
        nz = [j for j in range(n) if arow[j]]
        rows.append(tuple(
            sum(arow[j] * b[j][k] for j in nz) for k in range(n)
        ))
    return tuple(rows)


def _identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def weyl_group_from_reflections(generators: Sequence, ambient_dim: int) -> WeylGroup:
    """Closure of the given reflection matrices, breadth-first by word length.

    Within each length level, elements are ordered by their matrix entries,
    which makes the element list deterministic.
    """
    ident = _identity(ambient_dim)
    seen = {ident}
    levels = [[ident]]
    while levels[-1]:
        nxt = set()
        for m in levels[-1]:
            for g in generators:
                prod = _matmul(g, m)
                if prod not in seen:
                    nxt.add(prod)
        seen.update(nxt)
        levels.append(sorted(nxt))
    elements = []
    for length, level in enumerate(levels):
        sign = 1 if length % 2 == 0 else -1
        for m in level:
            elements.append(WeylElement(m, sign, length))
    return WeylGroup(tuple(elements))


def weyl_group(rs: RootSystem) -> WeylGroup:
    """The full Weyl group of the root system (cached on the root system)."""
    if rs._weyl_cache:
        return rs._weyl_cache[0]
    gens = [reflection_matrix(a) for a in rs.simples]
    w = weyl_group_from_reflections(gens, rs.ambient_dim)
    rs._weyl_cache.append(w)
    return w


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


def integral_roots(rs: RootSystem) -> tuple[tuple[Vector, ...],
                                            tuple[tuple[int, ...], ...],
                                            tuple[tuple[int, ...], ...]]:
    """The roots in sorted order, as integer vectors, and the simple
    reflections as permutations of that order.

    Returns (roots, integer roots, permutations): the integer vectors are the
    roots times ``rs.denominator()`` (3 for G2, else 1), and permutation ``i`` sends the position of a root to the
    position of its image under the reflection in simple root ``i``.
    """
    roots = tuple(sorted(rs.roots))
    den = rs.denominator()
    index = {r: i for i, r in enumerate(roots)}
    perms = []
    for a in rs.simples:
        norm = vec_dot(a, a)
        perms.append(tuple(
            index[vec_sub(r, vec_scale(2 * vec_dot(r, a) / norm, a))]
            for r in roots))
    scaled = tuple(tuple(int(c * den) for c in r) for r in roots)
    return roots, scaled, tuple(perms)


def act(w: WeylElement, p: Polynomial) -> Polynomial:
    return w.act(p)


def count_negated_positives(rs: RootSystem, w: WeylElement) -> int:
    """Number of positive roots that w sends to negative roots."""
    positives = set(rs.positives)
    count = 0
    for a in rs.positives:
        img = w.apply(a)
        if img not in positives:
            if vec_neg(img) not in positives:
                raise ValueError("matrix does not preserve the root system")
            count += 1
    return count
