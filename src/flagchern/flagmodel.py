"""Generalized flag manifolds G/K from (root system, Theta).

A flag manifold is modelled by the root-system data only: the subset Theta of
simple roots generating K, the complementary roots, the isotropy summands
(grouped by equal restriction to the orthogonal complement of span(Theta)),
invariant almost complex structures as sign vectors on the positive T-roots,
the integrability test, and classification up to conjugation and equivalence.

Root membership is read off the integer simple-root coordinates
``RootSystem.coords``, and every root is named by its position in them:
K-roots have coordinate 0 on every removed simple root, and a summand
collects the roots with one coordinate vector on the removed simples.  The
integrability test reads a per-manifold table of root positions saying which
summand parts add up to which (the closedness criterion of Borel and
Hirzebruch).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .rootsys import (
    RootSystem,
    Vector,
    _solve,
    build_root_system,
    check_rank,
    reflect,
    reflection_closure,
    weyl_order,
)

MAX_T_ROOTS = 20
# chi above this is refused before the fixed points are enumerated: F(8)
# has 40320, F(9) already 362880
MAX_FIXED_POINTS = 100_000


@dataclass(frozen=True)
class IsotropySummand:
    t_root: Vector
    roots: tuple[int, ...]  # positions of the positive complementary roots
    coeffs: tuple[int, ...]  # t_root over the kappa-images of removed simples

    @property
    def dim_complex(self) -> int:
        return len(self.roots)

    @property
    def height(self) -> int:
        return sum(self.coeffs)


@dataclass(frozen=True)
class InvariantACS:
    signs: tuple[int, ...]  # one entry of +-1 per positive T-root, canonical order

    def __post_init__(self):
        if not set(self.signs) <= {1, -1}:
            raise ValueError("signs must be +-1")

    def conjugate(self) -> "InvariantACS":
        return InvariantACS(tuple(-s for s in self.signs))

    def label(self) -> str:
        return "(" + ",".join("+" if s == 1 else "-" for s in self.signs) + ")"


class FlagManifold:
    """G/K described by a root system and a subset Theta of the simple roots,
    given by their indices 0..rank-1 in ``rs.simple``.

    The K-roots are the roots whose simple-root coordinates on the removed
    simple roots are all 0; roots are held by their positions in the tables
    of ``rs``.
    """

    def __init__(self, rs: RootSystem, theta):
        theta = tuple(theta)
        for t in theta:
            if not (isinstance(t, int) and 0 <= t < rs.rank):
                raise ValueError(f"{t!r} is not a simple-root index "
                                 f"0..{rs.rank - 1} of {rs.family}{rs.rank}")
        self.rs = rs
        self.removed_indices = tuple(i for i in range(rs.rank)
                                     if i not in theta)
        self.k_roots = frozenset(
            p for p, c in enumerate(rs.coords)
            if not any(c[i] for i in self.removed_indices))
        self.k_positives = tuple(p for p in rs.positive if p in self.k_roots)
        self.complementary_pos = tuple(p for p in rs.positive
                                       if p not in self.k_roots)
        self.complex_dim = len(self.complementary_pos)
        if not self.complex_dim:
            raise ValueError(
                f"Theta holds every simple root of {rs.family}{rs.rank}, so "
                f"G/K is a point with no invariant almost complex structure")
        self._summands: tuple[IsotropySummand, ...] | None = None
        self._cache: dict = {}

    # -- derived structure ----------------------------------------------

    @functools.cached_property
    def w_k(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """W_K as (sign, root permutation) pairs, built on first use; only a
        reference for |W_K| (see ``rootsys``)."""
        return reflection_closure(
            [perm for i, perm in enumerate(self.rs.reflections)
             if i not in self.removed_indices],
            len(self.rs.coords))

    def euler_characteristic(self) -> int:
        """chi = |W| / |W_K|, both orders in closed form.

        |W_K| is Kostant's product of (ht beta + 1) / ht beta over the
        K-positive roots beta.  A K-root has simple-root coordinates only on
        Theta, so its height over Theta is its height in G.  Cached, since
        both oracles check it on every call.
        """
        if "chi" not in self._cache:
            num = den = 1
            for b in self.k_positives:
                h = sum(self.rs.coords[b])
                num *= h + 1
                den *= h
            order_k, rest = divmod(num, den)
            total = weyl_order(self.rs)
            assert rest == 0 and total % order_k == 0
            self._cache["chi"] = total // order_k
        return self._cache["chi"]

    def fixed_points(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """The torus-fixed points, one per coset W_K w of the Weyl group,
        enumerated on first use without building W.  A manifold with more
        than ``MAX_FIXED_POINTS`` of them is refused (ValueError) before any
        is enumerated.

        Each point is (sign(w), images), where images are the root positions
        of w^-1(gamma) for the complementary positive roots gamma in summand
        order, followed by those of w^-1(beta) for the K-positive roots beta.

        Breadth-first search over the orbit of lambda, the sum of the
        complementary positive roots, under the simple reflections.  lambda
        is dominant and fixed by exactly W_K, so w^-1(lambda) tells the
        cosets W_K w apart.  Stepping from w to w*s applies s to lambda's
        image and to every tracked root image, and flips the sign.  lambda
        and its images are held in simple-root coordinates.
        """
        if "fixed_points" in self._cache:
            return self._cache["fixed_points"]
        chi = self.euler_characteristic()
        if chi > MAX_FIXED_POINTS:
            raise ValueError(f"{self.name()} has chi = {chi} fixed points, "
                             f"above the bound {MAX_FIXED_POINTS}")
        rs = self.rs
        tracked = [p for s in self.summands() for p in s.roots]
        tracked += self.k_positives
        lam = tuple(map(sum, zip(*(rs.coords[p]
                                   for p in self.complementary_pos))))
        points = {lam: (1, tuple(tracked))}
        steps = tuple(enumerate(zip(rs.cartan, rs.reflections)))
        frontier = [lam]
        while frontier:
            nxt = []
            for mu in frontier:
                sign, images = points[mu]
                for k, (coroot, perm) in steps:
                    nu = reflect(mu, k, coroot)
                    if nu not in points:
                        points[nu] = (-sign, tuple(perm[i] for i in images))
                        nxt.append(nu)
            frontier = nxt
        if len(points) != chi:
            raise ArithmeticError(f"{len(points)} fixed points on "
                                  f"{self.name()}, expected chi = {chi}")
        self._cache["fixed_points"] = tuple(points.values())
        return self._cache["fixed_points"]

    def summands(self) -> tuple[IsotropySummand, ...]:
        if self._summands is None:
            self._summands = t_root_decomposition(self)
        return self._summands

    @functools.cached_property
    def summand_parts(self) -> dict[int, tuple[int, int]]:
        """(summand position, +1/-1 for the positive/negative part) of every
        complementary root, keyed by the root's position."""
        coords, index = self.rs.coords, self.rs.index
        parts = {}
        for i, s in enumerate(self.summands()):
            for p in s.roots:
                parts[p] = (i, 1)
                parts[index[tuple(-x for x in coords[p])]] = (i, -1)
        return parts

    @functools.cached_property
    def closure_table(self) -> tuple[tuple[int, int, int, int, int, int], ...]:
        """Entries (i, p, j, q, k, r): part p of summand i plus part q of
        summand j is a root in part r of summand k.

        A sign vector s is integrable iff no entry has s_i = p, s_j = q and
        s_k != r.  Sums with a K-root term stay in the part of the other
        term, and sums that land in K stay in K, so neither can break
        closedness and the table leaves them out.  A violation is a triple of
        complementary roots x + y + z = 0 all on the +1 side, which reads as
        any of the sums x + y = -z, x + z = -y and y + z = -x.  Two of the
        three roots have one sign and the third the other, so exactly one of
        those sums adds two roots of the same part sign; only that one is
        kept.
        """
        coords, index = self.rs.coords, self.rs.index
        parts = self.summand_parts
        entries = set()
        for a, part_a in parts.items():
            for b, part_b in parts.items():
                if a < b and part_a[1] == part_b[1]:
                    c = index.get(tuple(x + y for x, y in
                                        zip(coords[a], coords[b])))
                    if c in parts:
                        entries.add(min(part_a, part_b) + max(part_a, part_b)
                                    + parts[c])
        return tuple(sorted(entries))

    def name(self) -> str:
        fam = self.rs.family
        if fam == "G2":
            return {(0, 1): "G2/T", (1,): "G2-long",
                    (0,): "G2-short"}[self.removed_indices]
        tag = {"A": "F", "B": "FB", "C": "FC", "D": "FD"}[fam]
        n = self.rs.rank + 1 if fam == "A" else self.rs.rank
        bounds = [i + 1 for i in self.removed_indices] + ([n] if fam == "A" else [])
        blocks, prev = [], 0
        for b in bounds:
            blocks.append(b - prev)
            prev = b
        if fam == "A" and len(blocks) == n:
            return f"F({n})"
        return f"{tag}({n};{','.join(map(str, blocks))})"

    def __repr__(self):
        return f"FlagManifold({self.name()}, complex_dim={self.complex_dim})"


def t_root_decomposition(flag: FlagManifold) -> tuple[IsotropySummand, ...]:
    """Positive isotropy summands, grouped by equal kappa and canonically ordered.

    kappa restricts a root to the orthogonal complement of span(Theta).  Two
    roots have equal kappa exactly when their difference lies in span(Theta),
    that is when their coordinates on the removed simple roots agree, so the
    summands group the complementary positive roots by those coordinates c.
    The T-root kappa(alpha) = sum_j c_j kappa(alpha_j) is built once per
    summand from the kappa-images of the removed simples alpha_j, which one
    system in the Gram matrix of Theta gives; they are summed as integer
    vectors over a common denominator.

    The order is by height over the simple T-roots (the kappa-images of the
    removed simple roots), ties broken so that multiples of earlier removed
    simples come first.
    """
    rs = flag.rs
    removed = flag.removed_indices
    groups: dict[tuple[int, ...], list[int]] = {}
    for p in flag.complementary_pos:
        c = rs.coords[p]
        groups.setdefault(tuple(c[i] for i in removed), []).append(p)

    simples = rs.simples
    kappas = [simples[i] for i in removed]
    kept = [i for i in range(rs.rank) if i not in removed]
    if kept:
        # the scale of the Gram matrix (9 for G2) cancels in the projection
        proj = _solve([[rs.gram[i][j] for j in kept] for i in kept],
                      [[rs.gram[t][a] for t in kept] for a in removed])
        kappas = [tuple(x - sum(c * simples[t][i] for c, t in zip(cs, kept))
                        for i, x in enumerate(a)) for a, cs in zip(kappas, proj)]
    den = math.lcm(*(x.denominator for k in kappas for x in k))
    # each kappa-image as its nonzero entries (i, den * x)
    sparse = [[(i, int(x * den)) for i, x in enumerate(k) if x] for k in kappas]
    summands = []
    for cvec, roots in groups.items():
        total = [0] * rs.ambient_dim
        for c, k in zip(cvec, sparse):
            if c:
                for i, x in k:
                    total[i] += c * x
        t_root = tuple(Fraction(x, den) for x in total)
        summands.append(IsotropySummand(t_root, tuple(roots), cvec))
    summands.sort(key=lambda s: (s.height, tuple(-c for c in s.coeffs)))
    return tuple(summands)


def enumerate_acs(flag: FlagManifold, up_to_conjugation: bool = True) -> list[InvariantACS]:
    s = len(flag.summands())
    if s > MAX_T_ROOTS:
        raise ValueError(f"{s} positive T-roots exceed the practical bound {MAX_T_ROOTS}")
    out = []
    for signs in itertools.product((1, -1), repeat=s):
        if up_to_conjugation and signs[0] != 1:
            continue
        out.append(InvariantACS(signs))
    return out


def is_integrable(flag: FlagManifold, acs: InvariantACS) -> bool:
    """True iff the K-roots together with the +1 roots form a closed root
    subset: no entry of ``flag.closure_table`` adds two +1 roots to a -1 root."""
    s = acs.signs
    return not any(s[i] == p and s[j] == q and s[k] != r
                   for i, p, j, q, k, r in flag.closure_table)


def inner_summand_actions(flag: FlagManifold) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Actions on the positive T-roots of the Weyl elements that stabilize the
    K-roots setwise (the elements inducing self-equivalences of the manifold).

    Each action is (target index per summand, orientation +-1 per summand):
    summand i maps onto orients[i] * summand targets[i].  One element per
    coset w W_K suffices: W_K maps every summand onto itself with orientation
    +, so an element that stabilizes the K-roots acts like its whole coset.
    The fixed points supply those elements with the images of the tracked
    roots already computed.
    """
    where = flag.summand_parts
    sizes = [s.dim_complex for s in flag.summands()]
    n = flag.complex_dim
    actions = set()
    for _, images in flag.fixed_points():
        if any(i in where for i in images[n:]):
            continue
        targets, orients = [], []
        start = 0
        for size in sizes:
            block = {where[i] for i in images[start:start + size]}
            start += size
            if len(block) != 1:
                raise AssertionError("Weyl element does not permute the isotropy summands")
            i, part = block.pop()
            targets.append(i)
            orients.append(part)
        actions.add((tuple(targets), tuple(orients)))
    return sorted(actions)


@dataclass
class ACSClass:
    representative: InvariantACS
    members: tuple[InvariantACS, ...]
    integrable: bool

    @property
    def size(self) -> int:
        return len(self.members)


def classify_acs(flag: FlagManifold) -> list[ACSClass]:
    """Classes of invariant almost complex structures up to equivalence, with
    conjugation identifying only isomorphic complex structures.

    Two structures are equivalent when a Weyl element stabilizing the K-roots
    carries one to the other; that gives orbits on all 2^s sign vectors.  An
    orbit is then merged with its conjugate (global negation) orbit exactly
    when its structures are integrable, since conjugating an integrable
    structure yields an isomorphic complex manifold, whereas a non-integrable
    structure and its conjugate stay inequivalent (even though their Chern
    numbers agree whenever the complex dimension is even).

    Reported members are the conjugation-reduced census representatives
    (first sign +) contained in the class.
    """
    s = len(flag.summands())
    if s > MAX_T_ROOTS:
        raise ValueError(f"{s} positive T-roots exceed the practical bound {MAX_T_ROOTS}")
    actions = inner_summand_actions(flag)

    def orbit(v):
        # the actions form a group, so the orbit of v is {a.v}
        out = set()
        for targets, orients in actions:
            img = [0] * s
            for i, x in enumerate(v):
                img[targets[i]] = x * orients[i]
            out.add(tuple(img))
        return out

    integrable = {v: is_integrable(flag, InvariantACS(v))
                  for v in itertools.product((1, -1), repeat=s)}
    seen: set[tuple[int, ...]] = set()
    classes = []
    for start in integrable:
        if start in seen:
            continue
        cls = orbit(start)
        if integrable[start]:
            cls |= orbit(tuple(-x for x in start))
        seen |= cls
        canonical = sorted((v for v in cls if v[0] == 1), reverse=True)
        if not canonical:
            canonical = sorted((tuple(-x for x in v) for v in cls), reverse=True)
        members = tuple(InvariantACS(v) for v in canonical)
        verdicts = {integrable[v] for v in cls}
        if len(verdicts) != 1:
            raise AssertionError("equivalence class mixes integrable and non-integrable members")
        classes.append(ACSClass(members[0], members, verdicts.pop()))
    classes.sort(key=lambda c: c.representative.signs, reverse=True)
    return classes


# -- manifold name grammar -------------------------------------------------

_ALIASES = {
    "SO(5)/T": "FB(2;1,1)",
    "SP(2)/T": "FC(2;1,1)",
    "SP(3)/T": "FC(3;1,1,1)",
    "SO(7)/U(3)": "FB(3;3)",
    "SO(8)/U(4)": "FD(4;4)",
    "SO(6)/T": "FD(3;1,1,1)",
}


def parse_manifold(name: str) -> FlagManifold:
    """Build a flag manifold from its textual name.

    Grammar: F(n;n1,...,nk) for type A block flags (F(n) = full flag),
    FB/FC/FD(n;n1,...,nk) for types B/C/D, whose blocks may stop short of n
    to keep the last simple roots in K, and G2/T, G2-long, G2-short.
    """
    text = name.strip()
    upper = text.upper()
    upper = _ALIASES.get(upper, upper)
    if upper == "G2/T":
        return FlagManifold(build_root_system("G2", 2), [])
    if upper in ("G2-LONG", "G2-SHORT"):
        # G2-long keeps the long simple root alpha_1
        return FlagManifold(build_root_system("G2", 2),
                            [0 if upper == "G2-LONG" else 1])

    import re

    m = re.fullmatch(r"(F|FB|FC|FD)\((\d+)(?:;([\d,]+))?\)", upper)
    if not m:
        raise ValueError(f"cannot parse manifold name {name!r}")
    tag, n_text, blocks_text = m.groups()
    n = int(n_text)
    family = {"F": "A", "FB": "B", "FC": "C", "FD": "D"}[tag]
    rank = n - 1 if family == "A" else n
    check_rank(rank)
    if blocks_text is None:
        blocks = [1] * n
    else:
        blocks = [int(b) for b in blocks_text.split(",")]
    exact = family == "A"
    if sum(blocks) > n or exact and sum(blocks) < n or min(blocks) < 1:
        raise ValueError(f"block sizes {blocks} must be positive and sum to "
                         f"{'' if exact else 'at most '}{n}")
    cuts = set(itertools.accumulate(blocks))
    return FlagManifold(build_root_system(family, rank),
                        [i for i in range(rank) if i + 1 not in cuts])
