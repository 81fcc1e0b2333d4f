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

``flag_manifold`` builds one ``FlagManifold`` per root system and Theta and
hands the same object to every later caller in the process, so its derived
tables (summands, fixed points, closure table) are built on first use and
shared by every command.  Nothing mutates a manifold after construction.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter, neg, sub

from .rootsys import (
    RootSystem,
    Vector,
    _solve,
    build_root_system,
    check_rank,
    height_product,
    reflection_closure,
)

# summands above this are refused before any sign vector is built.  At
# s = 20, FD(5;1,1,1,1,1) has 2^19 structures up to conjugation:
# `acs classify --format json` takes 9.8-11.8 s and 310 MiB (classify_acs
# alone 6.3-7.0 s), and `acs list --format json` 11.4-14.0 s and 267 MiB,
# mostly writing the JSON (child process, 2 vCPUs, Python 3.11.7)
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
        if not {1, -1}.issuperset(self.signs):
            raise ValueError("signs must be +-1")

    def conjugate(self) -> "InvariantACS":
        return InvariantACS(tuple(-s for s in self.signs))

    def label(self) -> str:
        return "(" + ",".join(map(_SIGN_TEXT.__getitem__, self.signs)) + ")"


_SIGN_TEXT = {1: "+", -1: "-"}


class FlagManifold:
    """G/K described by a root system and a subset Theta of the simple roots,
    given by their indices 0..rank-1 in ``rs.simple``.  Build it with
    ``flag_manifold``, which shares one object per root system and Theta.

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
        """chi = |W| / |W_K|, Kostant's product of (ht beta + 1) / ht beta
        over the complementary positive roots beta.

        Both orders are that product (``rootsys.height_product``), over the
        positive roots of G and of K.  A K-root has simple-root coordinates
        only on Theta, so its height in K is its height in G, and the
        K-positive factors cancel.
        """
        return height_product(self.rs, self.complementary_pos)

    @functools.cached_property
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
        and its images are held by their Dynkin labels <mu, alpha_j^vee>:
        s_k subtracts <mu, alpha_k^vee> times the labels of alpha_k.  Only a
        positive label k leads on, to a coset whose shortest element is one
        reflection longer; s_k fixes mu on a label 0 and leads back to the
        previous level on a negative one, so neither step is taken.
        """
        chi = self.euler_characteristic()
        if chi > MAX_FIXED_POINTS:
            raise ValueError(f"{self.name()} has chi = {chi} fixed points, "
                             f"above the bound {MAX_FIXED_POINTS}")
        rs = self.rs
        tracked = [p for s in self.summands() for p in s.roots]
        tracked += self.k_positives
        lam = tuple(map(sum, zip(*(rs.coords[p]
                                   for p in self.complementary_pos))))
        # rows[k][j] = <alpha_k, alpha_j^vee>, the labels of alpha_k
        rows = [[0] * rs.rank for _ in range(rs.rank)]
        for j, coroot in enumerate(rs.cartan):
            for k, x in coroot:
                rows[k][j] = x
        labels = tuple(sum(lam[i] * x for i, x in coroot)
                       for coroot in rs.cartan)
        points = {labels: (1, tuple(tracked))}
        steps = tuple(zip(range(rs.rank), rows, rs.reflections))
        frontier = [labels]
        while frontier:
            nxt = []
            for mu in frontier:
                sign, images = points[mu]
                for k, row, perm in steps:
                    c = mu[k]
                    if c > 0:
                        nu = tuple(map(sub, mu, map(c.__mul__, row)))
                        if nu not in points:
                            points[nu] = (-sign,
                                          tuple(map(perm.__getitem__, images)))
                            nxt.append(nu)
            frontier = nxt
        if len(points) != chi:
            raise ArithmeticError(f"{len(points)} fixed points on "
                                  f"{self.name()}, expected chi = {chi}")
        return tuple(points.values())

    def summands(self) -> tuple[IsotropySummand, ...]:
        return self._summands

    @functools.cached_property
    def _summands(self) -> tuple[IsotropySummand, ...]:
        return t_root_decomposition(self)

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
            return _G2_NAMES[self.removed_indices]
        n = self.rs.rank + 1 if fam == "A" else self.rs.rank
        cuts = [i + 1 for i in self.removed_indices] + ([n] if fam == "A" else [])
        if fam == "A" and len(cuts) == n:
            return f"F({n})"
        blocks = map(sub, cuts, [0] + cuts[:-1])
        return f"{_TAGS[fam]}({n};{','.join(map(str, blocks))})"

    def __repr__(self):
        return f"FlagManifold({self.name()}, complex_dim={self.complex_dim})"


def flag_manifold(rs: RootSystem, theta) -> FlagManifold:
    """The flag manifold of ``rs`` and Theta: one object per root system and
    set Theta in the process, whose tables are built on first use and then
    shared.  A refusal raises each time; nothing is kept for it."""
    return _flag_manifold(rs, tuple(sorted(set(theta))))


@functools.cache
def _flag_manifold(rs: RootSystem, theta: tuple[int, ...]) -> FlagManifold:
    # keyed on the RootSystem object itself (compared by identity), so a
    # fresh root system gives a fresh manifold
    return FlagManifold(rs, theta)


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


def _summand_count(flag: FlagManifold) -> int:
    """The number s of summands, refused (ValueError) above ``MAX_T_ROOTS``."""
    s = len(flag.summands())
    if s > MAX_T_ROOTS:
        raise ValueError(f"{s} positive T-roots exceed the practical bound {MAX_T_ROOTS}")
    return s


def enumerate_acs(flag: FlagManifold, up_to_conjugation: bool = True) -> list[InvariantACS]:
    # up to conjugation, the first sign is +
    head = (1,) if up_to_conjugation else ()
    return [InvariantACS(head + rest) for rest in itertools.product(
        (1, -1), repeat=_summand_count(flag) - len(head))]


def is_integrable(flag: FlagManifold, acs: InvariantACS) -> bool:
    """True iff the K-roots together with the +1 roots form a closed root
    subset: no entry of ``flag.closure_table`` adds two +1 roots to a -1 root."""
    s = acs.signs
    return not any(s[i] == p and s[j] == q and s[k] != r
                   for i, p, j, q, k, r in flag.closure_table)


def integrable_sign_vectors(flag: FlagManifold) -> set[tuple[int, ...]]:
    """Every sign vector that ``is_integrable`` accepts, conjugates included.

    The vectors are grown one summand at a time, and each entry of
    ``flag.closure_table`` is tested as soon as its largest summand index is
    set; a prefix that breaks one is dropped with all its extensions.  So
    only integrable prefixes are ever extended, rather than all 2^s vectors
    being tested.  More than ``MAX_T_ROOTS`` summands are refused
    (ValueError), as for ``enumerate_acs``.
    """
    s = _summand_count(flag)
    entries: list[list[tuple[int, ...]]] = [[] for _ in range(s)]
    for entry in flag.closure_table:
        entries[max(entry[0], entry[2], entry[4])].append(entry)
    prefixes: list[tuple[int, ...]] = [()]
    for checks in entries:
        grown = []
        for v in prefixes:
            for w in (v + (1,), v + (-1,)):
                if not any(w[i] == p and w[j] == q and w[k] != r
                           for i, p, j, q, k, r in checks):
                    grown.append(w)
        prefixes = grown
    return set(prefixes)


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
    part_of = where.__getitem__
    for _, images in flag.fixed_points:
        if not where.keys().isdisjoint(images[n:]):
            continue
        targets, orients = [], []
        start = 0
        for size in sizes:
            block = set(map(part_of, images[start:start + size]))
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
        """The class's share of the 2^(s-1) structures up to conjugation:
        its members with first sign +, 0 when it lists only its own
        vectors of first sign -."""
        return sum(m.signs[0] == 1 for m in self.members)


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

    The integrable vectors come from ``integrable_sign_vectors``, which
    extends sign prefixes and drops each one that breaks closedness, so no
    vector is tested on its own.  The orbits then take every sign vector
    once: each action of ``inner_summand_actions`` is one ``itemgetter`` on
    v followed by -v, and each orbit is removed from the set of vectors not
    yet placed.  A class must lie wholly inside or wholly outside the
    integrable set, or AssertionError is raised.

    Reported members are the class's vectors with first sign + (the census
    up to conjugation), or all its vectors when it has none, largest first;
    the first member is the representative.
    """
    s = _summand_count(flag)
    getters = []
    for targets, orients in inner_summand_actions(flag):
        # image[targets[i]] = orients[i] * v[i], read off v + (-v)
        picks = [0] * s
        for i, (t, o) in enumerate(zip(targets, orients)):
            picks[t] = i if o > 0 else s + i
        # one index would make itemgetter return an int, a slice a 1-tuple
        getters.append(itemgetter(*picks) if s > 1
                       else itemgetter(slice(picks[0], picks[0] + 1)))

    def orbit(v, minus):
        # the actions form a group, so the orbit of v is {a.v}
        both = v + minus
        return {get(both) for get in getters}

    integrable = integrable_sign_vectors(flag)
    unplaced = set(itertools.product((1, -1), repeat=s))
    classes = []
    while unplaced:
        start = unplaced.pop()
        minus = tuple(map(neg, start))
        cls = orbit(start, minus)
        merged = start in integrable
        if merged:
            cls |= orbit(minus, start)
        if not (cls <= integrable if merged else cls.isdisjoint(integrable)):
            raise AssertionError("equivalence class mixes integrable and non-integrable members")
        unplaced -= cls
        # a class with no vector of first sign + lists its own vectors
        members = tuple(map(InvariantACS, sorted(
            [v for v in cls if v[0] == 1] or cls, reverse=True)))
        classes.append(ACSClass(members[0], members, merged))
    classes.sort(key=lambda c: c.representative.signs, reverse=True)
    return classes


# -- manifold name grammar -------------------------------------------------

# the name tag of each classical family: <tag>(n;n1,...,nk), the blocks
# cutting the simple roots of A_{n-1} (F) or of B_n, C_n, D_n
_TAGS = {"A": "F", "B": "FB", "C": "FC", "D": "FD"}
_BLOCK_NAME = re.compile(
    rf"({'|'.join(_TAGS.values())})\((\d+)(?:;(\d+(?:,\d+)*))?\)")
# G2 names by the removed simple-root indices; G2-long keeps the long simple
# root alpha_1
_G2_NAMES = {(0, 1): "G2/T", (1,): "G2-long", (0,): "G2-short"}

_ALIASES = {
    "SO(5)/T": "FB(2;1,1)",
    "SP(2)/T": "FC(2;1,1)",
    "SP(3)/T": "FC(3;1,1,1)",
    "SO(7)/U(3)": "FB(3;3)",
    "SO(8)/U(4)": "FD(4;4)",
    "SO(6)/T": "FD(3;1,1,1)",
}


def parse_manifold(name: str) -> FlagManifold:
    """The flag manifold named by ``name``, from ``flag_manifold``: every
    spelling and alias of one manifold gives the same object.

    Grammar: F(n;n1,...,nk) for type A block flags (F(n) = full flag),
    FB/FC/FD(n;n1,...,nk) for types B/C/D, whose blocks may stop short of n
    to keep the last simple roots in K, G2/T, G2-long, G2-short, and the
    aliases of ``_ALIASES``; letter case does not matter.
    """
    text = name.strip().upper()
    upper = _ALIASES.get(text, text)
    for removed, g2_name in _G2_NAMES.items():
        if upper == g2_name.upper():
            return flag_manifold(build_root_system("G2", 2),
                                 [i for i in (0, 1) if i not in removed])
    m = _BLOCK_NAME.fullmatch(upper)
    if not m:
        raise ValueError(f"cannot parse manifold name {name!r}")
    tag, n_text, blocks_text = m.groups()
    n = int(n_text)
    family = next(fam for fam, t in _TAGS.items() if t == tag)
    rank = n - 1 if family == "A" else n
    check_rank(rank)
    if blocks_text is None:
        blocks = [1] * n
    else:
        blocks = [int(b) for b in blocks_text.split(",")]
    exact = family == "A"
    if sum(blocks) > n or exact and sum(blocks) < n or 0 in blocks:
        raise ValueError(f"block sizes {blocks} must be positive and sum to "
                         f"{'' if exact else 'at most '}{n}")
    cuts = set(itertools.accumulate(blocks))
    return flag_manifold(build_root_system(family, rank),
                         [i for i in range(rank) if i + 1 not in cuts])
