import tracemalloc
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagchern import rootsys
from flagchern.rootsys import (MAX_BRUHAT_ORDER, MAX_RANK,
                               build_root_system, bruhat_covers,
                               coroot_pairings, weyl_group, weyl_order)

ORDERS = {
    ("A", 1): 2, ("A", 2): 6, ("A", 3): 24, ("A", 4): 120,
    ("B", 2): 8, ("B", 3): 48, ("C", 3): 48, ("D", 3): 24, ("D", 4): 192,
    ("G2", 2): 12,
}


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def gram(vectors):
    """Inner products of the ambient root vectors, in Fractions."""
    return [[dot(u, v) for v in vectors] for u in vectors]


def textbook_positives(family, rank):
    """The positive roots as textbooks list them: e_i - e_j (i < j) for A;
    e_i - e_j and e_i + e_j, with e_i for B, 2e_i for C and nothing more for
    D; for G2 in the trace-zero plane of R^3, the long roots e_i - e_j and
    the short roots +-(e_i - c), c = (1, 1, 1)/3, on the side of the simple
    roots e_1 - e_2 and e_2 - c."""
    dim = {"A": rank + 1, "G2": 3}.get(family, rank)
    e = [tuple(Fraction(int(i == j)) for j in range(dim)) for i in range(dim)]
    pairs = [(e[i], e[j]) for i in range(dim) for j in range(i + 1, dim)]
    out = {tuple(x - y for x, y in zip(u, v)) for u, v in pairs}
    if family in ("B", "C", "D"):
        out |= {tuple(x + y for x, y in zip(u, v)) for u, v in pairs}
    if family in ("B", "C"):
        out |= {tuple((1 if family == "B" else 2) * x for x in u) for u in e}
    if family == "G2":
        c = Fraction(1, 3)
        out |= {tuple(x - c for x in e[0]), tuple(x - c for x in e[1]),
                tuple(c - x for x in e[2])}
    return out


TEXTBOOK_TYPES = ([("A", n) for n in range(1, 9)]
                  + [(f, n) for f in "BC" for n in range(2, 8)]
                  + [("D", n) for n in range(3, 8)] + [("G2", 2)])


@pytest.mark.parametrize("family,rank", TEXTBOOK_TYPES)
def test_generated_roots_are_the_textbook_roots(family, rank):
    rs = build_root_system(family, rank)
    positives = textbook_positives(family, rank)
    assert {rs.vectors[p] for p in rs.positive} == positives
    assert set(rs.vectors) \
        == positives | {tuple(-x for x in r) for r in positives}
    assert list(rs.vectors) == sorted(rs.vectors)
    assert len(rs.positive) == len(positives)
    # positives by height, then by vector
    assert list(rs.positive) == sorted(
        rs.positive, key=lambda p: (sum(rs.coords[p]), rs.vectors[p]))
    assert build_root_system(family.lower(), rank) is rs


@pytest.mark.parametrize("family,rank", sorted(ORDERS))
def test_weyl_group_order(family, rank):
    rs = build_root_system(family, rank)
    assert len(weyl_group(rs)) == ORDERS[(family, rank)]


@pytest.mark.parametrize("family,rank", [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("B", 2), ("B", 3),
    ("B", 4), ("C", 2), ("C", 3), ("C", 4), ("D", 3), ("D", 4), ("G2", 2),
])
def test_closed_form_weyl_order(family, rank):
    rs = build_root_system(family, rank)
    assert weyl_order(rs) == len(weyl_group(rs))


def closed_form_weyl_order(family, rank):
    """|W| by family: (n+1)! for A_n, 2^n n! for B_n and C_n, 2^(n-1) n!
    for D_n, and 12 for G2."""
    if family == "A":
        return factorial(rank + 1)
    if family in ("B", "C"):
        return 2 ** rank * factorial(rank)
    if family == "D":
        return 2 ** (rank - 1) * factorial(rank)
    return 12


@pytest.mark.parametrize("family,rank", (
    [("A", n) for n in range(1, 13)] + [("B", n) for n in range(2, 11)]
    + [("C", n) for n in range(2, 11)] + [("D", n) for n in range(3, 11)]
    + [("G2", 2)]))
def test_kostant_weyl_order_matches_the_closed_forms(family, rank):
    rs = build_root_system(family, rank)
    assert weyl_order(rs) == closed_form_weyl_order(family, rank)


def test_height_product_refuses_a_fraction():
    rs = build_root_system("A", 2)
    assert rootsys.height_product(rs, rs.positive) == 6
    # the highest root alone, of height 2, gives 3/2
    with pytest.raises(AssertionError, match="3/2 over A2 roots is not an"):
        rootsys.height_product(rs, rs.positive[-1:])


@pytest.mark.parametrize("family,rank", sorted(ORDERS))
def test_integral_roots_and_simple_reflections(family, rank):
    rs = build_root_system(family, rank)
    roots, perms = rs.vectors, rs.reflections
    assert len(perms) == rank
    assert all(rs.index[c] == p for p, c in enumerate(rs.coords))
    # s_a(x) = x - 2 (x, a) / (a, a) a, over Fractions
    for alpha, perm in zip(rs.simples, perms):
        c = 2 / dot(alpha, alpha)
        for i, r in enumerate(roots):
            image = tuple(x - c * dot(r, alpha) * a
                          for x, a in zip(r, alpha))
            assert roots[perm[i]] == image


def test_reflections_and_coroots_are_built_on_first_use(monkeypatch,
                                                       cold_root_systems):
    cold_root_systems()
    rs = build_root_system("B", 4)
    assert "reflections" not in vars(rs) and "coroots" not in vars(rs)
    calls = []
    real = rootsys._coroot

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(rootsys, "_coroot", counted)
    coroots = rs.coroots
    assert rs.coroots is coroots and len(calls) == rs.n_positive == 16
    assert "reflections" not in vars(rs)
    reflections = rs.reflections
    assert rs.reflections is reflections and len(reflections) == 4
    assert build_root_system("B", 4) is rs and len(calls) == 16


@pytest.mark.parametrize("family,rank", sorted(ORDERS))
def test_coroot_pairings_are_cartan_integers(family, rank):
    # <alpha, beta^vee> = 2 (alpha, beta) / (beta, beta) on the ambient
    # vectors, for every root alpha and positive root beta
    rs = build_root_system(family, rank)
    positives = [rs.vectors[p] for p in rs.positive]
    for alpha, c in zip(rs.vectors, rs.coords):
        assert coroot_pairings(rs, c) == [
            2 * dot(alpha, beta) / dot(beta, beta) for beta in positives]


@pytest.mark.parametrize("family,rank,n_pos", [
    ("A", 3, 6), ("A", 4, 10), ("B", 3, 9), ("C", 3, 9), ("D", 4, 12),
    ("G2", 2, 6),
])
def test_positive_root_count(family, rank, n_pos):
    rs = build_root_system(family, rank)
    assert len(rs.positive) == rs.n_positive == n_pos


@pytest.mark.parametrize("family,rank", sorted(ORDERS))
def test_simples_are_positive_and_heights_integral(family, rank):
    rs = build_root_system(family, rank)
    assert set(rs.simple) <= set(rs.positive)
    # the simple roots have the unit coordinate vectors, in order
    assert [rs.coords[p] for p in rs.simple] == [
        tuple(int(i == k) for i in range(rank)) for k in range(rank)]
    for p, coeffs in enumerate(rs.coords):
        assert all(type(c) is int for c in coeffs)
        # every root is positive or negative: one sign throughout
        assert (p in rs.positive) == all(c >= 0 for c in coeffs)
        assert (p in rs.positive) == (sum(coeffs) >= 1)


@pytest.mark.parametrize("family,rank", sorted(ORDERS))
def test_weyl_preserves_root_set(family, rank):
    # each element permutes the roots, commutes with negation and keeps the
    # inner products, as the orthogonal map it stands for does
    rs = build_root_system(family, rank)
    roots = rs.vectors
    n = len(roots)
    inner = gram(roots)
    neg = [roots.index(tuple(-x for x in r)) for r in roots]
    group = weyl_group(rs)
    assert len({w for _, w in group}) == len(group)
    assert group[0] == (1, tuple(range(n)))
    for _, w in group:
        assert sorted(w) == list(range(n))
        assert all(w[neg[i]] == neg[w[i]] for i in range(n))
        assert all(inner[w[i]][w[j]] == inner[i][j]
                   for i in range(n) for j in range(i, n))


@pytest.mark.parametrize("family,rank", sorted(ORDERS))
def test_sign_is_negated_positive_parity(family, rank):
    rs = build_root_system(family, rank)
    positives = set(rs.positive)
    for sign, w in weyl_group(rs):
        negated = sum(1 for i in positives if w[i] not in positives)
        assert sign == (-1) ** negated


def test_reflection_is_involutive_isometry():
    for family, rank in sorted(ORDERS):
        rs = build_root_system(family, rank)
        roots, perms = rs.vectors, rs.reflections
        n = len(roots)
        inner = gram(roots)
        for perm in perms:
            assert sorted(perm) == list(range(n))
            assert all(perm[perm[i]] == i for i in range(n))
            assert any(perm[i] != i for i in range(n))
            assert all(inner[perm[i]][perm[j]] == inner[i][j]
                       for i in range(n) for j in range(i, n))


@given(st.sampled_from(["A", "B", "C", "D", "G2"]),
       st.integers(min_value=2, max_value=3))
@settings(max_examples=20, deadline=None)
def test_root_system_json_round_trip(family, rank):
    if family == "G2":
        rank = 2
    elif family == "D":
        rank = 3
    rs = build_root_system(family, rank)
    data = rs.to_json()
    assert data["family"] == rs.family and data["rank"] == rs.rank
    assert len(data["positives"]) == rs.n_positive


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        build_root_system("E", 8)


def test_one_root_system_per_family_and_rank_and_no_refusal_kept():
    assert build_root_system("b", 3) is build_root_system("B", 3)
    kept = rootsys._root_system.cache_info().currsize
    for family, rank in (("E", 8), ("G2", 3), ("D", 2), ("A", MAX_RANK + 1)):
        with pytest.raises(ValueError):
            build_root_system(family, rank)
    assert rootsys._root_system.cache_info().currsize == kept


def test_a_family_order_formula():
    for n in range(1, 5):
        rs = build_root_system("A", n)
        assert len(weyl_group(rs)) == factorial(n + 1)


@pytest.mark.parametrize("family,rank", sorted(ORDERS))
def test_simple_coefficients_rebuild_every_root(family, rank):
    # sum_i c_i alpha_i == root, with integer c_i, for every root
    rs = build_root_system(family, rank)
    assert len(rs.coords) == len(rs.vectors)
    simples = rs.simples
    for root, c in zip(rs.vectors, rs.coords):
        assert len(c) == rank
        assert all(type(x) is int for x in c)
        rebuilt = tuple(sum(ci * a[j] for ci, a in zip(c, simples))
                        for j in range(rs.ambient_dim))
        assert rebuilt == root


# the degrees of the basic invariants of W
DEGREES = {
    "A": lambda n: list(range(2, n + 2)),
    "B": lambda n: list(range(2, 2 * n + 1, 2)),
    "C": lambda n: list(range(2, 2 * n + 1, 2)),
    "D": lambda n: list(range(2, 2 * n - 1, 2)) + [n],
    "G2": lambda n: [2, 6],
}


def poincare_coefficients(degrees):
    """Coefficients of prod_i [d_i]_q = prod_i (1 + q + ... + q^(d_i - 1))."""
    coeffs = [1]
    for d in degrees:
        out = [0] * (len(coeffs) + d - 1)
        for i, c in enumerate(coeffs):
            for j in range(d):
                out[i + j] += c
        coeffs = out
    return coeffs


@pytest.mark.parametrize("family,rank", [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("B", 2), ("B", 3),
    ("B", 4), ("C", 2), ("C", 3), ("C", 4), ("D", 3), ("D", 4), ("G2", 2),
])
def test_bruhat_cover_table_lengths(family, rank):
    rs = build_root_system(family, rank)
    covers = bruhat_covers(rs)
    n = len(covers.rows)
    assert n == weyl_order(rs)
    # lengths by breadth-first search over the covers from the identity:
    # every cover raises the length by exactly one
    length = {0: 0}
    for w, row in enumerate(covers.rows):  # numbered by length
        for t, _ in row:
            assert length.setdefault(t, length[w] + 1) == length[w] + 1
    assert len(length) == n
    sizes = [0] * (rs.n_positive + 1)
    for l in length.values():
        sizes[l] += 1
    assert sizes == poincare_coefficients(DEGREES[family](rank))
    # w0 is the only element of length |Phi+|, and the only one without
    # a cover above it
    assert [w for w, l in length.items() if l == rs.n_positive] \
        == [covers.top]
    assert [w for w, row in enumerate(covers.rows) if not row] \
        == [covers.top]
    assert {b for row in covers.rows for _, b in row} \
        <= set(range(rs.n_positive))


COVER_TABLE_CASES = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("B", 2), ("B", 3),
    ("B", 4), ("C", 3), ("D", 4), ("D", 5), ("G2", 2),
]


def reflection_permutations(rs):
    """s_beta for each positive root beta, as a permutation of the root
    positions."""
    coords, index = rs.coords, rs.index
    return [tuple(index[tuple(x - sum(c[i] * y for i, y in coroot) * b
                              for x, b in zip(c, coords[p]))]
                  for c in coords)
            for p, coroot in zip(rs.positive, rs.coroots)]


@pytest.mark.parametrize("family,rank", COVER_TABLE_CASES)
def test_bruhat_cover_table_holds_exactly_the_covers(family, rank):
    # the covers by definition, over weyl_group: w < w s_beta with
    # l(w s_beta) = l(w) + 1, where l(w) = #{beta > 0 : w(beta) < 0}
    rs = build_root_system(family, rank)
    coords = rs.coords
    s_beta = reflection_permutations(rs)

    def length(w):
        return sum(sum(coords[w[p]]) < 0 for p in rs.positive)

    def times(w, b):  # the permutation of w s_beta
        return tuple(w[i] for i in s_beta[b])

    elements = [w for _, w in weyl_group(rs)]
    lengths = {w: length(w) for w in elements}
    expected = {(w, times(w, b), b) for w in elements
                for b in range(rs.n_positive)
                if lengths[times(w, b)] == lengths[w] + 1}
    # label the table from its identity along its covers
    covers = bruhat_covers(rs)
    label, got = {0: tuple(range(len(coords)))}, set()
    for w, row in enumerate(covers.rows):  # every cover raises the index
        for t, b in row:
            u = times(label[w], b)
            assert label.setdefault(t, u) == u
            got.add((label[w], u, b))
    assert sorted(label) == list(range(len(elements)))
    assert set(label.values()) == set(elements)
    assert got == expected


@pytest.mark.parametrize("family,rank", COVER_TABLE_CASES)
def test_every_name_lies_within_two_rho(family, rank):
    # the bound the cover table's packed names rest on: every
    # w^-1(2 rho), computed over weyl_group, has |coordinate i| <= (2 rho)_i
    rs = build_root_system(family, rank)
    coords, positive = rs.coords, rs.positive
    two_rho = tuple(map(sum, zip(*(coords[p] for p in positive))))
    names = set()
    for _, w in weyl_group(rs):
        inverse = {image: i for i, image in enumerate(w)}
        names.add(tuple(map(sum, zip(*(coords[inverse[p]]
                                        for p in positive)))))
    assert len(names) == weyl_order(rs)
    for mu in names:
        assert all(-r <= x <= r for x, r in zip(mu, two_rho))
    # the bound is attained: 2 rho and w0(2 rho) = -2 rho are both names
    assert two_rho in names and tuple(-r for r in two_rho) in names


@pytest.mark.parametrize("family,rank", COVER_TABLE_CASES)
def test_longest_element_mirrors_each_length(family, rank):
    # w0 u, the Poincare dual of u, sits at the index that
    # chern_numbers_schubert reads off the length boundaries alone:
    # starts[L - d] + starts[d + 1] - 1 - u for u of length d
    rs = build_root_system(family, rank)
    coords, positive = rs.coords, rs.positive
    s_beta = reflection_permutations(rs)
    covers = bruhat_covers(rs)
    starts, top = covers.starts, rs.n_positive
    # label the table by permutations and lengths along its covers
    label, length = {0: tuple(range(len(coords)))}, {0: 0}
    for w, row in enumerate(covers.rows):
        for t, b in row:
            label.setdefault(t, tuple(label[w][i] for i in s_beta[b]))
            length.setdefault(t, length[w] + 1)
    index = {perm: w for w, perm in label.items()}

    def name(perm):  # w^-1(2 rho) in simple-root coordinates
        inverse = {image: i for i, image in enumerate(perm)}
        return tuple(map(sum, zip(*(coords[inverse[p]] for p in positive))))

    # starts holds the boundaries the covers' lengths imply
    assert len(starts) == top + 2
    assert starts == [sum(l < d for l in length.values())
                      for d in range(top + 2)]
    assert all(starts[length[w]] <= w < starts[length[w] + 1]
               for w in label)
    sizes = [b - a for a, b in zip(starts, starts[1:])]
    assert sizes == sizes[::-1]
    # each length is numbered by name, and w0 negates the name
    names = [name(label[w]) for w in range(len(label))]
    for d in range(top + 1):
        level = names[starts[d]:starts[d + 1]]
        assert level == sorted(level)
    w0 = label[covers.top]
    assert names[covers.top] == tuple(-x for x in names[0])
    for u, perm in label.items():
        d = length[u]
        dual = index[tuple(w0[i] for i in perm)]
        assert names[dual] == tuple(-x for x in names[u])
        assert dual == starts[top - d] + starts[d + 1] - 1 - u


def test_cover_table_memory_per_cover():
    # the rows' price: a (target, root) pair per cover, its slot in the row,
    # and per element the row and its index, about 77 bytes per cover on
    # W(D5) against about 32 for flat lists; 96 leaves room for allocator
    # and Python-version drift but not for a second table held beside them
    rs = build_root_system("D", 5)
    rs.coroots  # built before tracing: not part of the table
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        covers = rootsys._cover_table(rs)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    n_covers = sum(map(len, covers.rows))
    assert n_covers == 11576
    assert held <= 96 * n_covers


def test_bruhat_covers_refuse_large_groups(monkeypatch):
    def unreachable(rs):
        raise AssertionError("cover table built")

    monkeypatch.setattr(rootsys, "_cover_table", unreachable)
    with pytest.raises(ValueError, match="362880"):
        bruhat_covers(build_root_system("A", 8))
    assert MAX_BRUHAT_ORDER >= weyl_order(build_root_system("A", 7))
