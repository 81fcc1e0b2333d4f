import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagchern import flagmodel
from flagchern.flagmodel import (ACSClass, InvariantACS, classify_acs,
                                 enumerate_acs, inner_summand_actions,
                                 integrable_sign_vectors, parse_manifold)
from flagchern import rootsys
from flagchern.rootsys import weyl_group, weyl_order
from flagchern.tables import load_registry

EULER = {
    "F(6;1,2,3)": 60, "F(7;1,2,4)": 105, "F(8;1,2,5)": 168,
    "F(8;1,3,4)": 280, "F(4)": 24, "F(5)": 120, "G2/T": 12,
    "SO(5)/T": 8, "FD(4;1,3)": 32, "Sp(3)/T": 48,
    "G2-long": 6, "G2-short": 6,
}


@pytest.mark.parametrize("name,chi", sorted(EULER.items()))
def test_euler_characteristics(name, chi):
    assert parse_manifold(name).euler_characteristic() == chi


def registry_manifolds():
    names = {sec["manifold"] for spec in load_registry()["tables"].values()
             for sec in spec.get("sections") or [spec]}
    assert {"F(8;1,2,5)", "F(8;1,3,4)"} <= names
    return sorted(names)


@pytest.mark.parametrize("name", registry_manifolds())
def test_fixed_point_count_is_euler_characteristic(name):
    flag = parse_manifold(name)
    fixed = flag.fixed_points
    chi = flag.euler_characteristic()
    assert len(fixed) == chi == EULER.get(name, chi)
    assert flag.fixed_points is fixed  # enumerated once per manifold
    # distinct cosets W_K w carry distinct sets w^-1(complementary roots)
    n = flag.complex_dim
    assert len({frozenset(images[:n]) for _, images in fixed}) == chi
    # the identity coset comes first, with the roots themselves
    sign, images = fixed[0]
    tracked = [p for s in flag.summands() for p in s.roots]
    tracked += flag.k_positives
    assert sign == 1
    assert list(images) == tracked


def reference_summand_actions(flag):
    """Actions on the summands of every element of W that stabilizes the
    K-roots, read off the whole Weyl group."""
    parts = reference_parts(flag)
    k_roots = flag.k_roots
    actions = set()
    for _, w in weyl_group(flag.rs):
        if any(w[p] not in k_roots for p in k_roots):
            continue
        targets, orients = [], []
        for s in flag.summands():
            (target, part), = {parts[w[p]] for p in s.roots}
            targets.append(target)
            orients.append(part)
        actions.add((tuple(targets), tuple(orients)))
    return sorted(actions)


@pytest.mark.parametrize("name", [
    "F(4)", "F(5;1,2,2)", "FD(4;1,3)", "FD(4;1,1,1,1)", "Sp(3)/T",
    "FB(3;1,1,1)", "G2-long", "SO(7)/U(3)",
])
def test_inner_summand_actions_match_whole_weyl_group(name):
    flag = parse_manifold(name)
    actions = inner_summand_actions(flag)
    assert actions == reference_summand_actions(flag)
    # a group, so classify_acs may take the orbit of v to be {a.v}
    s = len(flag.summands())
    assert (tuple(range(s)), (1,) * s) in actions
    for ta, oa in actions:
        for tb, ob in actions:
            # summand i -> oa[i] * (b applied to summand ta[i])
            composed = (tuple(tb[ta[i]] for i in range(s)),
                        tuple(oa[i] * ob[ta[i]] for i in range(s)))
            assert composed in actions


@pytest.mark.parametrize("name", registry_manifolds())
def test_closed_form_isotropy_weyl_order(name):
    flag = parse_manifold(name)
    assert flag.euler_characteristic() * len(flag.w_k) == weyl_order(flag.rs)


def test_decompose_counts_chi_without_building_w_k(monkeypatch, capsys):
    from flagchern.cli import main

    def unreachable(*args):
        raise AssertionError("reflection_closure called")

    monkeypatch.setattr(rootsys, "reflection_closure", unreachable)
    monkeypatch.setattr(flagmodel, "reflection_closure", unreachable)
    assert main(["decompose", "F(12;6,6)", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["euler_characteristic"] == 924  # binomial(12, 6)


def test_isotropy_weyl_group_is_built_on_first_use(cold_root_systems):
    # fresh root systems give fresh manifolds, whose w_k no test has built
    cold_root_systems()
    flag = parse_manifold("F(8;1,3,4)")
    assert "w_k" not in vars(flag)
    assert len(flag.w_k) == 1 * 6 * 24
    assert flag.w_k is flag.w_k
    assert len(parse_manifold("F(4)").w_k) == 1


def test_classify_checks_summand_bound_first(monkeypatch):
    def unreachable(flag):
        raise AssertionError("inner_summand_actions called")
    monkeypatch.setattr(flagmodel, "inner_summand_actions", unreachable)
    with pytest.raises(ValueError, match="21 positive T-roots exceed"):
        classify_acs(parse_manifold("F(7)"))


def test_classify_refuses_huge_fixed_point_counts(monkeypatch):
    # 15 summands pass the T-root bound, but chi = 16!/11! = 524160 fixed
    # points would be enumerated
    # (the walk over them starts by reading the simple reflections)
    def unreachable(*args):
        raise AssertionError("a fixed point was enumerated")
    monkeypatch.setattr(rootsys.RootSystem, "reflections",
                        property(unreachable))
    flag = parse_manifold("F(16;1,1,1,1,1,11)")
    assert len(flag.summands()) == 15
    with pytest.raises(ValueError, match="chi = 524160 fixed points, above"):
        classify_acs(flag)


def test_fixed_points_refuse_a_huge_count_before_enumerating(monkeypatch):
    # the bound holds for every caller of fixed_points: F(9) has 9! of them
    def unreachable(*args):
        raise AssertionError("a fixed point was enumerated")
    monkeypatch.setattr(rootsys.RootSystem, "reflections",
                        property(unreachable))
    flag = flagmodel.FlagManifold(rootsys.build_root_system("A", 8), [])
    with pytest.raises(ValueError, match="chi = 362880 fixed points, above"):
        flag.fixed_points


@pytest.mark.parametrize("name,dims", [
    ("F(6;1,2,3)", (2, 3, 6)),     # block products 1*2, 1*3, 2*3
    ("F(7;1,2,4)", (2, 4, 8)),
    ("F(5;1,2,2)", (2, 2, 4)),
    ("FD(3;1,2)", (2, 2, 1)),
    ("G2-long", (2, 1, 2)),
    ("G2-short", (4, 1)),
    ("SO(7)/U(3)", (3, 3)),
    ("SO(8)/U(4)", (6,)),
])
def test_isotropy_summand_dimensions(name, dims):
    flag = parse_manifold(name)
    assert tuple(sorted(s.dim_complex for s in flag.summands())) \
        == tuple(sorted(dims))
    assert sum(s.dim_complex for s in flag.summands()) == flag.complex_dim


@pytest.mark.parametrize("name,count", [
    ("F(6;1,2,3)", 4), ("F(5;1,2,2)", 4), ("FD(3;1,2)", 4),  # s = 3
    ("F(4)", 32),                                            # s = 6
    ("F(5)", 512),                                           # s = 10
])
def test_census_up_to_conjugation(name, count):
    flag = parse_manifold(name)
    acs = enumerate_acs(flag)
    assert len(acs) == count
    assert len(enumerate_acs(flag, up_to_conjugation=False)) == 2 * count
    # conjugation-reduced list contains one of each +/- pair
    seen = set(a.signs for a in acs)
    for a in acs:
        assert a.conjugate().signs not in seen


@pytest.mark.parametrize("name,n_classes", [
    ("F(4)", 4), ("F(5)", 12), ("F(5;1,2,2)", 3),
    ("F(3;1,1,1)", 2), ("F(6;2,2,2)", 2),
])
def test_equivalence_class_counts(name, n_classes):
    assert len(classify_acs(parse_manifold(name))) == n_classes


@pytest.mark.parametrize("name", ["F(3;1,1,1)", "F(6;2,2,2)"])
def test_equal_block_flags_have_integrable_class_of_size_3(name):
    classes = classify_acs(parse_manifold(name))
    by_integrable = {c.integrable: c for c in classes}
    assert set(by_integrable) == {True, False}
    assert by_integrable[True].size == 3
    assert by_integrable[False].size == 1


def test_three_summand_integrability_pattern():
    # on F(n;a,b,c) the structures (+,+,+), (+,-,+)-like reorderings are
    # integrable while the cyclic-looking one is not: exactly 3 of the 4
    # conjugation classes are integrable
    for name in ("F(6;1,2,3)", "F(7;1,2,4)", "F(5;1,2,2)"):
        flag = parse_manifold(name)
        integrable = integrable_sign_vectors(flag)
        verdicts = [a.signs in integrable for a in enumerate_acs(flag)]
        assert sorted(verdicts) == [False, True, True, True]
        assert (1, 1, 1) in integrable


def test_g2_partial_integrability():
    # only the all-plus structure and its conjugate
    assert integrable_sign_vectors(parse_manifold("G2-long")) == {
        (1, 1, 1), (-1, -1, -1)}
    assert integrable_sign_vectors(parse_manifold("G2-short")) == {
        (1, 1), (-1, -1)}


def test_full_flag_all_plus_is_integrable():
    for name in ("F(4)", "F(5)", "G2/T", "SO(5)/T", "Sp(2)/T", "Sp(3)/T"):
        flag = parse_manifold(name)
        assert (1,) * len(flag.summands()) in integrable_sign_vectors(flag)


@given(st.sampled_from(["F(4)", "F(5;1,2,2)", "FD(3;1,2)", "G2/T"]),
       st.data())
@settings(max_examples=40, deadline=None)
def test_integrability_invariant_under_conjugation(name, data):
    flag = parse_manifold(name)
    s = len(flag.summands())
    signs = tuple(data.draw(st.sampled_from([1, -1])) for _ in range(s))
    integrable = integrable_sign_vectors(flag)
    conjugate = InvariantACS(signs).conjugate().signs
    assert (signs in integrable) == (conjugate in integrable)


def test_classes_partition_the_census():
    flag = parse_manifold("F(4)")
    classes = classify_acs(flag)
    members = [m.signs for c in classes for m in c.members]
    assert len(members) == len(set(members)) == 32
    integrable = integrable_sign_vectors(flag)
    for c in classes:
        for m in c.members:
            assert (m.signs in integrable) == c.integrable


def reference_classify(flag):
    """The classification as a sweep over all 2^s sign vectors: each reads
    its verdict from ``integrable_sign_vectors``, and each orbit is built by
    applying every action entry by entry."""
    s = len(flag.summands())
    actions = inner_summand_actions(flag)

    def orbit(v):
        out = set()
        for targets, orients in actions:
            img = [0] * s
            for i, x in enumerate(v):
                img[targets[i]] = x * orients[i]
            out.add(tuple(img))
        return out

    accepted = integrable_sign_vectors(flag)
    integrable = {v: v in accepted
                  for v in itertools.product((1, -1), repeat=s)}
    seen = set()
    classes = []
    for start in integrable:
        if start in seen:
            continue
        cls = orbit(start)
        if integrable[start]:
            cls |= orbit(tuple(-x for x in start))
        seen |= cls
        canonical = sorted((v for v in cls if v[0] == 1), reverse=True)
        if not canonical:  # the class's own vectors, not their negations
            canonical = sorted(cls, reverse=True)
        members = tuple(InvariantACS(v) for v in canonical)
        verdicts = {integrable[v] for v in cls}
        assert len(verdicts) == 1
        classes.append(ACSClass(members[0], members, verdicts.pop()))
    classes.sort(key=lambda c: c.representative.signs, reverse=True)
    return classes


# the manifolds the acs-census benchmark workload classifies, and five more
CLASSIFIED = [
    "F(4)", "G2/T", "G2-long", "G2-short", "SO(7)/U(3)", "F(5;1,2,2)",
    "FD(4;1,3)", "Sp(3)/T", "FB(3;1,1,1)", "F(5)", "FD(4;1,1,1,1)",
    "F(6)", "FC(4;1,1,1,1)", "F(3;1,1,1)", "F(6;2,2,2)", "F(7;1,2,4)",
]


@pytest.mark.parametrize("name", CLASSIFIED)
def test_classify_matches_the_sweep_over_every_sign_vector(name):
    # same classes in the same order, each with the same representative,
    # members in the same order and the same verdict
    flag = parse_manifold(name)
    assert classify_acs(flag) == reference_classify(flag)


@pytest.mark.parametrize("name", [
    "F(7;1,2,4)", "F(6;1,2,3)", "F(8;1,2,5)", "F(8;1,3,4)", "F(9;2,3,4)",
    "FD(5;2,3)", "F(5)", "FD(4;1,1,1,1)",
])
def test_classify_rows_name_their_own_classes(name):
    # a non-integrable class with no vector of first sign + is listed by its
    # own vectors, so it cannot read as its conjugate class
    flag = parse_manifold(name)
    actions = inner_summand_actions(flag)
    classes = classify_acs(flag)
    reps = [c.representative for c in classes]
    assert len(set(reps)) == len(reps)
    for c in classes:
        assert c.representative == c.members[0]
        assert list(c.members) == sorted(c.members, key=lambda m: m.signs,
                                         reverse=True)
        orbit = set()
        for targets, orients in actions:
            image = [0] * len(targets)
            for i, x in enumerate(c.representative.signs):
                image[targets[i]] = orients[i] * x
            orbit.add(tuple(image))
        # integrable classes merge an orbit with its conjugate
        if c.integrable:
            orbit |= {tuple(-x for x in v) for v in orbit}
        assert {m.signs for m in c.members} <= orbit


# manifolds with a class that has no sign vector of first sign +
SIZE_ZERO = ["F(6;1,2,3)", "F(7;1,2,4)", "F(8;1,2,5)", "F(8;1,3,4)",
             "F(9;2,3,4)", "FD(5;2,3)"]


@pytest.mark.parametrize("name", sorted(set(CLASSIFIED) | set(SIZE_ZERO)))
def test_class_sizes_add_up_to_the_census(name):
    # a class's size is its share of the structures up to conjugation; a
    # class with no member of first sign + has size 0
    flag = parse_manifold(name)
    classes = classify_acs(flag)
    assert sum(c.size for c in classes) == 2 ** (len(flag.summands()) - 1)
    assert any(c.size == 0 for c in classes) == (name in SIZE_ZERO)
    sizes = {"F(7;1,2,4)": [1, 1, 1, 1, 0], "FD(5;2,3)": [2, 1, 2, 1, 2, 0]}
    if name in sizes:
        assert [c.size for c in classes] == sizes[name]


@pytest.mark.parametrize("name", CLASSIFIED)
def test_prefix_enumerator_finds_exactly_the_integrable_vectors(name):
    # the pruned growth against a sweep of every sign vector over the same
    # closure table; the table itself is checked against the closedness
    # definition by test_is_integrable_matches_closure_definition
    flag = parse_manifold(name)
    s = len(flag.summands())
    assert integrable_sign_vectors(flag) == {
        v for v in itertools.product((1, -1), repeat=s)
        if not any(v[i] == p and v[j] == q and v[k] != r
                   for i, p, j, q, k, r in flag.closure_table)}


def test_prefix_enumerator_refuses_too_many_summands():
    with pytest.raises(ValueError, match="21 positive T-roots exceed"):
        integrable_sign_vectors(parse_manifold("F(7)"))


def test_classify_refuses_a_class_that_mixes_verdicts(monkeypatch):
    # one entry that only (+,+,-) breaks: integrability is then no longer
    # invariant, and the orbit holding (+,+,-) holds integrable vectors too
    flag = parse_manifold("F(3;1,1,1)")
    monkeypatch.setattr(flag, "closure_table", ((0, 1, 1, 1, 2, 1),))
    assert integrable_sign_vectors(flag) == \
        set(itertools.product((1, -1), repeat=3)) - {(1, 1, -1)}
    with pytest.raises(AssertionError, match="mixes integrable and non-"):
        classify_acs(flag)


def test_parse_manifold_aliases_and_errors():
    assert parse_manifold("F(3;1,1,1)").euler_characteristic() == 6
    assert parse_manifold("SO(8)/U(4)").complex_dim == 6
    assert parse_manifold("SO(7)/U(3)").complex_dim == 6
    with pytest.raises(ValueError):
        parse_manifold("E8/T")
    with pytest.raises(ValueError):
        parse_manifold("F(5;1,2)")  # blocks must sum to n
    with pytest.raises(ValueError, match="sum to at most 3"):
        parse_manifold("FB(3;2,2)")
    # a malformed block list is no name, and a name with no blocks reaches
    # the rank check of its family
    for text, message in [
            ("F(4;,4)", "cannot parse manifold name 'F(4;,4)'"),
            ("F(4;1,,3)", "cannot parse manifold name 'F(4;1,,3)'"),
            ("F(4;1,3,)", "cannot parse manifold name 'F(4;1,3,)'"),
            ("F(0)", "A_n needs rank >= 1"),
            ("FB(0)", "B_n needs rank >= 2"),
            ("F(1;2)", "block sizes [2] must be positive and sum to 1")]:
        with pytest.raises(ValueError) as info:
            parse_manifold(text)
        assert str(info.value) == message


@pytest.mark.parametrize("family,rank", [
    ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4), ("B", 5), ("C", 3),
    ("C", 4), ("D", 3), ("D", 4), ("D", 5), ("D", 6), ("G2", 2),
])
def test_every_name_parses_back(family, rank):
    # every proper Theta, those keeping the last simple roots of B/C/D too
    rs = rootsys.build_root_system(family, rank)
    for size in range(rank):
        for theta in itertools.combinations(range(rank), size):
            flag = flagmodel.FlagManifold(rs, theta)
            back = parse_manifold(flag.name())
            assert back.rs is rs, flag.name()
            assert back.removed_indices == flag.removed_indices, flag.name()
            assert back is flagmodel.flag_manifold(rs, theta), flag.name()


def test_one_manifold_per_root_system_and_theta():
    assert parse_manifold("SO(5)/T") is parse_manifold("FB(2;1,1)")
    assert parse_manifold(" so(5)/t ") is parse_manifold("SO(5)/T")
    assert parse_manifold("Sp(3)/T") is parse_manifold("FC(3;1,1,1)")
    assert parse_manifold("F(4)") is parse_manifold("F(4;1,1,1,1)")
    assert parse_manifold("G2/T") is not parse_manifold("G2-long")
    # Theta is a set of simple-root indices: order and repeats do not count
    rs = rootsys.build_root_system("A", 3)
    assert flagmodel.flag_manifold(rs, [2, 0, 2]) is \
        flagmodel.flag_manifold(rs, range(0, 3, 2)) is \
        parse_manifold("F(4;2,2)")


def test_fresh_root_systems_give_fresh_manifolds(cold_root_systems):
    flag = parse_manifold("F(5;1,2,2)")
    cold_root_systems()
    fresh = parse_manifold("F(5;1,2,2)")
    assert fresh is not flag and fresh.rs is not flag.rs
    assert fresh is parse_manifold("F(5;1,2,2)")
    assert fresh.name() == flag.name()
    assert fresh.summands() == flag.summands()


def test_refused_manifolds_are_not_kept():
    rs = rootsys.build_root_system("B", 3)
    kept = flagmodel._flag_manifold.cache_info().currsize
    for theta in (range(rs.rank), range(rs.rank), [rs.rank]):
        with pytest.raises(ValueError):
            flagmodel.flag_manifold(rs, theta)
    assert flagmodel._flag_manifold.cache_info().currsize == kept


def test_acs_sign_validation():
    with pytest.raises(ValueError):
        InvariantACS((1, 0, 1))


def test_point_manifolds_are_refused():
    # Theta holding every simple root leaves G/K a point: no summand, no
    # structure
    with pytest.raises(ValueError, match="is a point"):
        parse_manifold("F(3;3)")
    rs = rootsys.build_root_system("B", 3)
    with pytest.raises(ValueError, match="is a point"):
        flagmodel.FlagManifold(rs, range(rs.rank))


def test_theta_is_given_by_simple_root_indices():
    rs = rootsys.build_root_system("B", 3)
    assert flagmodel.FlagManifold(rs, [1]).name() == "FB(3;1,2)"
    for theta in ([rs.rank], [-1], [rs.simples[0]]):
        with pytest.raises(ValueError, match="is not a simple-root index"):
            flagmodel.FlagManifold(rs, theta)


# -- reference definitions over Fraction root vectors ------------------------

def theta_projection(flag, v):
    """Orthogonal projection of v onto span(Theta), by Gram-Schmidt."""
    basis = []
    theta = [a for i, a in enumerate(flag.rs.simples)
             if i not in flag.removed_indices]
    for t in theta:
        u = tuple(t)
        for b in basis:
            c = sum(x * y for x, y in zip(u, b)) / sum(x * x for x in b)
            u = tuple(x - c * y for x, y in zip(u, b))
        basis.append(u)
    out = tuple(Fraction(0) for _ in v)
    for b in basis:
        c = sum(x * y for x, y in zip(v, b)) / sum(x * x for x in b)
        out = tuple(x + c * y for x, y in zip(out, b))
    return out


def reference_kappa(flag, v):
    return tuple(x - y for x, y in zip(v, theta_projection(flag, v)))


def reference_k_roots(flag):
    return {r for r in flag.rs.vectors if theta_projection(flag, r) == r}


def reference_parts(flag):
    """(summand, +1/-1) of every complementary root, keyed by its position:
    kappa of the root is the summand's T-root or its negative."""
    t_roots = {}
    for i, s in enumerate(flag.summands()):
        t_roots[s.t_root] = (i, 1)
        t_roots[tuple(-x for x in s.t_root)] = (i, -1)
    k_roots = reference_k_roots(flag)
    return {p: t_roots[reference_kappa(flag, r)]
            for p, r in enumerate(flag.rs.vectors) if r not in k_roots}


def reference_is_integrable(flag, k_roots, signs):
    """The K-roots and the +1 roots form a closed subset of the roots."""
    roots = set(flag.rs.vectors)
    plus = set(k_roots)
    for s, summand in zip(signs, flag.summands()):
        plus.update(tuple(s * x for x in flag.rs.vectors[p])
                    for p in summand.roots)
    return all(tuple(x + y for x, y in zip(a, b)) not in roots
               or tuple(x + y for x, y in zip(a, b)) in plus
               for a in plus for b in plus)


@pytest.mark.parametrize("name", registry_manifolds() + [
    "FB(7;3,4)", "FC(6;2,2,2)", "FD(7;2,5)", "F(12;3,4,5)"])
def test_k_roots_and_summands_match_projection_and_kappa(name):
    flag = parse_manifold(name)
    rs = flag.rs
    k_roots = reference_k_roots(flag)
    assert {rs.vectors[p] for p in flag.k_roots} == k_roots
    positives = {rs.vectors[p] for p in rs.positive}
    assert {rs.vectors[p] for p in flag.k_positives} == positives & k_roots
    assert {rs.vectors[p] for p in flag.complementary_pos} \
        == positives - k_roots
    groups = {}
    for p in flag.complementary_pos:
        groups.setdefault(reference_kappa(flag, rs.vectors[p]), []).append(p)
    summands = flag.summands()
    assert len(summands) == len(groups)
    for s in summands:
        assert list(s.roots) == groups[s.t_root]
        # the coordinates on the removed simples, read off every member
        for p in s.roots:
            c = rs.coords[p]
            assert s.coeffs == tuple(c[i] for i in flag.removed_indices)
    assert flag.summand_parts == reference_parts(flag)


@pytest.mark.parametrize("name", [
    "F(4)", "F(5)", "F(5;1,2,2)", "F(6;1,2,3)", "FD(4;1,3)", "FD(4;1,1,1,1)",
    "Sp(3)/T", "FB(3;1,1,1)", "G2/T", "G2-long", "G2-short", "SO(7)/U(3)",
])
def test_is_integrable_matches_closure_definition(name):
    flag = parse_manifold(name)
    k_roots = reference_k_roots(flag)
    s = len(flag.summands())
    assert integrable_sign_vectors(flag) == {
        signs for signs in itertools.product((1, -1), repeat=s)
        if reference_is_integrable(flag, k_roots, signs)}


@pytest.mark.parametrize("name", [
    "F(4)", "F(5)", "F(6;1,2,3)", "FD(4;1,1,1,1)", "Sp(3)/T", "G2/T",
])
def test_closure_table_holds_each_violation_once(name):
    # the sums a + b = c of complementary roots outside K, read as the
    # violated triple {a, b, -c} of summand parts: the table holds one
    # entry per triple, and each adds two roots of the same part sign
    flag = parse_manifold(name)
    part = {flag.rs.vectors[p]: v for p, v in reference_parts(flag).items()}
    triples = set()
    for a in part:
        for b in part:
            c = tuple(x + y for x, y in zip(a, b))
            if c in part:
                triples.add(frozenset([part[a], part[b],
                                       part[tuple(-x for x in c)]]))
    table = flag.closure_table
    assert all(p == q for _, p, _, q, _, _ in table)
    assert len(table) == len(triples)
    assert {frozenset([(i, p), (j, q), (k, -r)])
            for i, p, j, q, k, r in table} == triples


@pytest.mark.parametrize("name", ["F(6)", "F(6;1,2,3)", "FB(3;1,2)",
                                  "G2-long"])
def test_rootsys_solves_no_linear_system(monkeypatch, cold_root_systems,
                                         name):
    # the roots' simple-root coordinates come from generating the roots, so
    # rootsys solves no system even from cold caches; flagmodel solves one,
    # over Theta, for the kappa-images of the removed simple roots
    def unreachable(*args):
        raise AssertionError("rootsys solved a linear system")

    calls = []
    real = flagmodel._solve

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(rootsys, "_solve", unreachable)
    monkeypatch.setattr(flagmodel, "_solve", counted)
    cold_root_systems()  # fresh, cold tables
    flag = parse_manifold(name)
    flag.summands()
    classify_acs(flag)
    rootsys.bruhat_covers(flag.rs)
    theta = flag.rs.rank - len(flag.removed_indices)
    assert len(calls) == (1 if theta else 0)
