import random
import re
import tracemalloc
from fractions import Fraction
from math import comb, factorial, prod
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagchern import chern as chern_module
from flagchern import rootsys
from flagchern.chern import (MAX_TODD_DEGREE, chern_numbers,
                             chern_numbers_by, chern_numbers_many,
                             chern_numbers_schubert,
                             format_cmonomial, monomials_of_weighted_degree,
                             parse_cmonomial, todd_genus, todd_polynomial,
                             weighted_degree)
from flagchern.flagmodel import InvariantACS, enumerate_acs, \
    integrable_sign_vectors, parse_manifold
from flagchern.polyring import Polynomial
from flagchern.rootsys import build_root_system
from flagchern.flagmodel import FlagManifold
from flagchern.tables import load_registry, row_monomials


def projective_space(n):
    """CP^n as the A_n flag with all simple roots but the first kept."""
    return FlagManifold(build_root_system("A", n), range(1, n))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_projective_space_oracle(n):
    flag = projective_space(n)
    assert flag.complex_dim == n
    assert flag.euler_characteristic() == n + 1
    acs = InvariantACS((1,) * len(flag.summands()))
    c1n = tuple(n if k == 0 else 0 for k in range(n))
    assert chern_numbers(flag, acs, [c1n]) == {c1n: (n + 1) ** n}
    assert chern_numbers_schubert(flag, [acs], [c1n]) == [{c1n: (n + 1) ** n}]
    top = tuple(1 if k == n - 1 else 0 for k in range(n))
    assert chern_numbers(flag, acs, [top]) == {top: n + 1}


def test_monomial_parsing_round_trip():
    for m in monomials_of_weighted_degree(6, 6):
        assert weighted_degree(m) == 6
        assert parse_cmonomial(format_cmonomial(m), 6) == m
    with pytest.raises(ValueError):
        parse_cmonomial("c7", 6)
    with pytest.raises(ValueError):
        parse_cmonomial("q3", 6)
    # a monomial of the wrong weighted degree parses but is rejected by the
    # integration front ends
    flag = parse_manifold("SO(5)/T")
    with pytest.raises(ValueError):
        chern_numbers_schubert(flag, [InvariantACS((1, 1, 1, 1))],
                               [parse_cmonomial("c4", 4),
                                parse_cmonomial("c1^2", 4)])


# printed-identity regression: the Todd polynomial in low degrees, cleared
# of denominators
TODD_IDENTITIES = {
    5: (1440, {"c1c4": -1, "c1^2c3": 1, "c1c2^2": 3, "c1^3c2": -1}),
    6: (60480, {"c6": 2, "c1c5": -2, "c2c4": -9, "c1^2c4": -5, "c3^2": -1,
                "c1c2c3": 11, "c1^3c3": 5, "c2^3": 10, "c1^2c2^2": 11,
                "c1^4c2": -12, "c1^6": 2}),
    8: (3628800, {"c8": -3, "c1^8": -3, "c1^6c2": 24, "c1^4c2^2": -50,
                  "c1^2c2^3": 8, "c2^4": 21, "c1^5c3": -14, "c1^3c2c3": 26,
                  "c1c2^2c3": 50, "c1^2c3^2": 3, "c2c3^2": -8, "c1^4c4": 14,
                  "c1^2c2c4": -19, "c2^2c4": -34, "c1c3c4": -13, "c4^2": 5,
                  "c1^3c5": -7, "c1c2c5": -16, "c3c5": 3, "c1^2c6": 7,
                  "c2c6": 13, "c1c7": 3}),
    9: (7257600, {"c1^7c2": -3, "c1^5c2^2": 21, "c1^3c2^3": -42,
                  "c1^3c2c4": 26, "c1^6c3": 3, "c1^2c3c4": -13,
                  "c1^5c4": -3, "c1c2^4": 21, "c1c2^2c4": -34, "c1c4^2": 5,
                  "c1^4c5": 3, "c1^4c2c3": -29, "c1^2c2^2c3": 50,
                  "c1^3c3^2": 8, "c1c2c3^2": -8, "c1^2c2c5": -16,
                  "c1c3c5": 3, "c1^3c6": -3, "c1c2c6": 13, "c1^2c7": 3,
                  "c1c8": -3}),
}


@pytest.mark.parametrize("degree", sorted(TODD_IDENTITIES))
def test_todd_identities_regenerated(degree):
    denominator, integer_coeffs = TODD_IDENTITIES[degree]
    td = todd_polynomial(degree)
    assert td.denominator == denominator
    expected = {parse_cmonomial(k, degree): v
                for k, v in integer_coeffs.items()}
    assert dict(td.numerators) == expected


@pytest.mark.parametrize("name", [
    "F(6;1,2,3)", "F(5;1,2,2)", "F(4)", "FD(3;1,2)", "SO(5)/T", "Sp(2)/T",
    "G2-long", "G2-short", "SO(8)/U(4)",
])
def test_todd_genus_one_for_integrable_structures(name, weyl_todd_genus):
    flag = parse_manifold(name)
    integrable = integrable_sign_vectors(flag)
    for acs in enumerate_acs(flag):
        if acs.signs in integrable:
            assert weyl_todd_genus(flag, acs) == 1


def test_todd_genus_need_not_be_one_when_non_integrable(weyl_todd_genus):
    flag = parse_manifold("G2-long")
    genera = {acs.signs: weyl_todd_genus(flag, acs)
              for acs in enumerate_acs(flag)}
    assert genera[(1, 1, 1)] == 1
    assert any(g != 1 for g in genera.values())


def test_todd_genus_is_an_integer_or_refused():
    # td_1 = c1/2 on F(2) = CP^1: c1 = 2 gives 1, and c1 = 3 is no genus
    flag = parse_manifold("F(2)")
    genus = todd_genus(flag, InvariantACS((1,)), {(1,): 2})
    assert genus == 1 and type(genus) is int
    with pytest.raises(ArithmeticError,
                       match=re.escape("Todd genus of F(2) (+) is not an "
                                       "integer: 3/2")):
        todd_genus(flag, InvariantACS((1,)), {(1,): 3})


@given(st.sampled_from(["F(5;1,2,2)", "FD(3;1,2)", "G2-long"]), st.data())
@settings(max_examples=25, deadline=None)
def test_conjugation_parity(name, data):
    flag = parse_manifold(name)
    s = len(flag.summands())
    n = flag.complex_dim
    signs = tuple(data.draw(st.sampled_from([1, -1])) for _ in range(s))
    acs = InvariantACS(signs)
    mono = data.draw(st.sampled_from(monomials_of_weighted_degree(n, n)))
    a = chern_numbers(flag, acs, [mono])[mono]
    conjugate = InvariantACS(tuple(-s for s in signs))
    b = chern_numbers(flag, conjugate, [mono])[mono]
    assert b == (-1) ** n * a


@pytest.mark.parametrize("name,signs", [
    ("F(5;1,2,2)", (1, -1, 1)),
    ("FD(3;1,2)", (1, 1, -1)),
    ("G2-short", (1, -1)),
    ("G2/T", (1, 1, -1, 1, 1, -1)),
])
def test_dual_oracles_agree(name, signs):
    flag = parse_manifold(name)
    acs = InvariantACS(signs)
    n = flag.complex_dim
    monos = monomials_of_weighted_degree(n, n)
    assert [chern_numbers(flag, acs, monos)] \
        == chern_numbers_schubert(flag, [acs], monos)


def test_all_plus_top_class_is_euler_characteristic():
    for name in ("F(4)", "F(5;1,2,2)", "FD(3;1,2)", "G2/T", "SO(7)/U(3)"):
        flag = parse_manifold(name)
        n = flag.complex_dim
        acs = InvariantACS((1,) * len(flag.summands()))
        top = tuple(1 if k == n - 1 else 0 for k in range(n))
        assert chern_numbers(flag, acs, [top])[top] \
            == flag.euler_characteristic()


@pytest.mark.parametrize("name", [
    "F(4)", "F(5)", "F(5;1,2,2)", "FD(4;1,3)", "FD(4;1,1,1,1)", "Sp(3)/T",
    "FB(3;1,1,1)", "SO(5)/T", "SO(7)/U(3)", "SO(8)/U(4)", "G2/T", "G2-long",
    "G2-short", "FD(3;1,2)", "Sp(2)/T", "F(7;1,2,4)", "F(6;1,2,3)",
])
def test_dual_oracles_agree_on_every_structure(name):
    # every structure on c1^N and one more monomial in turn; every monomial
    # on every structure of the censuses up to 63 structures, and on at
    # least 32 structures of the larger ones (F(5) has 512, FD(4;1,1,1,1)
    # 2048, where all 77 monomials everywhere would take minutes)
    flag = parse_manifold(name)
    n = flag.complex_dim
    monos = monomials_of_weighted_degree(n, n)
    structures = enumerate_acs(flag)
    stride = max(1, len(structures) // 32)
    for i, acs in enumerate(structures):
        batch = monos if i % stride == 0 else [monos[0], monos[i % len(monos)]]
        assert [chern_numbers(flag, acs, batch)] \
            == chern_numbers_schubert(flag, [acs], batch), acs.label()


@pytest.mark.parametrize("name", ["FD(4;1,3)", "F(5;1,2,2)", "SO(7)/U(3)",
                                  "G2/T"])
def test_chunked_kernel_agrees_with_schubert(name, monkeypatch):
    # chunks of 7 fixed points: many chunks and a partial last one
    monkeypatch.setattr(chern_module, "FIXED_POINT_CHUNK", 7)
    flag = parse_manifold(name)
    assert flag.euler_characteristic() % 7
    n = flag.complex_dim
    monos = monomials_of_weighted_degree(n, n)
    structures = enumerate_acs(flag, up_to_conjugation=False)
    assert InvariantACS((-1,) * len(flag.summands())) in structures
    picked = structures[::max(1, len(structures) // 8)] + structures[-1:]
    schubert = chern_numbers_schubert(flag, picked, monos)
    for acs, numbers in zip(picked, schubert):
        assert chern_numbers(flag, acs, monos) == numbers, acs.label()
    assert chern_numbers_many(flag, picked, monos) == schubert


def test_kernel_over_more_than_one_chunk():
    # F(6) has chi = 720 fixed points; c1^N = N! 2^N on a full flag
    flag = parse_manifold("F(6)")
    assert flag.euler_characteristic() > chern_module.FIXED_POINT_CHUNK
    n = flag.complex_dim
    acs = InvariantACS((1,) * len(flag.summands()))
    top = tuple(1 if k == n - 1 else 0 for k in range(n))
    c1n = (n,) + (0,) * (n - 1)
    assert chern_numbers(flag, acs, [top, c1n]) \
        == {top: 720, c1n: factorial(15) * 2**15}


def test_kernel_batch_keeps_input_order_and_duplicates():
    flag = parse_manifold("F(4)")
    acs = InvariantACS((1, -1, 1, 1, -1, 1))
    batch = [parse_cmonomial(m, 6)
             for m in ("c6", "c1^6", "c2c4", "c1^6", "c3^2", "c1c2c3", "c6")]
    single = {m: chern_numbers(flag, acs, [m])[m] for m in batch}
    result = chern_numbers(flag, acs, batch)
    assert list(result) == list(dict.fromkeys(batch))
    assert result == single
    assert chern_numbers_schubert(flag, [acs], batch) == [result]


def test_kernel_steps_once_per_distinct_prefix():
    # the 42 monomials of weighted degree 10 have 83 distinct nonempty
    # prefixes of class degrees smallest first, and 138 largest first
    monos = monomials_of_weighted_degree(10, 10)
    smallest = list(
        chern_module._class_sequences(parse_manifold("F(5)"), monos).values())
    largest = [seq[::-1] for seq in smallest]
    for sequences, count in ((smallest, 83), (largest, 138)):
        steps = chern_module._trie_steps(sequences)
        assert len(steps) == count == len(
            {seq[:d] for seq in sequences for d in range(1, len(seq) + 1)})
        # replay: a step extends the prefix held at its depth by k, and
        # each leaf closes its own sequence, once
        path, leaves = [], []
        for depth, k, leaf in steps:
            assert depth <= len(path)
            path[depth:] = [k]
            if leaf is not None:
                assert tuple(path) == sequences[leaf]
                leaves.append(leaf)
        assert sorted(leaves) == list(range(len(sequences)))


def _one_degree_batches(n, seed):
    """Batches whose largest class degree is below N, or that read one
    class degree only: c1^N, c_N and c1^(N-2)c2 alone, and random subsets
    of the degree-N monomials."""
    monos = monomials_of_weighted_degree(n, n)
    rng = random.Random(seed)
    return ([[(n,) + (0,) * (n - 1)], [(0,) * (n - 1) + (1,)],
             [(n - 2, 1) + (0,) * (n - 2)]]
            + [rng.sample(monos, rng.randint(1, min(5, len(monos))))
               for _ in range(6)])


KERNEL_MANIFOLDS = ["F(4)", "G2/T", "FD(4;1,3)", "F(5;1,2,2)", "Sp(3)/T",
                    "SO(7)/U(3)"]


@pytest.mark.parametrize("name", KERNEL_MANIFOLDS)
def test_truncated_lanes_agree_with_schubert(name):
    # a batch that reads only c_1..c_kmax, kmax < N, cuts each packed int
    # to kmax + 1 lanes, so its lanes and groups differ from a full batch's
    flag = parse_manifold(name)
    n = flag.complex_dim
    structures = enumerate_acs(flag, up_to_conjugation=False)
    picked = structures[::max(1, len(structures) // 6)] + structures[-1:]
    for batch in _one_degree_batches(n, n):
        assert chern_numbers_many(flag, picked, batch) \
            == chern_numbers_schubert(flag, picked, batch), batch


@pytest.mark.parametrize("name", KERNEL_MANIFOLDS)
def test_wide_lanes_at_large_sample_points(name, monkeypatch):
    # regular points with root values near 10^6 and 10^9: e_N alone needs
    # far more than 64 bits a lane, and the numbers must not change
    flag = parse_manifold(name)
    n = flag.complex_dim
    rank = flag.rs.rank
    points = [tuple(10**6 + 7 * i for i in range(rank)),
              tuple(10**9 + 3**i for i in range(rank))]
    for point in points:
        assert all(sum(map(mul, c, point)) for c in flag.rs.coords)
        assert max(sum(map(mul, c, point)) for c in flag.rs.coords) ** n \
            > 2**64
    structures = enumerate_acs(flag, up_to_conjugation=False)
    picked = structures[::max(1, len(structures) // 4)]
    batches = _one_degree_batches(n, n + 1) + [
        monomials_of_weighted_degree(n, n)]
    expected = [chern_numbers_many(flag, picked, batch) for batch in batches]
    monkeypatch.setattr(chern_module, "_generic_points",
                        lambda roots: points)
    for batch, numbers in zip(batches, expected):
        assert chern_numbers_many(flag, picked, batch) == numbers
        assert chern_numbers_schubert(flag, picked, batch) == numbers


@pytest.mark.parametrize("oracle", ["weyl", "schubert", "both"])
def test_empty_batch_gives_one_empty_dict_per_structure(oracle):
    flag = parse_manifold("F(4)")
    structures = [InvariantACS((1,) * 6), InvariantACS((1, -1, 1, 1, -1, 1))]
    assert chern_numbers_by(flag, structures[:1], [], oracle) == [{}]
    assert chern_numbers_by(flag, structures, [], oracle) == [{}, {}]
    assert chern_numbers_by(flag, [], [], oracle) == []


@pytest.mark.parametrize("name", ["F(5;1,2,2)", "G2/T"])
def test_shuffled_batch_with_repeats_keeps_its_own_order(name):
    flag = parse_manifold(name)
    n = flag.complex_dim
    monos = monomials_of_weighted_degree(n, n)
    structures = enumerate_acs(flag)[:4]
    expected = chern_numbers_many(flag, structures, monos)
    batch = monos + monos[::3] + [format_cmonomial(m) for m in monos[1::4]]
    random.Random(n).shuffle(batch)
    order = list(dict.fromkeys(parse_cmonomial(m, n) if isinstance(m, str)
                               else m for m in batch))
    for oracle in (chern_numbers_many, chern_numbers_schubert):
        got = oracle(flag, structures, batch)
        assert [list(numbers) for numbers in got] == [order] * len(structures)
        assert got == expected


@pytest.mark.parametrize("name", [
    "F(4)", "F(5;1,2,2)", "F(6;1,2,3)", "G2/T", "G2-long", "SO(7)/U(3)",
    "FD(4;1,3)", "FB(3;1,1,1)", "FC(3;1,1,1)",
])
def test_c1_power_matches_the_borel_hirzebruch_closed_form(name):
    # int c_1^N = N! prod <delta_J, beta^vee> / <rho, beta^vee> over the
    # complementary positive roots beta, where c_1 is the class of delta_J,
    # the sum of the complementary positive roots signed by J (Borel and
    # Hirzebruch, Amer. J. Math. 80, 1958); every structure, conjugates too
    flag = parse_manifold(name)
    rs, n = flag.rs, flag.complex_dim
    c1n = (n,) + (0,) * (n - 1)
    structures = enumerate_acs(flag, up_to_conjugation=False)
    two_rho = [sum(c) for c in zip(*(rs.coords[p] for p in rs.positive))]
    rho_pairings = rootsys.coroot_pairings(rs, two_rho)
    kept = [p not in flag.k_positives for p in rs.positive]
    for acs, numbers in zip(structures,
                            chern_numbers_many(flag, structures, [c1n])):
        delta = [sum(c) for c in zip(*(
            [s * x for x in rs.coords[r]]
            for s, part in zip(acs.signs, flag.summands())
            for r in part.roots))]
        closed = factorial(n) * prod(
            Fraction(2 * d, r) for d, r, k in zip(
                rootsys.coroot_pairings(rs, delta), rho_pairings, kept) if k)
        assert numbers[c1n] == closed, acs.label()


@pytest.mark.parametrize("oracle", [chern_numbers_many,
                                    chern_numbers_schubert])
def test_batch_contract(oracle):
    # several structures of one manifold in, one dict per structure out, in
    # input order, each equal to a call on its structure alone
    flag = parse_manifold("F(4)")
    structures = [InvariantACS((1,) * 6), InvariantACS((1, 1, 1, 1, 1, -1)),
                  InvariantACS((1, 1, -1, -1, -1, -1)), InvariantACS((1,) * 6)]
    batch = [parse_cmonomial(m, 6)
             for m in ("c6", "c1^6", "c2c4", "c1^6", "c3^2", "c6")]
    alone = [oracle(flag, [acs], batch)[0] for acs in structures]
    assert oracle(flag, structures, batch) == alone
    assert oracle(flag, structures[::-1], batch) == alone[::-1]
    # a repeated monomial gets one answer, in first-seen order
    assert all(list(numbers) == list(dict.fromkeys(batch))
               for numbers in alone)
    # three different structures, the first repeated last
    assert len({tuple(n.values()) for n in alone}) == 3
    assert alone[0] == alone[3]
    # no structures, no numbers; the monomials are still checked
    assert oracle(flag, [], batch) == []
    with pytest.raises(ValueError, match="weighted degree 5, expected 6"):
        oracle(flag, [], batch + [parse_cmonomial("c5", 6)])


@pytest.mark.parametrize("oracle", [chern_numbers_many,
                                    chern_numbers_schubert])
@pytest.mark.parametrize("signs", [(1, 1, 1), (1,) * 5, (1, -1) * 3 + (1,)])
def test_both_oracles_refuse_a_wrong_sign_count(oracle, signs):
    # F(4) has 6 summands: a structure needs one sign for each
    flag = parse_manifold("F(4)")
    acs = InvariantACS(signs)
    message = re.escape(f"structure {acs.label()} has {len(signs)} signs, "
                        f"but F(4) has 6 summands")
    for batch in ([acs], [InvariantACS((1,) * 6), acs]):
        with pytest.raises(ValueError, match=message):
            oracle(flag, batch, [(6, 0, 0, 0, 0, 0)])


def test_schubert_builds_the_k_positive_product_once_per_call(monkeypatch):
    # e_K does not depend on the signs: one Schubert call over the four
    # columns of a section builds it once, not once per column
    sec = next(s for s in load_registry()["tables"]["tab2"]["sections"]
               if s["manifold"] == "F(6;1,2,3)")
    flag = parse_manifold(sec["manifold"])
    monos = row_monomials(sec["manifold"], flag, sec["rows"])
    structures = [InvariantACS(tuple(c["signs"])) for c in sec["columns"]]
    assert len(structures) == 4
    chern_module._schubert_top(flag.rs)  # the reference product, cached
    calls = []
    real = chern_module._root_product

    def counting(rs, covers, roots):
        calls.append(roots)
        return real(rs, covers, roots)

    monkeypatch.setattr(chern_module, "_root_product", counting)
    assert chern_numbers_schubert(flag, structures, monos) \
        == chern_numbers_many(flag, structures, monos)
    assert calls == [flag.k_positives]


def test_kernel_guards_refuse_a_missing_fixed_point(monkeypatch):
    # one fixed point short, the sum is no longer a polynomial's integral:
    # the two sample points disagree, and one point alone gives a fraction;
    # each structure is checked, alone or in a section call with others
    flag = parse_manifold("F(4)")
    acs = InvariantACS((1,) * 6)
    several = [acs, InvariantACS((1, -1, 1, 1, -1, 1)),
               InvariantACS((1, 1, -1, -1, 1, 1))]
    c1n = (6, 0, 0, 0, 0, 0)
    short = flag.fixed_points[1:]
    monkeypatch.setattr(flag, "fixed_points", short)
    with pytest.raises(ArithmeticError, match="sample points"):
        chern_numbers(flag, acs, [c1n])
    for batch in [several, several[::-1]] + [[a] for a in several[1:]]:
        with pytest.raises(ArithmeticError, match="sample points"):
            chern_numbers_many(flag, batch, [c1n])
    first = chern_module._generic_points(flag.rs.coords)[0]
    monkeypatch.setattr(chern_module, "_generic_points",
                        lambda roots: [first, first])
    with pytest.raises(ArithmeticError, match="c1\\^6 is not an integer"):
        chern_numbers(flag, acs, [c1n])
    for batch in [several, several[::-1]] + [[a] for a in several[1:]]:
        with pytest.raises(ArithmeticError,
                           match="c1\\^6 is not an integer"):
            chern_numbers_many(flag, batch, [c1n])


def _registry_sections():
    for tid, spec in sorted(load_registry()["tables"].items()):
        for i, sec in enumerate(spec.get("sections") or [spec]):
            yield pytest.param(sec, id=f"{tid}-{i}")


@pytest.mark.parametrize("sec", _registry_sections())
def test_section_call_equals_one_call_per_column(sec):
    # the F(8) sections included: each oracle shares what the signs do not
    # change between the structures, and each result must be its own
    flag = parse_manifold(sec["manifold"])
    monos = row_monomials(sec["manifold"], flag, sec["rows"])
    structures = [InvariantACS(tuple(c["signs"])) for c in sec["columns"]]
    per_column = [chern_numbers(flag, acs, monos) for acs in structures]
    assert all(list(numbers) == monos for numbers in per_column)
    assert chern_numbers_many(flag, structures, monos) == per_column
    assert chern_numbers_many(flag, structures[::-1], monos) \
        == per_column[::-1]
    assert chern_numbers_many(flag, [], monos) == []
    assert chern_numbers_schubert(flag, structures, monos) == per_column


def test_section_call_holds_about_one_structure_of_memory():
    # the kernel builds its chunk-sized lists and groups for one structure
    # at a time, so six columns need the working memory of the largest one.
    # A structure's working set depends on its number of groups (on F(5)
    # the all-plus J has 32 and 108 at the two sample points, other columns
    # up to 120), so the section call is compared with the largest
    # single-structure call.  Each structure adds only its sums and its
    # result dict, a few KB here against well over 100 KB of chunk lists;
    # the result is the caller's, so the peak is taken above what the
    # result holds once the call returns
    sec = load_registry()["tables"]["tabf51"]
    flag = parse_manifold(sec["manifold"])
    monos = row_monomials(sec["manifold"], flag, sec["rows"])
    structures = [InvariantACS(tuple(c["signs"])) for c in sec["columns"]]
    assert len(structures) == 6

    def working_peak(batch):
        chern_numbers_many(flag, batch, monos)  # fill the manifold's caches
        tracemalloc.start()
        try:
            result = chern_numbers_many(flag, batch, monos)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(result) == len(batch)
        return peak - held

    assert working_peak(structures) \
        <= 1.1 * max(working_peak([acs]) for acs in structures)


@pytest.mark.parametrize("name", KERNEL_MANIFOLDS)
def test_kernel_guards_catch_every_single_missing_fixed_point(monkeypatch,
                                                               name):
    # c_N alone never catches a drop: at each fixed point c_N times the
    # K-positive roots is +-prod alpha(x) over all positive roots, so every
    # term is +-1 and a short sum is an integer, the same at both points.
    # The full batch of degree-N monomials must catch each drop.
    flag = parse_manifold(name)
    n = flag.complex_dim
    acs = InvariantACS((1,) * len(flag.summands()))
    monos = monomials_of_weighted_degree(n, n)
    top = (0,) * (n - 1) + (1,)
    fixed = flag.fixed_points
    for drop in range(len(fixed)):
        short = fixed[:drop] + fixed[drop + 1:]
        monkeypatch.setattr(flag, "fixed_points", short)
        assert abs(chern_numbers(flag, acs, [top])[top]) == len(fixed) - 1
        with pytest.raises(ArithmeticError):
            chern_numbers(flag, acs, monos)


def test_sample_points_are_regular_and_distinct():
    # every coordinate is >= 1, so a root, whose simple-root coordinates
    # are all >= 0 or all <= 0 and not all 0, is nonzero at both points;
    # from rank 2 on the two points are not multiples of each other
    for rank in range(1, rootsys.MAX_RANK + 1):
        first, second = chern_module._generic_points([(0,) * rank])
        assert len(first) == len(second) == rank
        assert min(first + second) >= 1 and first != second
        if rank > 1:
            assert any(a * second[0] != b * first[0]
                       for a, b in zip(first, second))
    # the sign pattern, and the points' regularity, checked root by root
    families = [("A", 1), ("B", 2), ("C", 2), ("D", 3)]
    for family, rank in [("G2", 2)] + [(f, r) for f, least in families
                                       for r in range(least, 9)]:
        coords = build_root_system(family, rank).coords
        assert all(min(c) >= 0 or max(c) <= 0 for c in coords)
        for point in chern_module._generic_points(coords):
            assert all(sum(map(mul, c, point)) for c in coords)


def test_schubert_batch_builds_the_cover_table_once(monkeypatch,
                                                   cold_root_systems):
    # one cover table per (family, rank), however many manifolds,
    # structures and monomials use it
    calls = []
    real = rootsys._cover_table

    def counting(rs):
        calls.append((rs.family, rs.rank))
        return real(rs)

    monkeypatch.setattr(rootsys, "_cover_table", counting)
    cold_root_systems()  # fresh, cold tables
    for name in ("F(5;1,2,2)", "F(5)", "F(5;2,3)"):
        flag = parse_manifold(name)
        n = flag.complex_dim
        monos = monomials_of_weighted_degree(n, n)
        structures = enumerate_acs(flag)[:3]
        assert chern_numbers_schubert(flag, structures, monos) \
            == chern_numbers_many(flag, structures, monos)
    assert calls == [("A", 4)]


def test_schubert_oracle_checks_its_final_state(monkeypatch,
                                                cold_root_systems):
    # the duality pairing reads w0 u off the length boundaries: moving an
    # inner boundary, alone or with its mirror image, or dropping the last,
    # is refused before a misplaced state is paired
    flag = parse_manifold("F(4)")
    acs = InvariantACS((1,) * 6)
    c1n = (6, 0, 0, 0, 0, 0)
    real = rootsys.bruhat_covers(flag.rs)
    top = len(real.starts) - 2
    corrupted = [(real.starts[:-1], "l\\(w0\\)")]
    for i in range(1, top + 1):
        for shift in (-1, 1):
            alone = list(real.starts)
            alone[i] += shift
            mirrored = list(alone)
            mirrored[top + 1 - i] -= shift
            corrupted += [(alone, "palindromic"), (mirrored, "length range")]
    for starts, message in corrupted:
        monkeypatch.setattr(chern_module, "bruhat_covers",
                            lambda rs, s=starts: real._replace(starts=s))
        with pytest.raises(AssertionError, match=message):
            chern_numbers_schubert(flag, [acs], [c1n])
    monkeypatch.undo()
    assert chern_numbers_schubert(flag, [acs], [c1n]) \
        == [chern_numbers(flag, acs, [c1n])]

    # a cover table whose top index is wrong misreads the positive-root
    # product, which calibrates every number
    real_table = rootsys._cover_table

    def wrong_top(rs):
        covers = real_table(rs)
        return covers._replace(top=covers.top - 1)

    cold_root_systems()  # fresh, cold tables
    monkeypatch.setattr(rootsys, "_cover_table", wrong_top)
    flag = parse_manifold("F(4)")
    with pytest.raises(AssertionError, match="w0"):
        chern_numbers_schubert(flag, [acs], [c1n])


def test_schubert_oracle_refuses_a_fractional_number(monkeypatch):
    # c1^6 = 6! 2^6 = 46080 on F(4); a calibration 7 times too large
    # leaves 46080/7, which the oracle reports as a reduced fraction
    flag = parse_manifold("F(4)")
    acs = InvariantACS((1,) * 6)
    c1n = (6, 0, 0, 0, 0, 0)
    assert chern_numbers_schubert(flag, [acs], [c1n]) == [{c1n: 46080}]
    monkeypatch.setattr(chern_module, "_schubert_top", lambda rs: 7 * 24)
    with pytest.raises(ArithmeticError,
                       match="^Chern number c1\\^6 is not an integer: 46080/7$"):
        chern_numbers_schubert(flag, [acs], [c1n])


def power_sums_in_chern(n):
    """p_1..p_n as polynomials in c_1..c_n (Newton's identities)."""
    c = [None] + [Polynomial.variable(n, k) for k in range(n)]
    p = [Polynomial.constant(n, 0)]
    for k in range(1, n + 1):
        acc = Polynomial.zero(n)
        for i in range(1, k):
            acc = acc + (-1) ** (i - 1) * c[i] * p[k - i]
        acc = acc + (-1) ** (k - 1) * k * c[k]
        p.append(acc)
    return p[1:]


def log_todd_series(order):
    """Coefficients of log(x / (1 - e^{-x})) up to x^order: the series is
    inverted, then its log taken by l' = q'/q."""
    # (1 - e^{-x})/x = sum_{j>=0} (-1)^j x^j / (j+1)!
    s = [Fraction((-1) ** j, factorial(j + 1)) for j in range(order + 1)]
    q = [Fraction(1)] + [Fraction(0)] * order
    for k in range(1, order + 1):
        q[k] = -sum(s[j] * q[k - j] for j in range(1, k + 1))
    log = [Fraction(0)] * (order + 1)
    # k*l_k = k*q_k - sum_{j=1}^{k-1} j*l_j*q_{k-j}
    for k in range(1, order + 1):
        log[k] = (k * q[k] - sum(j * log[j] * q[k - j]
                                 for j in range(1, k))) / k
    return log


def truncated_power_todd(degree):
    """The Todd polynomial as exp(L) = sum_j L^j / j!, every power of L cut
    back to weighted degree <= degree, then the degree-``degree`` part, in
    ``Polynomial`` arithmetic rather than ``todd_polynomial``'s partitions."""
    n = degree
    series = log_todd_series(n)
    psums = power_sums_in_chern(n)
    L = Polynomial.zero(n)
    for k in range(1, n + 1):
        L = L + series[k] * psums[k - 1]

    def cut(p):
        return Polynomial(n, {e: c for e, c in p.terms.items()
                              if weighted_degree(e) <= n})

    td, power = Polynomial.one(n), Polynomial.one(n)
    for j in range(1, n + 1):
        power = cut(power * L)
        td = td + power * Fraction(1, factorial(j))
    return {e: c for e, c in td.terms.items() if weighted_degree(e) == n}


# up to the largest N of the benchmark's census
@pytest.mark.parametrize("degree", range(1, 13))
def test_todd_polynomial_matches_truncated_power_expansion(degree):
    td = todd_polynomial(degree)
    assert {m: Fraction(a, td.denominator) for m, a in td.numerators.items()} \
        == truncated_power_todd(degree)


def _clear_todd_caches():
    for cached in (todd_polynomial, chern_module._todd_piece,
                   chern_module._power_sum,
                   chern_module._todd_log_coefficient):
        cached.cache_clear()


@pytest.mark.parametrize("order", [
    list(range(1, 13)), list(range(12, 0, -1)),
    random.Random(3).sample(range(1, 13), 12),
    random.Random(4).sample(range(1, 13), 12)])
def test_todd_pieces_are_shared_across_degrees(order):
    # every degree reads its piece of one recurrence grown to the largest
    # degree asked for; in any order it equals a fresh single-degree build
    fresh = {}
    for d in range(1, 13):
        _clear_todd_caches()
        td = todd_polynomial(d)
        fresh[d] = (list(td.numerators.items()), td.denominator)
    _clear_todd_caches()
    try:
        for d in order:
            td = todd_polynomial(d)
            assert (list(td.numerators.items()), td.denominator) \
                == fresh[d], d
    finally:
        _clear_todd_caches()


@pytest.mark.parametrize("d", range(1, MAX_TODD_DEGREE + 1))
def test_todd_genus_of_projective_space_is_one(d):
    # c(CP^d) = (1 + x)^(d+1): c_k = C(d+1, k) x^k, and x^d integrates to 1
    td = todd_polynomial(d)
    total = 0
    for exps, a in td.numerators.items():
        term = a
        for k, e in enumerate(exps, start=1):
            term *= comb(d + 1, k) ** e
        total += term
    assert total == td.denominator


def test_todd_denominators_are_the_hirzebruch_numbers():
    # the common denominator of td_n is prod_p p^floor(n / (p - 1)) over the
    # primes p (OEIS A091137: 1, 2, 12, 24, 720, 1440, 60480, ...)
    for n in range(1, MAX_TODD_DEGREE + 1):
        expected = prod(p ** (n // (p - 1)) for p in range(2, n + 2)
                        if all(p % q for q in range(2, p)))
        assert todd_polynomial(n).denominator == expected, n
