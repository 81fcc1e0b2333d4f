from dataclasses import replace
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagchern import chern as chern_module
from flagchern import rootsys
from flagchern.chern import (chern_classes, chern_numbers,
                             chern_numbers_schubert,
                             format_cmonomial, monomials_of_weighted_degree,
                             parse_cmonomial, todd_polynomial,
                             weighted_degree)
from flagchern.flagmodel import InvariantACS, enumerate_acs, is_integrable, \
    parse_manifold
from flagchern.groebner import borel_groebner, normal_form
from flagchern.polyring import Polynomial
from flagchern.rootsys import build_root_system
from flagchern.flagmodel import FlagManifold


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
    assert chern_numbers_schubert(flag, acs, [c1n]) == {c1n: (n + 1) ** n}
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
        chern_numbers_schubert(flag, InvariantACS((1, 1, 1, 1)),
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
    assert td.common_denominator() == denominator
    expected = {parse_cmonomial(k, degree): Fraction(v, denominator)
                for k, v in integer_coeffs.items()}
    assert dict(td.coefficients) == expected


@pytest.mark.parametrize("name", [
    "F(6;1,2,3)", "F(5;1,2,2)", "F(4)", "FD(3;1,2)", "SO(5)/T", "Sp(2)/T",
    "G2-long", "G2-short", "SO(8)/U(4)",
])
def test_todd_genus_one_for_integrable_structures(name, weyl_todd_genus):
    flag = parse_manifold(name)
    for acs in enumerate_acs(flag):
        if is_integrable(flag, acs):
            assert weyl_todd_genus(flag, acs) == 1


def test_todd_genus_need_not_be_one_when_non_integrable(weyl_todd_genus):
    flag = parse_manifold("G2-long")
    genera = {acs.signs: weyl_todd_genus(flag, acs)
              for acs in enumerate_acs(flag)}
    assert genera[(1, 1, 1)] == 1
    assert any(g != 1 for g in genera.values())


def chern_classes_nf(flag, acs):
    gb = borel_groebner(flag.rs.family, flag.rs.rank)
    return [normal_form(c, gb) for c in chern_classes(flag, acs)]


def test_printed_chern_classes_rank2_full_flags():
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    so5 = parse_manifold("SO(5)/T")
    acs = InvariantACS((1, 1, 1, 1))
    assert chern_classes_nf(so5, acs) == [
        3 * x + y,
        3 * x * y - 4 * y ** 2,
        -2 * x * y ** 2 - 4 * y ** 3,
        -2 * x * y ** 3,
    ]
    sp2 = parse_manifold("Sp(2)/T")
    assert chern_classes_nf(sp2, acs) == [
        4 * x + 2 * y,
        8 * x * y - 6 * y ** 2,
        -4 * x * y ** 2 - 12 * y ** 3,
        -8 * x * y ** 3,
    ]


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
    b = chern_numbers(flag, acs.conjugate(), [mono])[mono]
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
    assert chern_numbers(flag, acs, monos) \
        == chern_numbers_schubert(flag, acs, monos)


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
    "G2-short", "FD(3;1,2)", "Sp(2)/T",
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
        assert chern_numbers(flag, acs, batch) \
            == chern_numbers_schubert(flag, acs, batch), acs.label()


def test_schubert_batch_builds_the_cover_table_once(monkeypatch):
    # one cover table per (family, rank), however many manifolds,
    # structures and monomials use it
    calls = []
    real = rootsys._cover_table

    def counting(rs):
        calls.append((rs.family, rs.rank))
        return real(rs)

    monkeypatch.setattr(rootsys, "_cover_table", counting)
    monkeypatch.setattr(rootsys, "_COVERS_CACHE", {})
    for name in ("F(5;1,2,2)", "F(5)", "F(5;2,3)"):
        flag = parse_manifold(name)
        n = flag.complex_dim
        monos = monomials_of_weighted_degree(n, n)
        for acs in enumerate_acs(flag)[:3]:
            assert chern_numbers_schubert(flag, acs, monos) \
                == chern_numbers(flag, acs, monos)
    assert calls == [("A", 4)]


def test_schubert_oracle_checks_its_final_state(monkeypatch):
    # a cover table whose top index is wrong leaves the top state on an
    # element other than w0, which the oracle refuses
    flag = parse_manifold("F(4)")
    covers = rootsys.bruhat_covers(flag.rs)
    monkeypatch.setattr(rootsys, "_COVERS_CACHE",
                        {("A", 3): replace(covers, top=covers.top - 1)})
    with pytest.raises(AssertionError, match="w0"):
        chern_numbers_schubert(flag, InvariantACS((1,) * 6),
                               [(6, 0, 0, 0, 0, 0)])


def truncated_power_todd(degree):
    """The Todd polynomial as exp(L) = sum_j L^j / j!, every power of L cut
    back to weighted degree <= degree, then the degree-``degree`` part."""
    n = degree
    series = chern_module._series_log(chern_module._todd_series(n))
    psums = chern_module._power_sums_in_chern(n)
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


@pytest.mark.parametrize("degree", range(1, 11))
def test_todd_polynomial_matches_truncated_power_expansion(degree):
    assert dict(todd_polynomial(degree).coefficients) \
        == truncated_power_todd(degree)


@pytest.mark.parametrize("d", range(1, 15))
def test_todd_genus_of_projective_space_is_one(d):
    # c(CP^d) = (1 + x)^(d+1): c_k = C(d+1, k) x^k, and x^d integrates to 1
    total = Fraction(0)
    for exps, coeff in todd_polynomial(d).coefficients.items():
        term = coeff
        for k, e in enumerate(exps, start=1):
            term *= comb(d + 1, k) ** e
        total += term
    assert total == 1
