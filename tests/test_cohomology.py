import itertools
from dataclasses import replace
from fractions import Fraction
from operator import le

import pytest

from flagchern.cohomology import (CASE_EXAMPLES, CertificateError,
                                  presentation_case, top_class_certificate,
                                  verify_case, verify_claimed_basis,
                                  verify_relations)
from flagchern.groebner import MonomialOrder, buchberger, normal_form, \
    quotient_dimension, top_staircase_monomial
from flagchern.polyring import Polynomial


@pytest.mark.parametrize("tag", CASE_EXAMPLES)
def test_named_cases_verify(tag):
    summary = verify_case(presentation_case(tag))
    assert summary["ok"], summary


def test_a_full_rank6_relations_reduce_to_zero():
    case = presentation_case("a-full:6")
    assert verify_relations(case, case.groebner())


@pytest.mark.parametrize("tag,dim", [
    ("a-full:2", 6), ("a-full:3", 24), ("a-full:4", 120),
    ("b-full:2", 8), ("b-full:3", 48), ("c-full:3", 48),
    ("so6-groebner", 24), ("proj-tangent:1", 6), ("proj-tangent:2", 12),
])
def test_quotient_dimensions(tag, dim):
    case = presentation_case(tag)
    assert quotient_dimension(case.groebner()) == dim


def test_so6_claimed_basis_is_the_computed_reduced_basis():
    case = presentation_case("so6-groebner")
    gb = case.groebner()
    assert verify_claimed_basis(case, gb)
    mono = top_staircase_monomial(gb)
    assert mono == (0, 2, 4)
    lam = top_class_certificate(case, gb, mono)
    assert lam != 0 and lam == Fraction(-2)


def test_certificate_rejects_zero_class():
    case = presentation_case("so6-groebner")
    gb = case.groebner()
    zero_class = case.generators[0]  # an ideal member reduces to 0
    mono = top_staircase_monomial(gb)
    with pytest.raises(CertificateError):
        top_class_certificate(replace(case, top_class=zero_class), gb, mono)


def test_certificate_independent_of_monomial_order():
    base = presentation_case("a-full:3")
    lams = []
    for kind in ("lex", "grlex", "grevlex"):
        order = MonomialOrder(kind)
        gb = buchberger(base.generators, order)
        # reuse the claimed top class against each order's staircase
        r = normal_form(base.top_class, gb)
        assert not r.is_zero()
        lams.append(quotient_dimension(gb))
    assert lams == [24, 24, 24]


def test_su3_full_flag_products():
    # in H*(SU(3)/T) with variables x0,x1,x2: x1*x2^2 represents the top
    # class and x1^3 reduces to zero
    case = presentation_case("a-full:2")
    gb = case.groebner()
    x1 = Polynomial.variable(3, 1)
    x2 = Polynomial.variable(3, 2)
    assert normal_form(x1 ** 3, gb).is_zero()
    top = normal_form(x1 * x2 ** 2, gb)
    assert not top.is_zero()
    assert set(top.terms) == {top_staircase_monomial(gb)}


def test_staircase_count_equals_quotient_dimension():
    # the walker against a listing of the monomials that no leading term
    # divides; the pure powers bound every exponent by the largest one
    for tag in ("a-full:3", "b-full:2", "so6-groebner"):
        case = presentation_case(tag)
        gb = case.groebner()
        lts = gb.leading_terms()
        listed = [m for m in itertools.product(range(max(map(max, lts))),
                                               repeat=case.nvars)
                  if not any(all(map(le, e, m)) for e in lts)]
        assert quotient_dimension(gb) == len(listed) \
            == case.expected_quotient_dim
        top = max(map(sum, listed))
        assert [m for m in listed if sum(m) == top] \
            == [top_staircase_monomial(gb)]


@pytest.mark.parametrize("n", range(1, 7))
def test_chern_recursion_identity(n):
    # r2 is ((x+y)^{n+2} - x^{n+2})/y, written out by the binomial theorem
    r1, r2 = presentation_case(f"proj-tangent:{n}").generators
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    assert r1 == x ** (n + 2)
    assert r2 * y == (x + y) ** (n + 2) - x ** (n + 2)


def test_proj_tangent_top_class():
    case = presentation_case("proj-tangent:3")
    gb = case.groebner()
    # the unique top staircase monomial has the full degree 2n+1 = 7
    mono = top_staircase_monomial(gb)
    assert sum(mono) == 7
    assert top_class_certificate(case, gb, mono) != 0


def test_unknown_case_rejected():
    for tag in ("z-full:3", "bc-full:3"):
        with pytest.raises(ValueError):
            presentation_case(tag)
    with pytest.raises(ValueError):
        presentation_case("a-full")
    # so6-groebner is one fixed case: a parameter is refused, not dropped
    for tag in ("so6-groebner:3", "so6-groebner:"):
        with pytest.raises(ValueError, match="case so6-groebner takes no "
                                             "parameter; got " + repr(tag)):
            presentation_case(tag)
