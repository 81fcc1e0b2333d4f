from fractions import Fraction

import pytest

from flagchern.cohomology import (CASE_EXAMPLES, CertificateError,
                                  presentation_case,
                                  staircase_monomials, top_class_certificate,
                                  top_normal_monomial, verify_case,
                                  verify_claimed_basis, verify_relations)
from flagchern.groebner import MonomialOrder, buchberger, normal_form, \
    quotient_dimension
from flagchern.polyring import Polynomial


@pytest.mark.parametrize("tag", CASE_EXAMPLES)
def test_named_cases_verify(tag):
    summary = verify_case(presentation_case(tag))
    assert summary["ok"], summary


def test_a_full_rank6_relations_reduce_to_zero():
    case = presentation_case("a-full:6")
    assert verify_relations(case)


@pytest.mark.parametrize("tag,dim", [
    ("a-full:2", 6), ("a-full:3", 24), ("a-full:4", 120),
    ("b-full:2", 8), ("b-full:3", 48), ("c-full:3", 48),
    ("so6-groebner", 24), ("proj-tangent:1", 6), ("proj-tangent:2", 12),
])
def test_quotient_dimensions(tag, dim):
    case = presentation_case(tag)
    assert quotient_dimension(case.groebner(), case.nvars) == dim


def test_so6_claimed_basis_is_the_computed_reduced_basis():
    case = presentation_case("so6-groebner")
    assert verify_claimed_basis(case)
    lam = top_class_certificate(case)
    assert lam != 0 and lam == Fraction(-2)
    gb = case.groebner()
    assert top_normal_monomial(gb, 3) == (0, 2, 4)


def test_certificate_rejects_zero_class():
    case = presentation_case("so6-groebner")
    gb = case.groebner()
    zero_class = case.generators[0]  # an ideal member reduces to 0
    with pytest.raises(CertificateError):
        top_class_certificate(case, top_class=zero_class, gb=gb)


def test_certificate_independent_of_monomial_order():
    base = presentation_case("a-full:3")
    lams = []
    for kind in ("lex", "grlex", "grevlex"):
        order = MonomialOrder(kind)
        gb = buchberger(base.generators, order)
        # reuse the claimed top class against each order's staircase
        r = normal_form(base.top_class, gb)
        assert not r.is_zero()
        lams.append(len(staircase_monomials(gb, base.nvars)))
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
    assert set(top.terms) == {top_normal_monomial(gb, 3)}


def test_staircase_count_equals_quotient_dimension():
    for tag in ("a-full:3", "b-full:2", "so6-groebner"):
        case = presentation_case(tag)
        gb = case.groebner()
        assert len(staircase_monomials(gb, case.nvars)) \
            == quotient_dimension(gb, case.nvars)


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
    assert sum(top_normal_monomial(gb, 2)) == 7
    assert top_class_certificate(case, gb=gb) != 0


def test_unknown_case_rejected():
    for tag in ("z-full:3", "bc-full:3"):
        with pytest.raises(ValueError):
            presentation_case(tag)
    with pytest.raises(ValueError):
        presentation_case("a-full")
