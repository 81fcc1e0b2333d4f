import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagchern.groebner import (GroebnerBasis, MonomialOrder, borel_generators,
                                buchberger, normal_form, quotient_dimension,
                                s_polynomial, borel_groebner)
from flagchern.polyring import Polynomial


def _vars(n):
    return [Polynomial.variable(n, i) for i in range(n)]


def lex3():
    return MonomialOrder("lex", (0, 1, 2))


def test_d3_borel_basis_is_the_recorded_one():
    # generators: the two even power sums and the product of the variables
    x, y, z = _vars(3)
    gens = [x ** 2 + y ** 2 + z ** 2,
            x ** 4 + y ** 4 + z ** 4,
            x * y * z]
    gb = buchberger(gens, lex3())
    expected = {
        x ** 2 + y ** 2 + z ** 2,
        x * y * z,
        y ** 4 + y ** 2 * z ** 2 + z ** 4,
        y ** 3 * z + y * z ** 3,
        z ** 5,
    }
    assert set(gb.generators) == expected
    assert quotient_dimension(gb, 3) == 24


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_a_full_quotient_dimension(n):
    gb = borel_groebner("A", n)
    assert quotient_dimension(gb, n + 1) == factorial(n + 1)


@pytest.mark.parametrize("family,n", [("B", 2), ("B", 3), ("C", 2), ("C", 3)])
def test_bc_full_quotient_dimension(family, n):
    gb = borel_groebner(family, n)
    assert quotient_dimension(gb, n) == 2 ** n * factorial(n)


def test_g2_quotient_dimension_is_weyl_order():
    gb = borel_groebner("G2", 2)
    assert quotient_dimension(gb, 3) == 12


def test_normal_form_is_zero_exactly_on_ideal_members():
    gens = borel_generators("A", 2)
    gb = buchberger(gens, lex3())
    x, y, z = _vars(3)
    for g in gens:
        assert normal_form(g, gb).is_zero()
        assert normal_form(g * (x + 2 * y), gb).is_zero()
    assert not normal_form(x * y ** 2, gb).is_zero()


def poly_strategy(nvars=3):
    exps = st.tuples(*([st.integers(0, 2)] * nvars))
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=3)
    return st.dictionaries(exps, coeff, max_size=4).map(
        lambda d: Polynomial(nvars, d))


@given(poly_strategy(), poly_strategy())
@settings(max_examples=30, deadline=None)
def test_normal_form_is_linear_and_multiplicative_mod_ideal(p, q):
    gb = borel_groebner("A", 2)
    # NF(p+q) == NF(NF(p)+NF(q)) and NF(pq) == NF(NF(p)NF(q))
    assert normal_form(p + q, gb) == normal_form(
        normal_form(p, gb) + normal_form(q, gb), gb)
    assert normal_form(p * q, gb) == normal_form(
        normal_form(p, gb) * normal_form(q, gb), gb)


def test_buchberger_result_independent_of_generator_order():
    gens = borel_generators("B", 3)
    gb0 = buchberger(gens, MonomialOrder("lex", (0, 1, 2)))
    rng = random.Random(7)
    for _ in range(3):
        shuffled = list(gens)
        rng.shuffle(shuffled)
        gb = buchberger(shuffled, MonomialOrder("lex", (0, 1, 2)))
        assert set(gb.generators) == set(gb0.generators)


def test_reduced_basis_properties():
    gb = borel_groebner("D", 3)
    lts = gb.leading_terms()
    # leading terms pairwise indivisible, and no tail term divisible by
    # another leading term (reducedness)
    for i, f in enumerate(gb.generators):
        lt, lc = gb.order.leading(f)
        assert lc == 1
        for j, e in enumerate(lts):
            if i != j:
                assert not all(a <= b for a, b in zip(e, lt))
        for e in f.terms:
            for j, other in enumerate(lts):
                if e != lt:
                    assert not all(a <= b for a, b in zip(other, e))


def test_s_polynomial_reduces_to_zero_in_basis():
    gb = borel_groebner("A", 3)
    gens = gb.generators
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            sp = s_polynomial(gens[i], gens[j], gb.order)
            assert normal_form(sp, gb).is_zero()


@pytest.mark.parametrize("kind", ["lex", "grlex", "grevlex"])
def test_quotient_dimension_order_independent(kind):
    gens = borel_generators("A", 3)
    gb = buchberger(gens, MonomialOrder(kind, (0, 1, 2, 3)))
    assert quotient_dimension(gb, 4) == 24


@pytest.mark.parametrize("family,rank,dim", [
    ("A", 5, 720), ("B", 4, 384), ("C", 4, 384), ("D", 4, 192)])
def test_borel_basis_presents_a_quotient_of_dimension_w(family, rank, dim):
    gb = borel_groebner(family, rank)
    nvars = rank + 1 if family == "A" else rank
    assert quotient_dimension(gb, nvars) == dim
