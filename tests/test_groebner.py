import itertools
import random
import re
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagchern.groebner import (GroebnerBasis, MonomialOrder,
                                _complete_homogeneous, borel_generators,
                                buchberger, normal_form, quotient_dimension,
                                s_polynomial, top_staircase_monomial)
from flagchern.polyring import Polynomial


def _vars(n):
    return [Polynomial.variable(n, i) for i in range(n)]


def lex3():
    return MonomialOrder("lex")


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
    assert quotient_dimension(gb) == 24


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_a_full_quotient_dimension(borel_basis, n):
    gb = borel_basis("A", n)
    assert quotient_dimension(gb) == factorial(n + 1)


@pytest.mark.parametrize("family,n", [("B", 2), ("B", 3), ("C", 2), ("C", 3)])
def test_bc_full_quotient_dimension(borel_basis, family, n):
    gb = borel_basis(family, n)
    assert quotient_dimension(gb) == 2 ** n * factorial(n)


def test_g2_quotient_dimension_is_weyl_order(borel_basis):
    gb = borel_basis("G2", 2)
    assert quotient_dimension(gb) == 12


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
def test_normal_form_is_linear_and_multiplicative_mod_ideal(borel_basis, p, q):
    gb = borel_basis("A", 2)
    # NF(p+q) == NF(NF(p)+NF(q)) and NF(pq) == NF(NF(p)NF(q))
    assert normal_form(p + q, gb) == normal_form(
        normal_form(p, gb) + normal_form(q, gb), gb)
    assert normal_form(p * q, gb) == normal_form(
        normal_form(p, gb) * normal_form(q, gb), gb)


def test_buchberger_result_independent_of_generator_order():
    gens = borel_generators("B", 3)
    gb0 = buchberger(gens, MonomialOrder("lex"))
    rng = random.Random(7)
    for _ in range(3):
        shuffled = list(gens)
        rng.shuffle(shuffled)
        gb = buchberger(shuffled, MonomialOrder("lex"))
        assert set(gb.generators) == set(gb0.generators)


def test_reduced_basis_properties(borel_basis):
    gb = borel_basis("D", 3)
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


def test_s_polynomial_reduces_to_zero_in_basis(borel_basis):
    gb = borel_basis("A", 3)
    gens = gb.generators
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            sp = s_polynomial(gens[i], gens[j], gb.order)
            assert normal_form(sp, gb).is_zero()


@pytest.mark.parametrize("kind", ["lex", "grlex", "grevlex"])
def test_quotient_dimension_order_independent(kind):
    gens = borel_generators("A", 3)
    gb = buchberger(gens, MonomialOrder(kind))
    assert quotient_dimension(gb) == 24


@pytest.mark.parametrize("family,rank,dim", [
    ("A", 5, 720), ("B", 4, 384), ("C", 4, 384), ("D", 4, 192)])
def test_borel_basis_presents_a_quotient_of_dimension_w(borel_basis, family,
                                                        rank, dim):
    gb = borel_basis(family, rank)
    assert quotient_dimension(gb) == dim


# -- the reducer against a textbook division ---------------------------------

# the three orders as sort keys, written here apart from the package
REFERENCE_KEYS = {
    "lex": lambda e: e,
    "grlex": lambda e: (sum(e), e),
    "grevlex": lambda e: (sum(e), tuple(-x for x in reversed(e))),
}


def reference_remainder(p, divisors, kind):
    """Multivariate division in Fractions throughout: the largest remaining
    term is divided by the first divisor whose leading term divides it, or
    moved to the remainder."""
    key = REFERENCE_KEYS[kind]
    leads = []
    for g in divisors:
        if g.terms:
            lt = max(g.terms, key=key)
            leads.append((lt, g.terms[lt], g))
    rest = dict(p.terms)
    remainder = {}
    while rest:
        e = max(rest, key=key)
        c = rest.pop(e)
        for lt, lc, g in leads:
            if all(a <= b for a, b in zip(lt, e)):
                factor = Fraction(c) / Fraction(lc)
                for ge, gc in g.terms.items():
                    if ge == lt:
                        continue
                    ne = tuple(x - y + z for x, y, z in zip(e, lt, ge))
                    v = rest.get(ne, Fraction(0)) - factor * gc
                    if v:
                        rest[ne] = v
                    else:
                        rest.pop(ne, None)
                break
        else:
            remainder[e] = c
    return Polynomial(p.nvars, remainder)


# leading coefficients 1, 2, -3 and 1/2 among them, and fractional tails
DIVISION_COEFFS = st.one_of(
    st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 3)]),
    st.fractions(min_value=-4, max_value=4, max_denominator=4))


def division_poly(nvars, max_exp, max_size):
    exps = st.tuples(*([st.integers(0, max_exp)] * nvars))
    return st.dictionaries(exps, DIVISION_COEFFS, max_size=max_size).map(
        lambda d: Polynomial(nvars, d))


@given(st.sampled_from(list(REFERENCE_KEYS)), division_poly(3, 4, 8),
       st.lists(division_poly(3, 2, 4), min_size=1, max_size=4))
@settings(max_examples=200, deadline=None)
def test_normal_form_matches_textbook_division(kind, p, divisors):
    # the divisors need not form a Groebner basis: the remainder still
    # follows from the first-divisor rule alone
    gb = GroebnerBasis(tuple(divisors), MonomialOrder(kind))
    assert normal_form(p, gb) == reference_remainder(p, divisors, kind)


def test_normal_form_falls_back_to_fractions_for_non_integral_quotients():
    x, y = _vars(2)
    gb = GroebnerBasis((2 * x - 3 * y,), MonomialOrder("lex"))
    assert normal_form(x ** 2, gb) == Fraction(9, 4) * y ** 2
    assert normal_form(4 * x ** 2, gb) == 9 * y ** 2


# -- closed forms of the A, B and C Borel bases ------------------------------

@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_a_borel_basis_is_complete_homogeneous(borel_basis, n):
    # h_k(x_{k-1}, ..., x_n) for k = 1..n+1, with leading term x_{k-1}^k
    # under lex (Sturmfels, Algorithms in Invariant Theory, ch. 1)
    expected = {_complete_homogeneous(n + 1, k, k - 1)
                for k in range(1, n + 2)}
    assert set(borel_basis("A", n).generators) == expected


@pytest.mark.parametrize("family", ["B", "C"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_bc_borel_basis_is_complete_homogeneous_in_squares(borel_basis,
                                                           family, n):
    expected = {_complete_homogeneous(n, k, k - 1, square=True)
                for k in range(1, n + 1)}
    assert set(borel_basis(family, n).generators) == expected


# -- the staircase count ------------------------------------------------------

def _monomial_basis(nvars, exps_list):
    """The monomials themselves form a Groebner basis of the ideal they
    generate, with themselves as leading terms."""
    return GroebnerBasis(tuple(Polynomial(nvars, {e: 1}) for e in exps_list),
                         MonomialOrder("lex"))


@st.composite
def monomial_ideal(draw):
    nvars = draw(st.integers(2, 4))
    exps = st.tuples(*([st.integers(0, 3)] * nvars))
    gens = draw(st.lists(exps, min_size=1, max_size=6, unique=True))
    # add pure powers for most variables, so that both finite and
    # infinite quotients come up
    for i in range(nvars):
        if draw(st.booleans()) or draw(st.booleans()):
            e = [0] * nvars
            e[i] = draw(st.integers(1, 4))
            gens.append(tuple(e))
    return nvars, sorted(set(gens))


def _brute_staircase(nvars, gens):
    """The monomials of exponents <= 4 that no generator divides, in
    increasing lex order, or None when some variable has no pure power
    (the constant 1 counts as a power of each)."""
    for i in range(nvars):
        if not any(sum(e) == e[i] for e in gens):
            return None
    return [m for m in itertools.product(range(5), repeat=nvars)
            if not any(all(a <= b for a, b in zip(e, m)) for e in gens)]


@given(monomial_ideal())
@settings(max_examples=200, deadline=None)
def test_quotient_dimension_counts_the_listed_staircase(ideal):
    # the walker's count and top monomial against the brute-force listing
    nvars, gens = ideal
    gb = _monomial_basis(nvars, gens)
    listed = _brute_staircase(nvars, gens)
    if listed is None:
        for walk in (quotient_dimension, top_staircase_monomial):
            with pytest.raises(ValueError, match="not finite-dimensional"):
                walk(gb)
        return
    assert quotient_dimension(gb) == len(listed)
    top = max(map(sum, listed), default=-1)
    tops = [m for m in listed if sum(m) == top]
    if len(tops) == 1:
        assert top_staircase_monomial(gb) == tops[0]
    else:  # no monomial at all, or several of the top degree
        with pytest.raises(ValueError, match=re.escape(
                f"top staircase degree {top} is not one-dimensional: "
                f"{tops}")):
            top_staircase_monomial(gb)


def test_quotient_dimension_refuses_an_infinite_quotient():
    gb = _monomial_basis(2, [(2, 0), (1, 1)])
    with pytest.raises(ValueError, match="not finite-dimensional"):
        quotient_dimension(gb)


def test_staircase_walks_every_variable_of_the_basis():
    # A_2 has 3 variables; a walk over the first 2 would count 2 monomials
    gb = buchberger(borel_generators("A", 2), MonomialOrder("lex"))
    assert quotient_dimension(gb) == 6
    assert top_staircase_monomial(gb) == (0, 1, 2)


def test_quotient_dimension_counts_without_listing():
    # 9 million standard monomials: listing them would take tens of seconds
    gb = _monomial_basis(2, [(3000, 0), (0, 3000)])
    assert quotient_dimension(gb) == 9_000_000


@pytest.mark.parametrize("family,ranks", [
    ("A", range(1, 6)), ("B", range(1, 5)), ("C", range(1, 5)),
    ("D", range(2, 5))])
def test_quotient_dimension_counts_the_borel_staircases(borel_basis, family,
                                                         ranks):
    # |W| monomials, the top one in the degree of the number of positive
    # roots: (n+1)! and n(n+1)/2 for A_n, 2^n n! and n^2 for B_n and C_n,
    # 2^(n-1) n! and n(n-1) for D_n
    for n in ranks:
        gb = borel_basis(family, n)
        order, top = {"A": (factorial(n + 1), n * (n + 1) // 2),
                      "B": (2 ** n * factorial(n), n * n),
                      "C": (2 ** n * factorial(n), n * n),
                      "D": (2 ** (n - 1) * factorial(n), n * (n - 1))}[family]
        assert quotient_dimension(gb) == order
        assert sum(top_staircase_monomial(gb)) == top
