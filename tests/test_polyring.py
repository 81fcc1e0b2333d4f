import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagchern.polyring import Polynomial


def poly_strategy(nvars=3, max_deg=3, max_terms=5):
    exps = st.tuples(*([st.integers(0, max_deg)] * nvars))
    coeff = st.fractions(min_value=-10, max_value=10, max_denominator=6)
    return st.dictionaries(exps, coeff, max_size=max_terms).map(
        lambda d: Polynomial(nvars, d))


@given(poly_strategy(), poly_strategy(), poly_strategy())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r
    assert p - p == Polynomial.zero(3)
    assert p * Polynomial.one(3) == p


@given(poly_strategy(), st.lists(st.fractions(min_value=-5, max_value=5,
                                              max_denominator=4),
                                 min_size=3, max_size=3))
@settings(max_examples=60, deadline=None)
def test_evaluate_is_ring_homomorphism(p, point):
    def evaluate(f):
        return sum((coeff * math.prod(x ** e for x, e in zip(point, exps))
                    for exps, coeff in f.terms.items()), Fraction(0))

    q = p * p + p
    assert evaluate(q) == evaluate(p) ** 2 + evaluate(p)


@given(poly_strategy())
@settings(max_examples=40, deadline=None)
def test_json_round_trip(p):
    assert Polynomial.from_json(p.nvars, p.to_json()) == p


def test_variable_and_linear_form():
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    assert (2 * x - 3 * y).terms == {(1, 0): 2, (0, 1): -3}
    assert (x + y) ** 2 == x * x + 2 * x * y + y * y


def test_power_nonnegative_only():
    x = Polynomial.variable(1, 0)
    with pytest.raises(ValueError):
        x ** -1

