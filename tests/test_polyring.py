import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagchern.polyring import Polynomial, elementary_symmetric_values


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
    assert Polynomial.linear_form([2, -3]) == 2 * x - 3 * y
    assert (x + y) ** 2 == x * x + 2 * x * y + y * y


def test_power_nonnegative_only():
    x = Polynomial.variable(1, 0)
    with pytest.raises(ValueError):
        x ** -1


def _subset_sum(values, k, zero):
    """e_k by brute force: the sum over all k-subsets of their products."""
    total = zero
    for subset in itertools.combinations(values, k):
        prod = subset[0] if subset else 1
        for v in subset[1:]:
            prod = prod * v
        total = total + prod
    return total


def test_elementary_symmetric_matches_value_version():
    ints = [2, -3, 5, 7]
    vals = elementary_symmetric_values(ints, 4)
    assert vals == [_subset_sum(ints, k, 0) for k in range(5)]
    assert vals[1:] == [11, 17, -107, -210]
    assert all(type(v) is int for v in vals)
    assert elementary_symmetric_values(ints, 2) == vals[:3]
    # on linear forms: the same routine gives polynomials
    x, y, z = (Polynomial.variable(3, i) for i in range(3))
    forms = [x + y, 2 * y - z, x - 3 * z, x]
    polys = elementary_symmetric_values(forms, len(forms))
    assert polys[0] == 1
    for k in range(1, len(forms) + 1):
        assert polys[k] == _subset_sum(forms, k, Polynomial.zero(3))
        assert polys[k].is_homogeneous()
        assert {sum(e) for e in polys[k].terms} == {k}
    assert polys[1] == 3 * x + 3 * y - 4 * z
    assert polys[4] == forms[0] * forms[1] * forms[2] * forms[3]
    assert elementary_symmetric_values([], 0) == [1]
