"""The closed-form references agree with the program where both apply."""

import json

import pytest

import reference
from flagchern import cohomology, flagmodel
from flagchern.chern import (format_cmonomial, monomials_of_weighted_degree,
                             orientation_sign)
from flagchern.flagmodel import InvariantACS, parse_manifold
from flagchern.rootsys import build_root_system, weyl_group
from conftest import ROOT

REGISTRY = json.loads(
    (ROOT / "src/flagchern/data/expected_tables.json").read_text())
MANIFOLDS = sorted({sec["manifold"]
                    for spec in REGISTRY["tables"].values()
                    for sec in spec.get("sections", [spec])})
_ORDERS: dict = {}


def _program_weyl_order(flag) -> int:
    key = (flag.rs.family, flag.rs.rank)
    if key not in _ORDERS:  # one enumeration per root system type
        _ORDERS[key] = len(weyl_group(build_root_system(*key)))
    return _ORDERS[key]


def test_chi_example():
    assert reference.euler_characteristic("F(7;1,2,4)") == 105


@pytest.mark.parametrize("name", MANIFOLDS)
def test_closed_form_chi_matches_program(name):
    flag = parse_manifold(name)
    family, rank, _ = reference.parse_name(name)
    assert (family, rank) == (flag.rs.family, flag.rs.rank)
    assert reference.weyl_order(family, rank) == _program_weyl_order(flag)
    assert reference.isotropy_weyl_order(name) == len(flag.w_k)
    assert reference.euler_characteristic(name) == \
        _program_weyl_order(flag) // len(flag.w_k)
    assert reference.complex_dimension(name) == flag.complex_dim


@pytest.mark.parametrize("name", ["F(4)", "G2-long", "FD(4;1,3)",
                                  "SO(7)/U(3)", "F(5;1,2,2)"])
def test_orientation_sign_matches_program(name):
    flag = parse_manifold(name)
    dims = [s.dim_complex for s in flag.summands()]
    for acs in flagmodel.enumerate_acs(flag, up_to_conjugation=False):
        assert reference.orientation_sign(acs.signs, dims) == \
            orientation_sign(flag, InvariantACS(acs.signs))


@pytest.mark.parametrize("case", ["a-full:2", "a-full:5", "b-full:4",
                                  "c-full:3", "so6-groebner",
                                  "proj-tangent:1", "proj-tangent:2"])
def test_quotient_dimension_matches_case(case):
    c = cohomology.presentation_case(case)
    assert reference.quotient_dimension(case) == c.expected_quotient_dim


@pytest.mark.parametrize("n", range(1, 13))
def test_cmonomials_match_program(n):
    ours = reference.cmonomials(n)
    theirs = [format_cmonomial(m) for m in monomials_of_weighted_degree(n, n)]
    assert len(ours) == len(set(ours))
    assert sorted(ours) == sorted(theirs)


def test_census_and_integrable_counts():
    assert reference.census_size(10) == 512
    assert reference.integrable_count_full_flag("F(4)") == 12
    assert reference.integrable_count_full_flag("FD(4;1,1,1,1)") == 96
    assert reference.integrable_count_full_flag("G2/T") == 6
    with pytest.raises(ValueError):
        reference.integrable_count_full_flag("F(5;1,2,2)")
