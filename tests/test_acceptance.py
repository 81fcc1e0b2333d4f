"""End-to-end acceptance checks: reference-table reproduction, census and
integrability classification, Groebner reproduction, dual-oracle agreement,
and sanity oracles."""

import random
from fractions import Fraction

import pytest

from flagchern.chern import (chern_numbers, chern_numbers_schubert, format_cmonomial,
                             monomials_of_weighted_degree, parse_cmonomial,
                             todd_polynomial)
from flagchern.flagmodel import (FlagManifold, InvariantACS, classify_acs,
                                 enumerate_acs, integrable_sign_vectors,
                                 parse_manifold)
from flagchern.groebner import buchberger, MonomialOrder, quotient_dimension
from flagchern.polyring import Polynomial
from flagchern.rootsys import build_root_system
from flagchern.tables import to_markdown


def column_by_prefix(table, prefix):
    for sec in table["sections"]:
        for col in sec["columns"]:
            if col["label"].startswith(prefix):
                return col
    raise KeyError(prefix)


# 1. rank-6 full sweep: c1^14 on F(7;1,2,4) for all four structures --------

def test_criterion_01_f714_c1_14_exact(reproduce_cached):
    res = reproduce_cached("tab-dif", oracle="both")[0]
    assert res["ok"]
    assert not any(c["diffs"] for s in res["sections"] for c in s["columns"])
    values = {col["label"].split(" ")[0]: col["recomputed"][0]
              for col in res["sections"][0]["columns"]}
    assert values == {"J1": 4169710642825728, "J2": 3967580897280000,
                      "J3": 5340215200320000, "J4": 68881612800}
    for col in res["sections"][0]["columns"]:
        assert col["printed"] == col["recomputed"]


# 2. c1-power rows on the three-block flags, including the zero ------------

def test_criterion_02_c1_power_rows_fast(reproduce_cached):
    res = reproduce_cached("tab2", oracle="both")[0]
    assert res["ok"]
    f6 = next(s for s in res["sections"] if s["manifold"] == "F(6;1,2,3)")
    values = {c["label"].split(" ")[0]: c["recomputed"][0]
              for c in f6["columns"]}
    assert values["J4"] == 0
    assert sorted(values.values()) == sorted(
        [-166320000000, 187110000000, -156539053440, 0])
    assert all(c["printed"] == c["recomputed"] for c in f6["columns"])


def test_criterion_02_c1_power_rows_f8(reproduce_cached):
    res = reproduce_cached("tab2", oracle="weyl", slow=True)[0]
    assert res["ok"]
    f825 = next(s for s in res["sections"] if s["manifold"] == "F(8;1,2,5)")
    f834 = next(s for s in res["sections"] if s["manifold"] == "F(8;1,3,4)")
    assert not f825["skipped"] and not f834["skipped"]
    # F(8;1,3,4) is printed exactly; F(8;1,2,5) carries exactly one
    # annotated cell (a printed value missing one trailing zero)
    assert all(not c["diffs"] for c in f834["columns"])
    diffs = [d for c in f825["columns"] for d in c["diffs"]]
    assert len(diffs) == 1 and diffs[0]["annotated"]
    assert (diffs[0]["printed"], diffs[0]["recomputed"]) \
        == (1250749500000000, 12507495000000000)


# 3. the 22-row F(5;1,2,2) table -------------------------------------------

def test_criterion_03_f522_table(reproduce_cached):
    res = reproduce_cached("tab3", oracle="both")[0]
    assert res["ok"]
    sec = res["sections"][0]
    i_c8 = sec["rows"].index("c8")
    i_c18 = sec["rows"].index("c1^8")
    assert all(c["recomputed"][i_c8] == 30 for c in sec["columns"])
    assert {c["recomputed"][i_c18] for c in sec["columns"]} \
        == {15805440, 14696640, 2240}
    j1 = column_by_prefix(res, "J1")
    j4 = column_by_prefix(res, "J4")
    assert j1["printed"] == j4["printed"]        # printed identically
    assert j1["recomputed"] == j4["recomputed"]  # and genuinely equal
    # the single annotated cell: a sign typo in the third column
    diffs = [(c["label"].split(" ")[0], d["row"], d["printed"],
              d["recomputed"])
             for c in sec["columns"] for d in c["diffs"]]
    assert diffs == [("J3", "c2c6", 10, -10)]


# 4. the F(4) table and the two F(5) full-flag tables ----------------------

def test_criterion_04_f4_table(reproduce_cached):
    res = reproduce_cached("tab5", oracle="both")[0]
    assert res["ok"]
    sec = res["sections"][0]
    j = column_by_prefix(res, "J ")
    assert j["recomputed"][sec["rows"].index("c1^6")] == 46080
    i_c6 = sec["rows"].index("c6")
    assert {abs(c["recomputed"][i_c6]) for c in sec["columns"]} == {24}
    diffs = [(c["label"].split(" ")[0], d["row"], d["printed"],
              d["recomputed"])
             for c in sec["columns"] for d in c["diffs"]]
    assert diffs == [("I2", "c1c5", -96, -48)]


def test_criterion_04_f5_tables(reproduce_cached):
    for res in reproduce_cached("f5-all", oracle="both"):
        assert res["ok"], res["table_id"]
    res1 = reproduce_cached("f5-all", oracle="both")[0]
    i1 = column_by_prefix(res1, "I1")
    ann = [d for d in i1["diffs"] if d["row"] == "c2^3c4"]
    assert len(ann) == 1 and ann[0]["annotated"]
    assert (ann[0]["printed"], ann[0]["recomputed"]) == (7257760, 725760)


def test_criterion_04_typo_cell_satisfies_riemann_roch(reproduce_cached):
    # the Todd-genus form of the Riemann-Roch theorem adjudicates the typo:
    # contracting the degree-10 Todd polynomial with the I1 column gives an
    # integer for the recomputed cell value and a non-integer for the
    # printed one; the degree-9 identity with denominator 7257600 is
    # regenerated coefficient-for-coefficient (see test_chern)
    res = reproduce_cached("f5-all", oracle="both")[0]
    sec = res["sections"][0]
    i1 = column_by_prefix(res, "I1")
    td = todd_polynomial(10)
    assert td.denominator == 479001600

    def genus(values):
        table = dict(zip(sec["rows"], values))
        return Fraction(sum(a * table[format_cmonomial(m)]
                            for m, a in td.numerators.items()),
                        td.denominator)

    assert genus(i1["recomputed"]).denominator == 1
    assert genus(i1["printed"]).denominator != 1
    assert todd_polynomial(9).denominator == 7257600


# 5. B/C/D/G2 tables up to per-column global sign --------------------------

BCDG_TABLES = ["tabso1", "tabso21", "tabg21", "tabg22", "tabsp31",
               "so8u4", "so5t", "sp2t", "g2t"]


@pytest.mark.parametrize("tid", BCDG_TABLES)
def test_criterion_05_bcdg_tables(tid, reproduce_cached):
    res = reproduce_cached(tid, oracle="both")[0]
    assert res["ok"], [(c["label"], d["row"], d["printed"], d["recomputed"])
                       for s in res["sections"] for c in s["columns"]
                       for d in c["diffs"] if not d["annotated"]]
    # each column's computed -> printed mapping is emitted
    lines = to_markdown([res]).splitlines()
    for sec in res["sections"]:
        for col in sec["columns"]:
            assert any(line.startswith(f"- column `{col['label']}`: signs=(")
                       and "global_sign=" in line for line in lines)


@pytest.mark.parametrize("tid,chi", [("g2t", 12), ("so8u4", 8)])
def test_criterion_05_canonical_columns_exact(tid, chi, reproduce_cached):
    res = reproduce_cached(tid, oracle="both")[0]
    sec = res["sections"][0]
    col = sec["columns"][0]
    assert all(s == 1 for s in col["signs"]) and col["global_sign"] == 1
    assert col["printed"] == col["recomputed"] and not col["diffs"]
    top = format_cmonomial(tuple(
        1 if k == len(parse_cmonomial(sec["rows"][0], 6)) - 1 else 0
        for k in range(6)))
    assert col["recomputed"][sec["rows"].index(top)] == chi


# 6. Todd genus 1 on canonical and integrable structures -------------------

GENUS_MANIFOLDS = ["F(3;1,1,1)", "F(4)", "F(5)", "F(5;1,2,2)", "F(6;1,2,3)",
                   "FD(3;1,2)", "FD(4;1,3)", "SO(5)/T", "Sp(2)/T", "Sp(3)/T",
                   "SO(7)/U(3)", "SO(8)/U(4)", "G2/T", "G2-long", "G2-short"]


@pytest.mark.parametrize("name", GENUS_MANIFOLDS)
def test_criterion_06_todd_genus_one_canonical(name, weyl_todd_genus):
    flag = parse_manifold(name)
    g = weyl_todd_genus(flag, InvariantACS((1,) * len(flag.summands())))
    assert g == Fraction(1)


@pytest.mark.parametrize("name", ["F(5;1,2,2)", "FD(3;1,2)", "G2-long",
                                  "SO(5)/T"])
def test_criterion_06_todd_genus_one_all_integrable(name, weyl_todd_genus):
    flag = parse_manifold(name)
    integrable = integrable_sign_vectors(flag)
    for acs in enumerate_acs(flag):
        if acs.signs in integrable:
            assert weyl_todd_genus(flag, acs) == 1


def test_criterion_06_todd_identity_denominators():
    assert [todd_polynomial(d).denominator
            for d in (5, 6, 8, 9)] == [1440, 60480, 3628800, 7257600]


# 7. census and classification ---------------------------------------------

def test_criterion_07_census_counts():
    for name in ("F(6;1,2,3)", "F(7;1,2,4)", "F(5;1,2,2)"):
        assert len(enumerate_acs(parse_manifold(name))) == 4   # 2^(3-1)
    assert len(enumerate_acs(parse_manifold("F(4)"))) == 32    # 2^(6-1)
    assert len(enumerate_acs(parse_manifold("F(5)"))) == 512   # 2^(10-1)


def test_criterion_07_equivalence_classes():
    assert len(classify_acs(parse_manifold("F(4)"))) == 4
    assert len(classify_acs(parse_manifold("F(5)"))) == 12
    assert len(classify_acs(parse_manifold("F(5;1,2,2)"))) == 3
    for name in ("F(3;1,1,1)", "F(6;2,2,2)"):
        classes = classify_acs(parse_manifold(name))
        assert len(classes) == 2
        integrable = next(c for c in classes if c.integrable)
        assert integrable.size == 3


def test_criterion_07_integrability_verdicts():
    # three-block flags: three integrable conjugation classes, one not
    for name in ("F(6;1,2,3)", "F(7;1,2,4)", "F(8;1,2,5)", "F(8;1,3,4)"):
        flag = parse_manifold(name)
        integrable = integrable_sign_vectors(flag)
        verdicts = [a.signs in integrable for a in enumerate_acs(flag)]
        assert sorted(verdicts) == [False, True, True, True]
    long_flag = parse_manifold("G2-long")
    assert {a.signs for a in enumerate_acs(long_flag)
            if a.signs in integrable_sign_vectors(long_flag)} == {(1, 1, 1)}
    short_flag = parse_manifold("G2-short")
    integrable = integrable_sign_vectors(short_flag)
    verdicts = {a.signs: a.signs in integrable
                for a in enumerate_acs(short_flag)}
    assert verdicts == {(1, 1): True, (1, -1): False}


# 8. Groebner reproduction --------------------------------------------------

def test_criterion_08_recorded_basis():
    x, y, z = (Polynomial.variable(3, i) for i in range(3))
    gens = [x ** 2 + y ** 2 + z ** 2, x ** 4 + y ** 4 + z ** 4, x * y * z]
    gb = buchberger(gens, MonomialOrder("lex"))
    assert set(gb.generators) == {
        x ** 2 + y ** 2 + z ** 2,
        x * y * z,
        y ** 4 + y * y * z * z + z ** 4,
        y ** 3 * z + y * z ** 3,
        z ** 5,
    }


def test_criterion_08_quotient_dimensions(borel_basis):
    from math import factorial
    for n in range(1, 5):
        assert quotient_dimension(borel_basis("A", n)) \
            == factorial(n + 1)
    for fam in ("B", "C"):
        for n in range(1, 4):
            assert quotient_dimension(borel_basis(fam, n)) \
                == 2 ** n * factorial(n)


# 9. dual-oracle agreement and Euler characteristics -----------------------

def test_criterion_09_dual_oracle_over_all_fast_tables(reproduce_cached):
    # oracle="both" raises on any disagreement between the Weyl-sum and the
    # Groebner normal-form integration, so a clean pass certifies agreement
    # on every monomial of every fast table
    for tid in ["tab-dif", "tab2", "tab3", "tab5", "f5-all"] + BCDG_TABLES:
        for res in reproduce_cached(tid, oracle="both"):
            assert res["ok"], res["table_id"]


EULER = [("F(6;1,2,3)", 60), ("F(7;1,2,4)", 105), ("F(8;1,2,5)", 168),
         ("F(8;1,3,4)", 280), ("F(4)", 24), ("F(5)", 120), ("G2/T", 12),
         ("SO(5)/T", 8), ("FD(4;1,3)", 32), ("Sp(3)/T", 48),
         ("G2-long", 6), ("G2-short", 6)]


@pytest.mark.parametrize("name,chi", EULER)
def test_criterion_09_euler_characteristics(name, chi):
    flag = parse_manifold(name)
    assert flag.euler_characteristic() == chi
    if flag.complex_dim <= 10:  # top class integral equals chi
        n = flag.complex_dim
        acs = InvariantACS((1,) * len(flag.summands()))
        top = tuple(1 if k == n - 1 else 0 for k in range(n))
        assert chern_numbers(flag, acs, [top]) == {top: chi}


# 10. sanity oracles ---------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_criterion_10_projective_space(n):
    flag = FlagManifold(build_root_system("A", n), range(1, n))
    assert flag.euler_characteristic() == n + 1
    acs = InvariantACS((1,))
    c1n = (n,) + (0,) * (n - 1)
    assert chern_numbers(flag, acs, [c1n]) == {c1n: (n + 1) ** n}
    assert chern_numbers_schubert(flag, [acs], [c1n]) == [{c1n: (n + 1) ** n}]


@pytest.mark.parametrize("name", ["F(5;1,2,2)", "FD(3;1,2)", "G2-long"])
def test_criterion_10_conjugation_parity(name):
    flag = parse_manifold(name)
    n = flag.complex_dim
    s = len(flag.summands())
    rng = random.Random(20260823)
    monos = monomials_of_weighted_degree(n, n)
    for _ in range(5):
        signs = tuple(rng.choice([1, -1]) for _ in range(s))
        acs = InvariantACS(signs)
        conjugate = InvariantACS(tuple(-x for x in signs))
        mono = rng.choice(monos)
        assert chern_numbers(flag, conjugate, [mono])[mono] \
            == (-1) ** n * chern_numbers(flag, acs, [mono])[mono]
