"""Smoke tests: the scripts in ``scripts/`` run and print what the package
computes."""

import copy
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from flagchern.chern import MAX_TODD_DEGREE, todd_polynomial
from flagchern.flagmodel import InvariantACS, parse_manifold
from flagchern.groebner import (MonomialOrder, borel_generators, buchberger,
                                normal_form)
from flagchern.polyring import Polynomial
from flagchern.tables import load_registry

REPO = Path(__file__).resolve().parent.parent
BUILD = REPO / "scripts" / "build_expected_tables.py"


def run_script(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, *map(str, argv)], cwd=REPO,
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_todd_identities_script():
    out = run_script(REPO / "scripts" / "todd_identities.py",
                     "--max-degree", "12")
    lines = out.splitlines()
    assert len(lines) == 12
    for n, line in enumerate(lines, start=1):
        m = re.match(r"(\d+) \* td_(\d+) = ", line)
        assert m and int(m.group(2)) == n, line
        assert int(m.group(1)) == todd_polynomial(n).denominator


def test_todd_identities_script_refuses_a_degree_above_the_bound():
    proc = subprocess.run(
        [sys.executable, REPO / "scripts" / "todd_identities.py",
         "--max-degree", str(MAX_TODD_DEGREE + 1)],
        cwd=REPO, env=dict(os.environ, PYTHONPATH=str(REPO / "src")),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.splitlines()[-1] == (
        f"todd_identities.py: error: --max-degree {MAX_TODD_DEGREE + 1} is "
        f"above the Todd-polynomial degree bound {MAX_TODD_DEGREE}")
    assert "Traceback" not in proc.stderr


def test_build_script_regenerates_the_packaged_registry(tmp_path):
    out = tmp_path / "expected_tables.json"
    run_script(BUILD, out)
    packaged = REPO / "src" / "flagchern" / "data" / "expected_tables.json"
    assert out.read_bytes() == packaged.read_bytes()


# a modified copy of one packaged table, and the message naming its cell
@pytest.mark.parametrize("tid,modify,message", [
    ("tab2", lambda t: t["sections"][1]["columns"][3]["annotations"].clear(),
     "tab2 F(8;1,2,5) J4 = (-,+,-) c1^17: unexpected mismatch"),
    ("tab3", lambda t: t["columns"][0]["annotations"].append(
        {"row": "c8", "printed": "30", "recomputed": "30", "note": "x"}),
     "tab3 F(5;1,2,2) J1 = (+,+,+) c8: annotated but matches"),
    ("so5t", lambda t: t["columns"][0]["signs"].append(1),
     "so5t SO(5)/T J = (+,+,+,+): 5 signs for 4 summands"),
    ("so5t", lambda t: t.update(rows=["c1^3"] + t["rows"][1:]),
     "so5t SO(5)/T: monomial c1^3 has weighted degree 3, expected 4"),
    ("so5t", lambda t: t["columns"][0]["printed"].pop(),
     "so5t SO(5)/T J = (+,+,+,+): 4 printed values for 5 rows"),
    ("so5t", lambda t: t["columns"][0]["signs"].__setitem__(0, 2),
     "so5t SO(5)/T J = (+,+,+,+): signs [2, 1, 1, 1] and global sign -1 "
     "are not all +-1"),
    ("so5t", lambda t: t["columns"][0]["printed"].__setitem__(0, "12x"),
     "so5t SO(5)/T J = (+,+,+,+) c1^4: printed value '12x' is not a "
     "decimal integer"),
    ("tab2", lambda t: t["sections"][1]["columns"][3]["annotations"][0]
     .__setitem__("printed", "1e3"),
     "tab2 F(8;1,2,5) J4 = (-,+,-) c1^17: annotated printed value '1e3' is "
     "not a decimal integer"),
    ("so5t", lambda t: t["chern_classes"]["printed"].__setitem__(
        1, "3*x*y -3*y^2"),
     "so5t SO(5)/T: Chern classes ['3*x +y', '3*x*y -4*y^2', "
     "'-2*x*y^2 -4*y^3', '-2*x*y^3'], recorded ['3*x +y', '3*x*y -3*y^2', "
     "'-2*x*y^2 -4*y^3', '-2*x*y^3']"),
])
def test_rebuild_names_the_cell_it_cannot_explain(tid, modify, message):
    rebuild = runpy.run_path(str(BUILD))["rebuild"]
    data = {"tables": {tid: copy.deepcopy(load_registry()["tables"][tid])}}
    assert rebuild(data) == data
    modify(data["tables"][tid])
    with pytest.raises(SystemExit, match=re.escape(message)):
        rebuild(data)


def chern_classes_nf(flag, acs):
    chern_classes = runpy.run_path(str(BUILD))["chern_classes"]
    gb = buchberger(borel_generators(flag.rs.family, flag.rs.rank),
                    MonomialOrder("lex"))
    return [normal_form(c, gb) for c in chern_classes(flag, acs.signs)]


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
