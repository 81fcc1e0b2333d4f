import csv
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from flagchern.cli import main
from flagchern.flagmodel import parse_manifold

REPO = Path(__file__).resolve().parent.parent


def run_cli(*argv):
    """Invoke the CLI in-process, capturing stdout."""
    buf = io.StringIO()
    old = sys.stdout
    sys.stdout = buf
    try:
        code = main(list(argv))
    finally:
        sys.stdout = old
    return code, buf.getvalue()


def test_roots_json():
    code, out = run_cli("roots", "--family", "G2", "--rank", "2",
                        "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["family"] == "G2" and data["weyl_order"] == 12
    assert len(data["positives"]) == 6


def test_decompose_positional_and_theta():
    code, out = run_cli("decompose", "F(5;1,2,2)", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["euler_characteristic"] == 30
    assert data["n_summands"] == 3 and data["n_acs_up_to_conjugation"] == 4
    # the blocks 1,2,2 cut A_4 at alpha_1 and alpha_3: Theta = {alpha_2, alpha_4}
    assert parse_manifold("F(5;1,2,2)").removed_indices == (0, 2)


def test_decompose_needs_a_manifold_name(capsys):
    assert main(["decompose", "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("usage error: the following arguments are "
                            "required: manifold\n")


def test_second_chern_command_reuses_the_manifold(monkeypatch,
                                                  cold_root_systems):
    # the summands and the fixed points are built by the first command on a
    # manifold, and read by every later one in the process
    import flagchern.flagmodel as flagmodel

    cold_root_systems()
    calls = {"decomposition": 0, "walk": 0}

    def counted(key, func):
        def wrapper(flag):
            calls[key] += 1
            return func(flag)
        return wrapper

    monkeypatch.setattr(flagmodel, "t_root_decomposition",
                        counted("decomposition",
                                flagmodel.t_root_decomposition))
    walk = flagmodel.FlagManifold.__dict__["fixed_points"]
    monkeypatch.setattr(walk, "func", counted("walk", walk.func))
    argv = ["chern", "--manifold", "F(5;1,2,2)", "--todd", "--oracle",
            "weyl", "--format", "json"]
    first = run_cli(*argv)
    assert first[0] == 0 and calls == {"decomposition": 1, "walk": 1}
    assert run_cli(*argv) == first
    assert run_cli(*argv, "--acs", "+,-,+")[0] == 0
    assert run_cli("acs", "classify", "F(5;1,2,2)")[0] == 0
    assert calls == {"decomposition": 1, "walk": 1}


@pytest.mark.parametrize("name", ["F(4)", "F(5;1,2,2)", "G2-long",
                                  "FD(4;1,1,1,1)"])
def test_acs_list_gives_each_structure_its_integrability(name):
    # one prefix enumeration serves the whole list; each structure's verdict
    # is its membership in the integrable sign vectors
    from flagchern.flagmodel import enumerate_acs, integrable_sign_vectors

    flag = parse_manifold(name)
    integrable = integrable_sign_vectors(flag)
    code, out = run_cli("acs", "list", name, "--format", "json")
    assert code == 0
    assert json.loads(out)["structures"] == [
        {"signs": acs.label(), "integrable": acs.signs in integrable}
        for acs in enumerate_acs(flag)]


def test_acs_classify_f522():
    code, out = run_cli("acs", "classify", "F(5;1,2,2)", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["n_classes"] == 3
    sizes = sorted((c["size"], c["integrable"]) for c in data["classes"])
    assert sizes == [(1, False), (1, True), (2, True)]


def test_chern_default_top_class_and_todd():
    code, out = run_cli("chern", "--manifold", "FD(3;1,2)", "--todd",
                        "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["numbers"]["c5"] == "12"      # chi, big ints as strings
    assert data["todd_genus"] == "1"
    assert data["oracle"] == "both"


def test_chern_explicit_monomials_with_signs():
    code, out = run_cli("chern", "--manifold", "F(5;1,2,2)",
                        "--acs", "+,-,+", "--numbers", "c8,c1^8",
                        "--format", "json")
    assert code == 0
    nums = json.loads(out)["numbers"]
    assert set(nums) == {"c8", "c1^8"}
    assert all(int(v) is not None for v in nums.values())


def test_chern_csv_reports_the_todd_genus():
    code, out = run_cli("chern", "--manifold", "F(3)", "--todd",
                        "--oracle", "weyl", "--format", "csv")
    assert code == 0
    assert list(csv.reader(io.StringIO(out))) \
        == [["monomial", "value"], ["c3", "6"], ["todd_genus", "1"]]


@pytest.mark.parametrize("fmt", ["md", "csv", "json"])
def test_chern_repeated_numbers_print_once(fmt):
    code, out = run_cli("chern", "--manifold", "F(3)", "--oracle", "weyl",
                        "--numbers", "c1^3,c3,c1^3", "--format", fmt)
    assert code == 0
    if fmt == "json":
        names = list(json.loads(out)["numbers"])
    elif fmt == "csv":
        names = [row[0] for row in csv.reader(io.StringIO(out))][1:]
    else:
        names = [line.split(" | ")[0][2:] for line in out.splitlines()
                 if line.startswith("| c")]
    assert names == ["c1^3", "c3"]


def test_chern_determinism_across_runs():
    args = ("chern", "--manifold", "F(4)", "--numbers", "c1^6,c2^3,c6",
            "--todd", "--format", "json")
    outs = {run_cli(*args)[1] for _ in range(3)}
    assert len(outs) == 1  # byte-identical output


def test_chern_acs_value_may_start_with_minus():
    args = ("chern", "--manifold", "F(3;1,1,1)", "--numbers", "c1^3,c3",
            "--todd", "--format", "json")
    spaced = run_cli(*args, "--acs", "-,+,+")
    joined = run_cli(*args, "--acs=-,+,+")
    assert spaced[0] == joined[0] == 0
    assert spaced[1] == joined[1]
    assert json.loads(spaced[1])["acs"] == "(-,+,+)"


def test_table_list_and_reproduce():
    code, out = run_cli("table", "list")
    assert code == 0
    assert "tab5" in out.split() and "f5-all" in out.split()
    code, out = run_cli("table", "reproduce", "tab5", "--format", "json",
                        "--oracle", "weyl")
    assert code == 0
    data = json.loads(out)
    assert data["tables"][0]["ok"] is True


# tab2 has one computed and two skipped (slow) F(8) sections, tab5 an
# annotated cell; a golden file is the output of
# PYTHONPATH=src python -m flagchern table reproduce <tid> --oracle weyl \
#     --format <fmt> > tests/golden/<tid>.<fmt>
@pytest.mark.parametrize("fmt", ["md", "csv", "json"])
@pytest.mark.parametrize("tid", ["tab2", "tab5"])
def test_table_reproduce_matches_the_golden_bytes(tid, fmt):
    code, out = run_cli("table", "reproduce", tid, "--oracle", "weyl",
                        "--format", fmt)
    assert code == 0
    assert out.encode() == (REPO / "tests" / "golden" / f"{tid}.{fmt}"
                            ).read_bytes()


def test_groebner_so6_preset():
    code, out = run_cli("groebner", "--ideal", "so6", "--order", "lex",
                        "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["quotient_dimension"] == 24
    assert len(data["basis"]) == 5


def test_cohomology_verify():
    code, out = run_cli("cohomology", "verify", "--case", "a-full:3",
                        "--format", "json")
    assert code == 0
    assert json.loads(out)["status"] == "PASS"


@pytest.mark.parametrize("argv", [
    ("table", "reproduce", "so5t"),
    ("chern", "--manifold", "F(4)", "--oracle", "weyl", "--todd"),
    ("acs", "list", "F(4)"),
    ("acs", "classify", "F(4)"),
    ("decompose", "F(4)"),
    ("roots", "--family", "B", "--rank", "2"),
    ("cohomology", "verify", "--case", "a-full:2"),
])
def test_csv_lines_end_in_a_bare_newline(argv):
    code, out = run_cli(*argv, "--format", "csv")
    assert code == 0 and out.endswith("\n")
    assert "\r" not in out


def test_cohomology_verify_csv_holds_the_markdown_items():
    code, out = run_cli("cohomology", "verify", "--case", "so6-groebner",
                        "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["key", "value"]
    assert rows[1:3] == [["status", "PASS"], ["case", "so6-groebner"]]
    code, md = run_cli("cohomology", "verify", "--case", "so6-groebner")
    assert md.splitlines()[1:] == [f"  {k}: {v}" for k, v in rows[3:]]
    assert dict(rows[1:])["certificate"] == "-2"


def test_cohomology_verify_refuses_a_parameter_on_so6(capsys):
    # so6-groebner is one fixed case: a parameter is refused, not dropped
    assert run_cli("cohomology", "verify", "--case", "so6-groebner:3") \
        == (1, "")
    assert capsys.readouterr().err == ("usage error: case so6-groebner takes "
                                       "no parameter; got 'so6-groebner:3'\n")


def test_verify_sweep(monkeypatch):
    # verify reaches every section of every registry table
    import flagchern.tables as tables

    computed = []
    real = tables.chern_numbers_by

    def record(flag, acs, monos, oracle):
        computed.append(flag.name())
        return real(flag, acs, monos, oracle)

    monkeypatch.setattr(tables, "chern_numbers_by", record)
    code, out = run_cli("verify", "--oracle", "weyl")
    assert code == 0
    assert "0 failure(s)" in out
    assert "FAIL" not in out
    # the F(8) sections of tab2 carry its one annotated cell
    assert "PASS table tab2 (annotated cells: 1)" in out
    sections = {sec["manifold"]
                for spec in tables.load_registry()["tables"].values()
                for sec in spec.get("sections", [spec])}
    names = {parse_manifold(m).name() for m in sections}
    assert {"F(8;1,2,5)", "F(8;1,3,4)"} <= names
    assert names <= set(computed)


def _patch_out_the_kernel(monkeypatch):
    import flagchern.chern as chern
    import flagchern.cli as cli
    import flagchern.tables as tables

    for module in (chern, cli, tables):
        monkeypatch.setattr(module, "chern_numbers", _refuse_calls)
    # chern_numbers_by reaches the fixed-point sum through the section kernel
    monkeypatch.setattr(chern, "chern_numbers_many", _refuse_calls)


@pytest.fixture(scope="module")
def schubert_sweep():
    """`verify --oracle schubert` run once, with the fixed-point kernel
    patched to raise."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        _patch_out_the_kernel(monkeypatch)
        return run_cli("verify", "--oracle", "schubert")


@pytest.mark.parametrize("scope", ["quick", "all"])
def test_verify_schubert_runs_no_fixed_point_sum(schubert_sweep, monkeypatch,
                                                 capsys, scope):
    # the Todd genus and CP^n checks take their Chern numbers from --oracle
    # too, so the Schubert sweep never reaches the fixed-point kernel
    code, out = schubert_sweep
    assert code == 0, out
    assert out.endswith("\n0 failure(s)\n")
    assert "todd genus 1 on G2-short" in out and "CP^4" in out
    # verify has no scope any more: the old scope word is refused before
    # any Chern number is computed, not run as a smaller sweep
    _patch_out_the_kernel(monkeypatch)
    assert run_cli("verify", scope, "--oracle", "schubert") == (1, "")
    assert capsys.readouterr().err.startswith(
        "usage error: unrecognized arguments: " + scope)


# -- exit codes ---------------------------------------------------------------

def test_exit_code_usage_errors():
    assert run_cli("roots", "--family", "E", "--rank", "8")[0] == 1
    assert run_cli("chern", "--manifold", "no-such-manifold")[0] == 1
    assert run_cli("table", "reproduce", "no-such-table")[0] == 1
    assert run_cli("table", "reproduce")[0] == 1
    assert run_cli("chern", "--manifold", "F(4)", "--acs", "+,-")[0] == 1


def test_exit_code_zero_on_success():
    assert run_cli("acs", "list", "G2-short")[0] == 0


def test_exit_code_mismatch(monkeypatch):
    # a table whose reproduction carries an unexplained diff exits 2
    import copy

    import flagchern.tables as tables

    registry = copy.deepcopy(tables.load_registry())
    col = registry["tables"]["so5t"]["columns"][0]
    col["printed"][0] = str(int(col["printed"][0]) + 1)
    monkeypatch.setattr(tables, "load_registry", lambda: registry)
    code, out = run_cli("table", "reproduce", "so5t", "--oracle", "weyl")
    assert code == 2 and out.count("[UNEXPLAINED]") == 1


def test_exit_code_internal_on_oracle_disagreement(monkeypatch):
    # chern and table share one oracle dispatch, chern.chern_numbers_by
    import flagchern.chern as chern

    def wrong(flag, structures, monos):
        return [{m: 10 ** 9 for m in monos} for _ in structures]

    monkeypatch.setattr(chern, "chern_numbers_schubert", wrong)
    assert run_cli("chern", "--manifold", "SO(5)/T",
                   "--oracle", "both")[0] == 3
    assert run_cli("table", "reproduce", "so5t", "--oracle", "both")[0] == 3


@pytest.mark.parametrize("argv", [
    ("roots", "--family", "A", "--rank", "2", "--order", "grevlex", "--slow"),
    ("decompose", "F(4)", "--oracle", "weyl"),
    ("decompose", "--manifold", "F(4)"),
    ("acs", "list", "F(4)", "--slow"),
    ("chern", "--manifold", "F(4)", "--order", "lex"),
    ("cohomology", "verify", "--case", "a-full:2", "--oracle", "weyl"),
    ("verify", "--format", "json"),
    # verify always checks every registry table: no scope, no --slow
    ("verify", "quick"),
    ("verify", "all"),
    ("verify", "--slow"),
    # table list reads no table id and none of reproduce's options
    ("table", "list", "tab2"),
    ("table", "list", "--slow"),
    ("table", "list", "--oracle", "weyl"),
    ("table", "list", "--format", "json"),
])
def test_options_of_other_subcommands_are_refused(argv, capsys):
    # an option goes only on the subcommands that read it, so one given to
    # another subcommand is a usage error, not silently ignored
    assert main(list(argv)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: unrecognized arguments: ")
    assert captured.err.count("\n") == 1


def test_groebner_oracle_is_an_alias_of_schubert():
    argv = ["chern", "--manifold", "F(5;1,2,2)", "--acs", "+,-,+",
            "--numbers", "c1^8,c2c3^2,c8", "--format", "json"]
    outs = {}
    for oracle in ("schubert", "groebner", "weyl"):
        code, out = run_cli(*argv, "--oracle", oracle)
        assert code == 0
        outs[oracle] = json.loads(out)
        assert outs[oracle]["oracle"] == oracle
    assert outs["groebner"]["numbers"] == outs["schubert"]["numbers"] \
        == outs["weyl"]["numbers"]
    tables = {}
    for oracle in ("schubert", "groebner"):
        code, out = run_cli("table", "reproduce", "tab3", "--oracle", oracle,
                            "--format", "json")
        assert code == 0
        tables[oracle] = out
    assert tables["groebner"] == tables["schubert"]


def _refuse_calls(*_args, **_kwargs):
    raise AssertionError("the refused input reached the enumeration")


def test_closed_stdout_exits_141_without_a_message():
    # the reader takes one line of a 0.3 MB document, more than a pipe
    # buffers, and closes the pipe as `| head -1` does; the exit status is
    # cat's, 128 + SIGPIPE
    proc = subprocess.Popen([sys.executable, "-m", "flagchern", "decompose",
                             "F(30)", "--format", "json"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=_src_env())
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert err == b""


def test_huge_fixed_point_count_is_refused_before_enumeration(monkeypatch,
                                                              capsys):
    # F(10) has 10! fixed points; chi is closed-form, so the kernel refuses
    # it without walking them, that is without the simple reflections that
    # each step of the walk applies
    import flagchern.rootsys as rootsys

    monkeypatch.setattr(rootsys.RootSystem, "reflections",
                        property(_refuse_calls))
    code, out = run_cli("chern", "--manifold", "F(10)", "--oracle", "weyl")
    err = capsys.readouterr().err
    assert code == 1 and out == ""
    assert err.count("\n") == 1
    assert err.startswith("usage error: F(10) has chi = 3628800 fixed points")


def test_huge_weyl_group_is_refused_by_the_schubert_oracle(
        monkeypatch, capsys, cold_root_systems):
    # F(9;1,8) is CP^8, with 9 fixed points, but its Schubert oracle walks
    # |W(A8)| = 362880 Weyl elements; it is refused before W is built, and
    # the refusal points to the fixed-point oracle
    import flagchern.rootsys as rootsys

    monkeypatch.setattr(rootsys, "_cover_table", _refuse_calls)
    monkeypatch.setattr(rootsys, "weyl_group", _refuse_calls)
    cold_root_systems()  # fresh, cold tables
    for oracle in ("schubert", "both"):
        code, out = run_cli("chern", "--manifold", "F(9;1,8)",
                            "--oracle", oracle)
        err = capsys.readouterr().err
        assert code == 1 and out == ""
        assert err.count("\n") == 1
        assert err.startswith("usage error: |W(A8)| = 362880 exceeds")
        assert "(--oracle weyl) has no such bound" in err
    # the fixed-point kernel still answers: c8 = chi = 9
    code, out = run_cli("chern", "--manifold", "F(9;1,8)", "--oracle", "weyl",
                        "--format", "json")
    assert code == 0 and json.loads(out)["numbers"] == {"c8": "9"}


def _declared_script(name):
    """The ``[project.scripts]`` target declared for ``name``."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        import tomli as tomllib
    with open(REPO / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"][name]


def _src_env():
    """The environment with the repo's ``src`` first on ``PYTHONPATH``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    return env


def _run(cmd):
    """Run ``cmd`` with the repo's ``src`` first on ``PYTHONPATH``.

    stdout stays bytes so outputs compare byte for byte; stderr is decoded
    for assertion messages.
    """
    proc = subprocess.run(cmd, capture_output=True, env=_src_env(),
                          timeout=120)
    proc.stderr = proc.stderr.decode(errors="replace")
    return proc


def test_console_script_entry_point():
    # Resolve the declared script and call it the way a generated console
    # script does, so the check holds with or without an install.
    target = _declared_script("flagchern")
    module, sep, attr = target.partition(":")
    assert sep and module and attr, f"not module:attr: {target!r}"
    launcher = (
        "import importlib, sys\n"
        f"main = getattr(importlib.import_module({module!r}), {attr!r})\n"
        "sys.argv[0] = 'flagchern'\n"
        "sys.exit(main())\n")
    proc = _run([sys.executable, "-c", launcher, "table", "list"])
    assert proc.returncode == 0, proc.stderr
    assert b"tab-dif" in proc.stdout.split(), proc.stderr

    # `python -m flagchern` reaches the same main through __main__.py.
    via_m = _run([sys.executable, "-m", "flagchern", "table", "list"])
    assert via_m.returncode == proc.returncode, via_m.stderr
    assert via_m.stdout == proc.stdout

    # Where the script is installed, run it end to end as well.
    installed = shutil.which("flagchern")
    if installed is not None:
        script = _run([installed, "table", "list"])
        assert script.returncode == proc.returncode, script.stderr
        assert script.stdout == proc.stdout


@pytest.mark.parametrize("argv", [
    ("decompose", "F(3;3)"),
    ("acs", "list", "F(3;3)"),
    ("acs", "classify", "F(3;3)"),
])
def test_point_manifold_is_a_usage_error(argv, capsys):
    assert main(list(argv)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: ")
    assert "is a point" in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("modify,message", [
    (lambda t: t["columns"][0]["signs"].append(1), "5 signs for 4 summands"),
    (lambda t: t["columns"][0]["printed"].pop(),
     "4 printed values for 5 rows"),
    (lambda t: t["columns"][0]["printed"].append("0"),
     "6 printed values for 5 rows"),
    (lambda t: t.update(rows=["c1^3"] + t["rows"][1:]),
     "monomial c1^3 has weighted degree 3, expected 4"),
    (lambda t: t["columns"][0]["signs"].__setitem__(0, 2),
     "signs [2, 1, 1, 1] and global sign -1 are not all +-1"),
    (lambda t: t["columns"][0].update(global_sign=0),
     "signs [1, 1, 1, 1] and global sign 0 are not all +-1"),
    (lambda t: t["columns"][0]["printed"].__setitem__(0, "12x"),
     "c1^4: printed value '12x' is not a decimal integer"),
    (lambda t: t["columns"][0]["annotations"].append(
        {"row": "c4", "printed": "-8", "recomputed": "8.0", "note": "x"}),
     "c4: annotated recomputed value '8.0' is not a decimal integer"),
])
def test_malformed_registry_column_is_an_internal_error(monkeypatch, capsys,
                                                        modify, message):
    import copy

    import flagchern.tables as tables

    registry = copy.deepcopy(tables.load_registry())
    modify(registry["tables"]["so5t"])
    monkeypatch.setattr(tables, "load_registry", lambda: registry)
    for argv in (["table", "reproduce", "so5t"], ["verify"]):
        assert main(argv) == 3, argv
        err = capsys.readouterr().err
        assert err.startswith("internal invariant violation: ")
        assert message in err and err.count("\n") == 1


@pytest.mark.parametrize("slow", [[], ["--slow"]])
def test_malformed_cell_of_a_slow_section_is_an_internal_error(
        monkeypatch, capsys, slow):
    # a skipped slow section gets the column checks that need no manifold,
    # so its F(8) manifold is parsed only under --slow
    import copy

    import flagchern.tables as tables

    registry = copy.deepcopy(tables.load_registry())
    sec = registry["tables"]["tab2"]["sections"][1]
    assert sec["manifold"] == "F(8;1,2,5)" and sec["slow"]
    sec["columns"][0]["printed"][0] = "12x"
    monkeypatch.setattr(tables, "load_registry", lambda: registry)
    parsed = []
    real_parse = tables.parse_manifold

    def parse(name):
        parsed.append(name)
        return real_parse(name)

    monkeypatch.setattr(tables, "parse_manifold", parse)
    assert main(["table", "reproduce", "tab2", "--format", "csv",
                 *slow]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("internal invariant violation: F(8;1,2,5) "
                            "J1 = (+,+,+) c1^17: printed value '12x' is not "
                            "a decimal integer\n")
    assert ("F(8;1,2,5)" in parsed) == bool(slow)
    assert "F(8;1,3,4)" not in parsed


@pytest.mark.parametrize("argv", [
    ("groebner", "--ideal", "proj-tangent:{}"),
    ("cohomology", "verify", "--case", "proj-tangent:{}"),
])
def test_proj_tangent_above_its_bound_is_a_usage_error(argv, monkeypatch,
                                                       capsys):
    import flagchern.cli as cli
    import flagchern.cohomology as cohomology
    import flagchern.groebner as groebner

    for module in (cli, cohomology, groebner):
        monkeypatch.setattr(module, "buchberger", _refuse_calls)
    argv = [a.format(cohomology.MAX_PROJ_TANGENT + 1) for a in argv]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        f"usage error: proj-tangent:{cohomology.MAX_PROJ_TANGENT + 1}: ")
    assert captured.err.count("\n") == 1


def test_todd_above_its_degree_bound_is_a_usage_error(monkeypatch, capsys):
    # F(10;5,5) has N = 25; the Todd polynomial would have p(25) terms
    import flagchern.chern as chern

    assert chern.MAX_TODD_DEGREE == 24
    for builder in ("_todd_piece", "_power_sum", "chern_numbers",
                    "chern_numbers_many"):
        monkeypatch.setattr(chern, builder, _refuse_calls)
    code, out = run_cli("chern", "--manifold", "F(10;5,5)", "--todd",
                        "--oracle", "weyl")
    err = capsys.readouterr().err
    assert code == 1 and out == ""
    assert err == ("usage error: the Todd polynomial of degree 25 is not "
                   "built; the degree must be in 1..24\n")


@pytest.mark.parametrize("argv", [
    ("groebner", "--ideal", "borel:B:0"),
    ("groebner", "--ideal", "borel:A:-2"),
    ("groebner", "--ideal", "borel:G2:1"),
    ("cohomology", "verify", "--case", "a-full:8"),
])
def test_borel_presets_outside_their_ranks_are_usage_errors(argv, capsys):
    assert main(list(argv)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: no Borel presentation for ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv,err", [
    (("groebner", "--ideal", "proj-tangent:abc"),
     "--ideal proj-tangent:<n> needs an integer n; got 'abc'"),
    (("groebner", "--ideal", "borel:A:x"),
     "--ideal borel:<family>:<rank> needs an integer rank; got 'x'"),
    (("cohomology", "verify", "--case", "a-full:x"),
     "--case a-full:<n> needs an integer n; got 'x'"),
    (("cohomology", "verify", "--case", "proj-tangent:abc"),
     "--case proj-tangent:<n> needs an integer n; got 'abc'"),
])
def test_non_integer_parameter_names_its_option(argv, err, capsys):
    assert main(list(argv)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: {err}\n"


def test_key_error_message_is_printed_without_quotes(monkeypatch, capsys):
    # an unknown table id is a usage error; a KeyError from inside a command
    # is a bug in a lookup, so it is an internal error
    import flagchern.cli as cli

    assert main(["table", "reproduce", "nosuch"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: unknown table id 'nosuch'; known ids: ")
    assert err.count("\n") == 1

    def lookup_fails(args, out):
        raise KeyError("no entry 'x' here")

    monkeypatch.setattr(cli, "cmd_roots", lookup_fails)
    assert main(["roots", "--family", "A", "--rank", "2"]) == 3
    assert capsys.readouterr().err \
        == "internal error: KeyError: \"no entry 'x' here\"\n"


@pytest.mark.parametrize("content", ['{"generators": []}', '{"nvars": 2}',
                                     '[1, 2]'])
def test_ideal_file_without_its_keys_is_a_usage_error(tmp_path, capsys,
                                                      content):
    path = tmp_path / "ideal.json"
    path.write_text(content)
    assert main(["groebner", "--ideal", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == (f"usage error: --ideal: {path} needs the keys 'nvars' "
                   f"and 'generators'\n")


@pytest.mark.parametrize("content,reason", [
    (b"not json", "Expecting value: line 1 column 1 (char 0)"),
    (b"\xff\xfe{}", "'utf-8' codec can't decode byte 0xff in position 0: "
                    "invalid start byte"),
])
def test_ideal_file_that_is_not_json_is_a_usage_error(tmp_path, capsys,
                                                      content, reason):
    path = tmp_path / "ideal.json"
    path.write_bytes(content)
    assert main(["groebner", "--ideal", str(path)]) == 1
    assert capsys.readouterr().err \
        == f"usage error: --ideal: {path} is not JSON: {reason}\n"


NOT_TERMS = (": each generator must be a list of [exponents, numerator, "
             "denominator] terms with 2 exponents each")


@pytest.mark.parametrize("generators,tail", [
    ([], " needs a positive 'nvars' and a nonempty list of 'generators'"),
    ([3], NOT_TERMS),
    ([[[[1, 0], "1"]]], NOT_TERMS),
    ([[[[1, 0], 1.5, 1]]], NOT_TERMS),
    ([[[[1, 0], "1", 0]]], NOT_TERMS),
    ([[[[True, 0], "1", "1"]]], NOT_TERMS),
    ([[[[1, 0], "1", True]]], NOT_TERMS),
])
def test_malformed_ideal_file_is_a_usage_error(tmp_path, capsys, generators,
                                               tail):
    path = tmp_path / "ideal.json"
    path.write_text(json.dumps({"nvars": 2, "generators": generators}))
    assert main(["groebner", "--ideal", str(path)]) == 1
    assert capsys.readouterr().err == f"usage error: --ideal: {path}{tail}\n"


@pytest.mark.parametrize("content,tail", [
    ('{"nvars": true, "generators": [[[[true], "1", "1"]]]}',
     " needs a positive 'nvars' and a nonempty list of 'generators'"),
    ('{"nvars": 1, "generators": [[[[1], true, "1"]]]}',
     ": each generator must be a list of [exponents, numerator, "
     "denominator] terms with 1 exponents each"),
])
def test_json_booleans_in_an_ideal_file_are_not_integers(tmp_path, capsys,
                                                         content, tail):
    # json.load gives true as a bool, and a bool is an int to isinstance
    path = tmp_path / "ideal.json"
    path.write_text(content)
    assert main(["groebner", "--ideal", str(path)]) == 1
    assert capsys.readouterr().err == f"usage error: --ideal: {path}{tail}\n"


def test_ideal_file_quotient_dimension_is_counted_not_listed(tmp_path):
    # x^3000, y^3000: nine million standard monomials, counted run by run
    path = tmp_path / "ideal.json"
    path.write_text(json.dumps({"nvars": 2, "generators": [
        [[[3000, 0], "1", "1"]], [[[0, 3000], "1", "1"]]]}))
    code, out = run_cli("groebner", "--ideal", str(path))
    assert code == 0
    assert out.endswith("\nQuotient dimension: 9000000\n")


def test_ideal_file_with_an_infinite_quotient_has_no_dimension(tmp_path):
    path = tmp_path / "ideal.json"
    path.write_text(json.dumps({"nvars": 2, "generators": [
        [[[3, 0], "1", "1"]], [[[1, 1], "1", "1"]]]}))
    code, out = run_cli("groebner", "--ideal", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out)["quotient_dimension"] is None


def test_huge_ranks_are_refused_before_any_root_is_built(
        monkeypatch, capsys, cold_root_systems):
    # a rank just above the bound would build its roots if the check were
    # missing, and reflect would then fail; the refusal allocates nothing
    import flagchern.rootsys as rootsys

    def unreachable(*args):
        raise AssertionError("a root was generated")

    monkeypatch.setattr(rootsys, "reflect", unreachable)
    cold_root_systems()
    top = rootsys.MAX_RANK
    for argv in (["decompose", f"F({top + 2})"],
                 ["decompose", f"F({top + 2};1,{top + 1})"],
                 ["decompose", f"FB({top + 1})"],
                 ["acs", "classify", f"FD({top + 1};1,{top})"],
                 ["chern", "--manifold", f"FC({top + 1})"],
                 ["roots", "--family", "A", "--rank", str(top + 1)]):
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"usage error: rank {top + 1} is above the "
                                f"bound {top}\n")
    # the bound itself passes the check and goes on to generate the roots
    assert main(["decompose", f"F({top + 1})"]) == 3
    assert "a root was generated" in capsys.readouterr().err


def test_unexpected_exception_is_an_internal_error(monkeypatch, capsys):
    import flagchern.cli as cli

    def broken(args, out):
        raise RuntimeError("state went wrong")

    monkeypatch.setattr(cli, "cmd_roots", broken)
    assert main(["roots", "--family", "A", "--rank", "2"]) == 3
    assert capsys.readouterr().err \
        == "internal error: RuntimeError: state went wrong\n"


def test_one_process_runs_many_commands_as_fresh_processes_do(capfd):
    # the parser is built once and reused; every call still prints and
    # exits as `python -m flagchern` does for the same argv
    import flagchern.cli as cli

    sequence = [
        ["chern", "--manifold", "F(4)", "--acs=+,+"],
        ["chern", "--manifold", "F(3)", "--todd", "--format", "json"],
        ["table", "reproduce", "tab5", "--oracle", "weyl", "--format",
         "json"],
        ["roots", "--family", "G2", "--rank", "2"],
    ]
    cli.build_parser.cache_clear()
    in_process = []
    for argv in sequence:
        code = main(argv)
        captured = capfd.readouterr()
        in_process.append((captured.out.encode(), captured.err, code))
    assert cli.build_parser.cache_info().misses == 1
    assert in_process[0][2] == 1 and in_process[0][1].startswith(
        "usage error: --acs has 2 signs")
    for argv, got in zip(sequence, in_process):
        proc = _run([sys.executable, "-m", "flagchern", *argv])
        assert got == (proc.stdout, proc.stderr, proc.returncode), argv
