"""Untraced rounds run the original functions; traced rounds wrap them."""

import json
import subprocess
import sys

import tracing
from conftest import BENCH, ROOT


def run_round(tmp_path, *extra):
    out = tmp_path / "round.jsonl"
    subprocess.run([sys.executable, "-I", str(BENCH / "round.py"),
                    "--workload", "smoke", "--seed", "3", "--out", str(out),
                    *extra], cwd=ROOT, check=True, timeout=120)
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    return lines[:-1], lines[-1]


def test_untraced_round_sees_original_functions(tmp_path):
    ops, end = run_round(tmp_path)
    assert end["wrapped_seen"] == 0
    assert "layers" not in end
    assert ops and all(op["rc"] == 0 for op in ops)


def test_traced_round_reports_every_layer(tmp_path):
    ops, end = run_round(tmp_path, "--trace")
    spans = tmp_path / "round.spans.json"
    assert end["wrapped_seen"] > 0
    assert end["absent"] == []
    assert set(end["layers"]) == set(tracing.LAYER_METRICS) - {
        "trace.overhead_s"}
    assert end["layers"]["cli.main.calls"] == len(ops)
    dump = json.loads(spans.read_text())
    names = dump["names"]
    mains = [s for s in dump["spans"] if names[s[0]] == "cli.main"]
    assert len(mains) == len(ops)
    assert all(s[3] == -1 for s in mains)  # cli.main is a root span
    assert all(start <= end_ for _, start, end_, _ in dump["spans"])


def test_install_and_uninstall_rebind_every_importer():
    import flagchern
    from flagchern import chern, cli, tables
    from flagchern.flagmodel import FlagManifold
    originals = (cli.chern_numbers, tables.chern_numbers,
                 chern.chern_numbers, flagchern.chern_numbers,
                 FlagManifold.summands)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.chern_numbers is chern.chern_numbers is \
            tables.chern_numbers
        assert hasattr(cli.chern_numbers, tracing.MARK)
        assert hasattr(FlagManifold.summands, tracing.MARK)
        assert tracing.count_wrapped() > 0
    finally:
        tracer.uninstall()
    assert (cli.chern_numbers, tables.chern_numbers, chern.chern_numbers,
            flagchern.chern_numbers, FlagManifold.summands) == originals
    assert tracing.count_wrapped() == 0


def test_deleted_function_is_reported_absent(monkeypatch):
    import flagchern.cli  # noqa: F401
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + [
        ("rootsys.gone", "flagchern.rootsys", "no_such_function")])
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["flagchern.rootsys.no_such_function"]
    assert tracer.metrics()["rootsys.weyl_group.calls"] == 0
