"""Smoke tests: the scripts in ``scripts/`` run and print what the package
computes."""

import os
import re
import subprocess
import sys
from pathlib import Path

from flagchern.chern import todd_polynomial
from flagchern.flagmodel import classify_acs, enumerate_acs, parse_manifold

REPO = Path(__file__).resolve().parent.parent


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
        assert int(m.group(1)) == todd_polynomial(n).common_denominator()


def test_classify_structures_script():
    out = run_script(REPO / "scripts" / "classify_structures.py")
    pattern = re.compile(r"(\S+): dim_C \d+, chi \d+, (\d+) isotropy "
                         r"summands, (\d+) structures up to conjugation, "
                         r"(\d+) up to conjugation and equivalence")
    heads = pattern.findall(out)
    assert len(heads) == 11
    for name, n_summands, n_census, n_classes in heads:
        flag = parse_manifold(name)
        classes = classify_acs(flag)
        assert int(n_summands) == len(flag.summands())
        assert int(n_census) == len(enumerate_acs(flag))
        assert int(n_classes) == len(classes)
    assert out.count("  class ") == sum(int(h[3]) for h in heads)
