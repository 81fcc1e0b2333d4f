"""The benchmark's workloads: which flagchern commands one round runs.

A round drives its operations through ``run(kind, argv, meta)``, which calls
``flagchern.cli.main(argv)`` and returns the captured standard output (or
None when the command failed).  ``kind`` and ``meta`` tell the checker what
the output must satisfy.  The seed orders the commands and, in
``acs-census``, picks the classes and the extra class member checked; every
round of a run uses the same seed and so repeats the same commands.
"""

from __future__ import annotations

import json
import random

import reference

WEYL_TABLES = ["tab2", "tab3", "tabso21", "tabf51", "tabf54", "tab5",
               "tabsp31", "g2t", "so5t", "sp2t", "so7u3", "so8u4", "tabg21",
               "tabg22", "tabso1"]
NF_TABLES = ["tab3", "tabso21", "tabsp31", "tab5", "g2t", "so5t", "sp2t",
             "so7u3", "tabg21", "tabg22", "tabso1"]
# (table, column label) reproduced through one `chern` command: the whole
# table takes too long to repeat (tab-dif under the Weyl sum, tabf51 under
# normal forms), and each column costs the same kernel work.
WEYL_COLUMNS = [("tab-dif", "J1 = (+,+,+)")]
NF_COLUMNS = [("tabf51", "J = (+,+,+,+,+,+,+,+,+,+)")]
COHOMOLOGY_CASES = ["a-full:2", "a-full:4", "b-full:2", "b-full:3",
                    "c-full:3", "so6-groebner", "proj-tangent:1",
                    "proj-tangent:2", "a-full:5", "b-full:4", "c-full:4"]
# manifold -> how many seed-drawn classes get Chern commands (None: all).
# Each drawn class checks its representative and, when it has another
# member, one seed-drawn other member.  Where only some classes are drawn,
# all classes of that manifold have the same size class (1, or >= 2), so
# the number of commands does not depend on the seed.
ACS_MANIFOLDS = {
    "F(4)": None, "G2/T": None, "G2-long": None, "G2-short": None,
    "SO(7)/U(3)": None, "F(5;1,2,2)": None, "FD(4;1,3)": 2,
    "Sp(3)/T": 2, "FB(3;1,1,1)": 2, "F(5)": 1, "FD(4;1,1,1,1)": 1,
}
# a few cheap commands, for the benchmark's own tests
SMOKE_TABLES = ["g2t"]
SMOKE_CASES = ["a-full:2"]

NAMES = ("weyl-tables", "nf-tables", "acs-census")


def sign_text(signs) -> str:
    return ",".join("+" if s > 0 else "-" for s in signs)


def table_sections(registry: dict, table_id: str) -> list[dict]:
    spec = registry["tables"][table_id]
    return spec.get("sections") or [spec]


def find_column(registry: dict, table_id: str, label: str):
    for sec in table_sections(registry, table_id):
        for col in sec["columns"]:
            if col["label"] == label:
                return sec, col
    raise KeyError(f"{table_id} has no column {label!r}")


def setup_manifolds(name: str, registry: dict) -> list[str]:
    """Manifolds the workload's commands parse, parsed once during set-up."""
    if name == "acs-census":
        return list(ACS_MANIFOLDS)
    tables, columns = _table_ops(name)
    out = []
    for tid in tables:
        out += [s["manifold"] for s in table_sections(registry, tid)
                if not s.get("slow")]
    out += [find_column(registry, t, c)[0]["manifold"] for t, c in columns]
    return sorted(set(out), key=out.index)


def _table_ops(name: str):
    if name == "weyl-tables":
        return WEYL_TABLES, WEYL_COLUMNS
    if name == "nf-tables":
        return NF_TABLES, NF_COLUMNS
    if name == "smoke":
        return SMOKE_TABLES, []
    raise ValueError(f"unknown workload {name!r}")


def run_workload(name: str, seed: int, registry: dict, run) -> None:
    rng = random.Random(seed)
    if name == "acs-census":
        _acs_census(rng, run)
    else:
        _tables(name, rng, registry, run)


def _tables(name: str, rng: random.Random, registry: dict, run) -> None:
    oracle = "groebner" if name == "nf-tables" else "weyl"
    tables, columns = _table_ops(name)
    ops = [("table", ["table", "reproduce", tid, "--oracle", oracle,
                      "--format", "json"], {"table_id": tid})
           for tid in tables]
    for tid, label in columns:
        sec, col = find_column(registry, tid, label)
        ops.append(("column",
                    ["chern", "--manifold", sec["manifold"],
                     f"--acs={sign_text(col['signs'])}",
                     "--numbers", ",".join(sec["rows"]), "--oracle", oracle,
                     "--format", "json"],
                    {"table_id": tid, "column": label}))
    cases = {"nf-tables": COHOMOLOGY_CASES, "smoke": SMOKE_CASES}.get(name, [])
    ops += [("cohomology", ["cohomology", "verify", "--case", case,
                            "--format", "json"], {"case": case})
            for case in cases]
    rng.shuffle(ops)
    for kind, argv, meta in ops:
        run(kind, argv, meta)


def _load(text):
    try:
        return json.loads(text) if text is not None else None
    except ValueError:
        return None


def _acs_census(rng: random.Random, run) -> None:
    manifolds = list(ACS_MANIFOLDS.items())
    rng.shuffle(manifolds)
    for name, n_drawn in manifolds:
        dec = _load(run("decompose", ["decompose", name, "--format", "json"],
                        {"manifold": name}))
        try:
            dims = [int(m["dim_complex"]) for m in dec["summands"]]
        except (TypeError, KeyError, ValueError):
            dims = None
        n_summands = len(dims) if dims else None
        cls = _load(run("classify", ["acs", "classify", name, "--format",
                                     "json"],
                        {"manifold": name, "n_summands": n_summands}))
        try:
            classes = list(cls["classes"])
        except (TypeError, KeyError):
            classes = []
        drawn = (range(len(classes)) if n_drawn is None else
                 sorted(rng.sample(range(len(classes)),
                                   min(n_drawn, len(classes)))))
        n = reference.complex_dimension(name)
        monomials = reference.cmonomials(n)
        ops = []
        for ci in drawn:
            members = classes[ci]["members"]
            picks = [("rep", members[0])]
            if len(members) > 1:
                picks.append(("other", members[rng.randrange(1,
                                                             len(members))]))
            for role, label in picks:
                signs = [1 if ch == "+" else -1
                         for ch in label.strip("()").split(",")]
                ops.append((["chern", "--manifold", name,
                             f"--acs={sign_text(signs)}",
                             "--numbers", ",".join(monomials),
                             "--oracle", "weyl", "--todd", "--format",
                             "json"],
                            {"manifold": name, "signs": signs, "dims": dims,
                             "class": ci, "role": role,
                             "integrable": classes[ci]["integrable"],
                             "monomials": monomials}))
        rng.shuffle(ops)
        for argv, meta in ops:
            run("chern", argv, meta)
