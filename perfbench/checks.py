"""Output checks for the benchmark's operations.

An operation fails when its command exits non-zero, prints no JSON object,
or breaks a check below.  The checks use the registry's printed values and
annotations, the closed-form references of ``reference`` and properties the
method must have; none compares against an earlier run of the program.
"""

from __future__ import annotations

import itertools
import json
from collections import defaultdict

import reference
from workloads import find_column, table_sections


def expected_cells(rows, column: dict) -> list[int]:
    """Printed values, with each annotated cell replaced by its record."""
    annotated = {a["row"]: int(a["recomputed"])
                 for a in column.get("annotations", [])}
    return [annotated.get(row, int(p))
            for row, p in zip(rows, column["printed"])]


def _ints(values) -> list[int]:
    return [int(v) for v in values]


def _check_table(data, meta, registry) -> list[str]:
    tid = meta["table_id"]
    errs = []
    (table,) = data["tables"]
    if table["table_id"] != tid:
        return [f"table id {table['table_id']!r}, expected {tid!r}"]
    if table["ok"] is not True:
        errs.append("table reports unexplained differences")
    specs = table_sections(registry, tid)
    if len(specs) != len(table["sections"]):
        return errs + ["section count differs from the registry"]
    for spec, sec in zip(specs, table["sections"]):
        slow = bool(spec.get("slow"))
        if sec["manifold"] != spec["manifold"] or sec["skipped"] != slow:
            errs.append(f"section {spec['manifold']}: wrong manifold or "
                        f"skip flag")
            continue
        for cspec, col in zip(spec["columns"], sec["columns"],
                              strict=True):
            where = f"{spec['manifold']} {cspec['label']}"
            if (col["label"] != cspec["label"]
                    or list(col["signs"]) != list(cspec["signs"])
                    or col["global_sign"] != cspec["global_sign"]):
                errs.append(f"{where}: column mapping differs")
            if slow:
                continue
            got = _ints(col["recomputed"])
            want = expected_cells(spec["rows"], cspec)
            for row, g, w in zip(spec["rows"], got, want, strict=True):
                if g != w:
                    errs.append(f"{where} {row}: {g} != {w}")
    return errs


def _check_column(data, meta, registry) -> list[str]:
    sec, col = find_column(registry, meta["table_id"], meta["column"])
    if data["acs"] != "(" + ",".join(
            "+" if s > 0 else "-" for s in col["signs"]) + ")":
        return [f"structure {data['acs']} is not the column's"]
    want = expected_cells(sec["rows"], col)
    errs = []
    for row, w in zip(sec["rows"], want):
        got = col["global_sign"] * int(data["numbers"][row])
        if got != w:
            errs.append(f"{meta['table_id']} {meta['column']} {row}: "
                        f"{got} != {w}")
    return errs


def _check_cohomology(data, meta, registry) -> list[str]:
    case = meta["case"]
    errs = []
    if data["status"] != "PASS" or data["ok"] is not True:
        errs.append(f"{case}: status {data['status']}")
    errs += [f"{case}: {k} is false" for k, v in data.items()
             if k.endswith("_ok") and v is not True]
    if int(data["quotient_dim"]) != reference.quotient_dimension(case):
        errs.append(f"{case}: quotient dimension {data['quotient_dim']}, "
                    f"expected {reference.quotient_dimension(case)}")
    if "certificate" in data and data["certificate"] == "0":
        errs.append(f"{case}: zero top-class certificate")
    return errs


def _check_decompose(data, meta, registry) -> list[str]:
    name = meta["manifold"]
    s = data["n_summands"]
    errs = []
    if data["euler_characteristic"] != reference.euler_characteristic(name):
        errs.append(f"{name}: chi {data['euler_characteristic']}, expected "
                    f"{reference.euler_characteristic(name)}")
    if data["complex_dim"] != reference.complex_dimension(name):
        errs.append(f"{name}: complex dimension {data['complex_dim']}, "
                    f"expected {reference.complex_dimension(name)}")
    if (len(data["summands"]) != s
            or sum(m["dim_complex"] for m in data["summands"])
            != data["complex_dim"]):
        errs.append(f"{name}: summands do not add up")
    if data["n_acs_up_to_conjugation"] != reference.census_size(s):
        errs.append(f"{name}: census {data['n_acs_up_to_conjugation']}, "
                    f"expected 2^(s-1) = {reference.census_size(s)}")
    return errs


def _check_classify(data, meta, registry) -> list[str]:
    name, s = meta["manifold"], meta["n_summands"]
    if s is None:
        return [f"{name}: no summand count from decompose"]
    classes = data["classes"]
    errs = []
    if data["n_classes"] != len(classes):
        errs.append(f"{name}: n_classes {data['n_classes']} but "
                    f"{len(classes)} classes listed")
    members = [m for c in classes for m in c["members"]]
    census = ["(" + ",".join(("+",) + rest) + ")"
              for rest in itertools.product("+-", repeat=s - 1)]
    if sum(c["size"] for c in classes) != reference.census_size(s):
        errs.append(f"{name}: class sizes add up to "
                    f"{sum(c['size'] for c in classes)}, not "
                    f"{reference.census_size(s)}")
    if sorted(members) != sorted(census):
        errs.append(f"{name}: classes do not partition the census")
    for c in classes:
        if c["size"] != len(c["members"]) or (
                c["members"] and c["representative"] != c["members"][0]):
            errs.append(f"{name}: class {c['representative']} is "
                        f"inconsistent")
    if reference.is_full_flag(name):
        n_int = sum(c["size"] for c in classes if c["integrable"])
        if n_int != reference.integrable_count_full_flag(name):
            errs.append(f"{name}: {n_int} integrable structures, expected "
                        f"|W|/2 = "
                        f"{reference.integrable_count_full_flag(name)}")
    return errs


def _check_chern(data, meta, registry) -> list[str]:
    name, signs, dims = meta["manifold"], meta["signs"], meta["dims"]
    if dims is None:
        return [f"{name}: no summand dimensions from decompose"]
    label = "(" + ",".join("+" if x > 0 else "-" for x in signs) + ")"
    if data["acs"] != label:
        return [f"{name}: structure {data['acs']}, expected {label}"]
    if set(data["numbers"]) != set(meta["monomials"]):
        return [f"{name} {label}: monomials differ from those requested"]
    errs = []
    try:
        numbers = {m: int(v) for m, v in data["numbers"].items()}
    except ValueError:
        return [f"{name} {label}: a Chern number is not an integer"]
    o = reference.orientation_sign(signs, dims)
    n = reference.complex_dimension(name)
    chi = reference.euler_characteristic(name)
    if o * numbers[f"c{n}"] != chi:
        errs.append(f"{name} {label}: o*c_{n} = {o * numbers[f'c{n}']}, "
                    f"chi = {chi}")
    try:
        todd = int(data["todd_genus"])
    except ValueError:
        return errs + [f"{name} {label}: Todd genus {data['todd_genus']} "
                       f"is not an integer"]
    if meta["integrable"] and todd != 1:
        errs.append(f"{name} {label}: integrable but Todd genus {todd}")
    return errs


CHECKS = {
    "table": _check_table,
    "column": _check_column,
    "cohomology": _check_cohomology,
    "decompose": _check_decompose,
    "classify": _check_classify,
    "chern": _check_chern,
}


def check_round(ops: list[dict], registry: dict) -> list[list[str]]:
    """Failures of each operation of one round (an empty list: passed)."""
    failures: list[list[str]] = []
    parsed = []
    for op in ops:
        errs, data = [], None
        if op["rc"] != 0:
            errs.append(f"{' '.join(op['argv'])}: exit {op['rc']}: "
                        f"{op['stderr'].strip()[-300:]}")
        else:
            try:
                data = json.loads(op["stdout"])
                errs = CHECKS[op["kind"]](data, op["meta"], registry)
            except (ValueError, KeyError, TypeError) as exc:
                errs = [f"{' '.join(op['argv'])}: malformed output "
                        f"({type(exc).__name__}: {exc})"]
        failures.append(errs)
        parsed.append(data if not errs else None)
    _check_class_pairs(ops, parsed, failures)
    return failures


def _check_class_pairs(ops, parsed, failures) -> None:
    """o(J) c_alpha(J) is the same for a class representative and the other
    member checked; a difference fails the other member's operation."""
    pairs = defaultdict(dict)
    for i, op in enumerate(ops):
        if op["kind"] == "chern":
            pairs[(op["meta"]["manifold"], op["meta"]["class"])][
                op["meta"]["role"]] = i
    for (name, _), roles in pairs.items():
        if "rep" not in roles or "other" not in roles:
            continue
        i, j = roles["rep"], roles["other"]
        if parsed[i] is None or parsed[j] is None:
            continue
        vals = []
        for k in (i, j):
            meta = ops[k]["meta"]
            o = reference.orientation_sign(meta["signs"], meta["dims"])
            vals.append({m: o * int(v)
                         for m, v in parsed[k]["numbers"].items()})
        if vals[0] != vals[1]:
            bad = sorted(m for m in vals[0] if vals[0][m] != vals[1][m])
            failures[j].append(f"{name}: o*c differs from the class "
                               f"representative on {', '.join(bad[:5])}")
