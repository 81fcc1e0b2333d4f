"""Registry and reproduction engine for the reference Chern-number tables.

The packaged data file ``data/expected_tables.json`` stores, for each table:

* the printed values (as decimal strings — several exceed 64 bits),
* for each column, the sign vector (in this package's summand order) and the
  per-column global sign under which the printed column is reproduced, and
* annotations for every cell whose printed value is known to differ from the
  recomputed one, with the recomputed value and a diagnosis note.

``reproduce_section`` checks a section's rows and columns, recomputes every
column from scratch with one oracle call for all of them, and diffs it
against the printed values.  ``reproduce`` runs it on each section of a
table, and the rebuild script on each section of the registry.  The two F(8)
sections of tab2, marked ``slow`` in the registry, are recomputed only when
asked (``table reproduce --slow``; ``verify`` always asks); otherwise their
columns get the checks that need no manifold.  A reproduction is *clean*
when the set of differing cells coincides exactly with the recorded
annotations (including the recomputed values).  Any other difference is
reported as unexplained.  A result is the nested dict that its JSON prints,
with int values; ``to_json_obj`` writes those as decimal strings.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import os
import re

# chern_numbers is not called here, but perfbench/tests/test_bench_tracing.py
# checks that the tracer rebinds it in this module too
from .chern import chern_numbers, chern_numbers_by, top_monomial  # noqa: F401
from .flagmodel import FlagManifold, InvariantACS, parse_manifold


@functools.cache
def load_registry() -> dict:
    """The packaged registry, read once per process.  It is read beside this
    file rather than through ``importlib.resources``, which imports
    ``pathlib``, ``tempfile`` and, from Python 3.12, ``inspect``."""
    path = os.path.join(os.path.dirname(__file__), "data",
                        "expected_tables.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def table_ids() -> list[str]:
    """All accepted table identifiers, including aliases and groups."""
    reg = load_registry()
    return sorted(set(reg["tables"]) | set(reg["aliases"]) | set(reg["groups"]))


def resolve(table_id: str) -> list[str]:
    """Resolve an identifier to the list of concrete table ids it names."""
    reg = load_registry()
    table_id = reg["aliases"].get(table_id, table_id)
    if table_id in reg["groups"]:
        return list(reg["groups"][table_id])
    if table_id not in reg["tables"]:
        raise ValueError(f"unknown table id {table_id!r}; "
                       f"known ids: {', '.join(table_ids())}")
    return [table_id]


_DECIMAL = re.compile(r"-?[0-9]+")


def row_monomials(where: str, flag: FlagManifold, rows) -> list:
    """The rows as exponent tuples, parsed once per section for all its
    columns.  Refuses (AssertionError, naming ``where``) a row that is not a
    Chern monomial of weighted degree N."""
    try:
        return [top_monomial(flag, row) for row in rows]
    except ValueError as exc:
        raise AssertionError(f"{where}: {exc}") from None


def check_column(where: str, flag: FlagManifold, rows, spec: dict) -> None:
    """Refuses (AssertionError, naming ``where``) a column without one sign
    per isotropy summand of ``flag``, or one that ``_check_values``
    refuses."""
    n = len(flag.summands())
    if len(spec["signs"]) != n:
        raise AssertionError(f"{where}: {len(spec['signs'])} signs for {n} "
                             f"summands")
    _check_values(where, rows, spec)


def _check_values(where: str, rows, spec: dict) -> None:
    """The checks of ``check_column`` that need no manifold: refuses
    (AssertionError, naming ``where``) a column whose signs and global sign
    are not all +-1, without one printed value per row, as pairing values
    with rows would drop cells silently, or with a printed or annotated
    value that is not a decimal integer string (naming its row too)."""
    if not {1, -1}.issuperset([*spec["signs"], spec["global_sign"]]):
        raise AssertionError(f"{where}: signs {spec['signs']} and global "
                             f"sign {spec['global_sign']} are not all +-1")
    if len(spec["printed"]) != len(rows):
        raise AssertionError(f"{where}: {len(spec['printed'])} printed values "
                             f"for {len(rows)} rows")
    values = [(row, "printed", v) for row, v in zip(rows, spec["printed"])]
    values += [(a["row"], f"annotated {key}", a[key])
               for a in spec.get("annotations", [])
               for key in ("printed", "recomputed")]
    for row, what, v in values:
        if not (isinstance(v, str) and _DECIMAL.fullmatch(v)):
            raise AssertionError(f"{where} {row}: {what} value {v!r} is not "
                                 f"a decimal integer")


def _column(spec: dict, recomputed: list[int] | None,
            diffs: list[dict]) -> dict:
    """A registry column as a result; ``recomputed`` is None while the
    column is skipped (slow section)."""
    return {"label": spec["label"], "signs": list(spec["signs"]),
            "global_sign": spec["global_sign"],
            "printed": [int(v) for v in spec["printed"]],
            "recomputed": recomputed, "diffs": diffs,
            "note": spec.get("note"), "skipped": recomputed is None}


def _diff_column(rows, monos: list, spec: dict,
                 values: dict[tuple[int, ...], int]) -> dict:
    """A registry column with its recomputed ``values`` and their diffs;
    a diff is annotated when it matches a recorded annotation."""
    recomputed = [spec["global_sign"] * values[m] for m in monos]
    annotations = {a["row"]: a for a in spec.get("annotations", [])}
    diffs = []
    for row, p, r in zip(rows, map(int, spec["printed"]), recomputed):
        if p == r:
            continue
        ann = annotations.get(row)
        matches = ann is not None and int(ann["recomputed"]) == r \
            and int(ann["printed"]) == p
        diffs.append({"row": row, "printed": p, "recomputed": r,
                      "note": ann["note"] if matches else None,
                      "annotated": matches})
    # an annotation whose cell no longer differs is itself a mismatch
    diffed = {d["row"] for d in diffs}
    diffs += [{"row": row, "printed": int(ann["printed"]),
               "recomputed": int(ann["recomputed"]), "note": None,
               "annotated": False}
              for row, ann in annotations.items() if row not in diffed]
    return _column(spec, recomputed, diffs)


def _section(sec: dict, columns: list[dict]) -> dict:
    return {"manifold": sec["manifold"], "rows": sec["rows"],
            "columns": columns, "label_note": sec.get("label_note"),
            "skipped": all(c["skipped"] for c in columns)}


def reproduce_section(where: str, sec: dict, oracle: str) -> dict:
    """Recompute a registry section, all its columns in one oracle call, and
    diff it against the printed values.  Refuses (AssertionError, naming
    ``where``) a row that ``row_monomials`` or a column that
    ``check_column`` refuses."""
    flag = parse_manifold(sec["manifold"])
    monos = row_monomials(where, flag, sec["rows"])
    for c in sec["columns"]:
        check_column(f"{where} {c['label']}", flag, sec["rows"], c)
    structures = [InvariantACS(tuple(c["signs"])) for c in sec["columns"]]
    values = chern_numbers_by(flag, structures, monos, oracle)
    return _section(sec, [_diff_column(sec["rows"], monos, c, v)
                          for c, v in zip(sec["columns"], values)])


def _skipped_section(sec: dict) -> dict:
    """A slow section left uncomputed, its columns checked as far as
    ``_check_values`` goes without parsing the manifold."""
    for c in sec["columns"]:
        _check_values(f"{sec['manifold']} {c['label']}", sec["rows"], c)
    return _section(sec, [_column(c, None, []) for c in sec["columns"]])


def reproduce(table_id: str, oracle: str, slow: bool) -> list[dict]:
    """Recompute the named table(s) and diff against the printed values.
    Each result is a dict of the shape ``to_json_obj`` prints, with int
    values; it is ``ok`` when every computed cell is printed-exact or
    annotated."""
    reg = load_registry()
    results = []
    for tid in resolve(table_id):
        spec = reg["tables"][tid]
        sections = [
            _skipped_section(sec) if sec.get("slow") and not slow
            else reproduce_section(sec["manifold"], sec, oracle)
            for sec in spec.get("sections") or [spec]]
        results.append({
            "table_id": tid, "title": spec["title"], "sections": sections,
            "notes": list(spec.get("notes", [])),
            "ok": all(d["annotated"] for s in sections
                      for c in s["columns"] for d in c["diffs"])})
    return results


# -- rendering ---------------------------------------------------------------

def _signs(col: dict) -> str:
    return ",".join("+" if s > 0 else "-" for s in col["signs"])


def to_markdown(results: list[dict]) -> str:
    out = []
    for res in results:
        out.append(f"## {res['table_id']}: {res['title']}")
        for note in res["notes"]:
            out.append(f"> {note}")
        for sec in res["sections"]:
            columns = sec["columns"]
            out.append(f"\n### {sec['manifold']}")
            if sec["label_note"]:
                out.append(f"_{sec['label_note']}_")
            for col in columns:
                out.append(f"- column `{col['label']}`: signs=({_signs(col)}),"
                           f" global_sign={col['global_sign']:+d}"
                           + (" (skipped: slow)" if col["skipped"] else "")
                           + (f" — {col['note']}" if col["note"] else ""))
            header = ["monomial"] + [c["label"] for c in columns]
            out.append("| " + " | ".join(header) + " |")
            out.append("|" + "---|" * len(header))
            # a column has at most one diff per row
            marks = [{d["row"]: " [annotated]" if d["annotated"]
                      else " [UNEXPLAINED]" for d in col["diffs"]}
                     for col in columns]
            for i, row in enumerate(sec["rows"]):
                cells = [row]
                for col, mark in zip(columns, marks):
                    if col["skipped"]:
                        cells.append(f"{col['printed'][i]} (printed)")
                    else:
                        cells.append(f"{col['recomputed'][i]}"
                                     f"{mark.get(row, '')}")
                out.append("| " + " | ".join(cells) + " |")
            for col in columns:
                for d in col["diffs"]:
                    tag = "annotated" if d["annotated"] else "UNEXPLAINED"
                    out.append(f"- {tag} `{col['label']}` / `{d['row']}`: "
                               f"printed {d['printed']}, recomputed "
                               f"{d['recomputed']}"
                               + (f" — {d['note']}" if d["note"] else ""))
        out.append("")
    return "\n".join(out)


def to_csv(results: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["table", "manifold", "column", "signs", "global_sign",
                     "monomial", "printed", "recomputed", "status", "note"])
    for res in results:
        for sec in res["sections"]:
            for col in sec["columns"]:
                by_row = {d["row"]: d for d in col["diffs"]}
                for i, row in enumerate(sec["rows"]):
                    d = by_row.get(row)
                    if col["skipped"]:
                        status, rec = "skipped", ""
                    else:
                        rec = str(col["recomputed"][i])
                        status = ("ok" if d is None else "annotated"
                                  if d["annotated"] else "unexplained")
                    note = (d["note"] if d else None) or ""
                    writer.writerow([res["table_id"], sec["manifold"],
                                     col["label"], _signs(col),
                                     col["global_sign"], row,
                                     str(col["printed"][i]), rec, status,
                                     note])
    return buf.getvalue()


def to_json_obj(results: list[dict]) -> dict:
    """The results with printed and recomputed values as decimal strings
    (several exceed 64 bits); signs and global signs stay JSON integers."""
    def column(col: dict) -> dict:
        return {**col, "printed": [str(v) for v in col["printed"]],
                "recomputed": None if col["skipped"]
                else [str(v) for v in col["recomputed"]],
                "diffs": [{**d, "printed": str(d["printed"]),
                           "recomputed": str(d["recomputed"])}
                          for d in col["diffs"]]}

    return {"tables": [
        {**res, "sections": [{**sec, "columns": [column(c) for c in
                                                 sec["columns"]]}
                             for sec in res["sections"]]}
        for res in results]}
