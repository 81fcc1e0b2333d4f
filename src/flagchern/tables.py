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
asked (``table --slow``; ``verify`` always asks).  A reproduction is *clean*
when the set of differing cells coincides exactly with the recorded
annotations (including the recomputed values).  Any other difference is
reported as unexplained.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import re
from dataclasses import dataclass, field, is_dataclass
from importlib import resources

# chern_numbers is not called here, but perfbench/tests/test_bench_tracing.py
# checks that the tracer rebinds it in this module too
from .chern import _top_monomial, chern_numbers, chern_numbers_by  # noqa: F401
from .flagmodel import FlagManifold, InvariantACS, parse_manifold


@functools.cache
def load_registry() -> dict:
    """The packaged registry, read once per process."""
    ref = resources.files("flagchern").joinpath("data/expected_tables.json")
    return json.loads(ref.read_text())


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


@dataclass
class CellDiff:
    row: str
    printed: int
    recomputed: int
    note: str | None
    annotated: bool  # True when the diff matches a recorded annotation


@dataclass
class ColumnResult:
    label: str
    signs: tuple[int, ...]
    global_sign: int
    printed: list[int]
    recomputed: list[int] | None = None  # None while skipped (slow column)
    diffs: list[CellDiff] = field(default_factory=list)
    note: str | None = None

    @classmethod
    def from_spec(cls, spec: dict) -> "ColumnResult":
        """A registry column, not recomputed yet."""
        return cls(label=spec["label"], signs=tuple(spec["signs"]),
                   global_sign=spec["global_sign"],
                   printed=[int(v) for v in spec["printed"]],
                   note=spec.get("note"))

    @property
    def skipped(self) -> bool:
        return self.recomputed is None

    @property
    def unexplained(self) -> list[CellDiff]:
        return [d for d in self.diffs if not d.annotated]

    def mapping(self) -> str:
        sig = ",".join("+" if s > 0 else "-" for s in self.signs)
        return f"signs=({sig}), global_sign={self.global_sign:+d}"


@dataclass
class SectionResult:
    manifold: str
    rows: list[str]
    columns: list[ColumnResult]
    label_note: str | None = None

    @property
    def skipped(self) -> bool:
        return all(c.skipped for c in self.columns)


@dataclass
class TableResult:
    table_id: str
    title: str
    sections: list[SectionResult]
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every computed cell is printed-exact or annotated."""
        return not any(c.unexplained
                       for s in self.sections for c in s.columns)

    @property
    def n_annotated(self) -> int:
        return sum(1 for s in self.sections for c in s.columns
                   for d in c.diffs if d.annotated)


_DECIMAL = re.compile(r"-?[0-9]+")


def row_monomials(where: str, flag: FlagManifold, rows) -> list:
    """The rows as exponent tuples, parsed once per section for all its
    columns.  Refuses (AssertionError, naming ``where``) a row that is not a
    Chern monomial of weighted degree N."""
    try:
        return [_top_monomial(flag, row) for row in rows]
    except ValueError as exc:
        raise AssertionError(f"{where}: {exc}") from None


def check_column(where: str, flag: FlagManifold, rows, spec: dict) -> None:
    """Refuses (AssertionError, naming ``where``) a column without one sign
    of +-1 per isotropy summand of ``flag``, a global sign of +-1 and one
    printed value per row, as pairing values with rows would drop cells
    silently, or with a printed or annotated value that is not a decimal
    integer string (naming its row too)."""
    n = len(flag.summands())
    if len(spec["signs"]) != n:
        raise AssertionError(f"{where}: {len(spec['signs'])} signs for {n} "
                             f"summands")
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


def _diff_column(rows, monos: list, spec: dict,
                 values: dict[tuple[int, ...], int]) -> ColumnResult:
    """A registry column with its recomputed ``values`` and their diffs."""
    col = ColumnResult.from_spec(spec)
    col.recomputed = [col.global_sign * values[m] for m in monos]
    annotations = {a["row"]: a for a in spec.get("annotations", [])}
    for row, p, r in zip(rows, col.printed, col.recomputed):
        if p == r:
            continue
        ann = annotations.get(row)
        matches = ann is not None and int(ann["recomputed"]) == r \
            and int(ann["printed"]) == p
        col.diffs.append(CellDiff(row=row, printed=p, recomputed=r,
                                  note=ann["note"] if matches else None,
                                  annotated=matches))
    # an annotation whose cell no longer differs is itself a mismatch
    diffed = {d.row for d in col.diffs}
    for row, ann in annotations.items():
        if row not in diffed:
            col.diffs.append(CellDiff(
                row=row, printed=int(ann["printed"]),
                recomputed=int(ann["recomputed"]), note=None,
                annotated=False))
    return col


def _section(sec: dict, columns: list[ColumnResult]) -> SectionResult:
    return SectionResult(manifold=sec["manifold"], rows=sec["rows"],
                         columns=columns, label_note=sec.get("label_note"))


def reproduce_section(where: str, sec: dict, oracle: str) -> SectionResult:
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


def reproduce(table_id: str, oracle: str, slow: bool) -> list[TableResult]:
    """Recompute the named table(s) and diff against the printed values."""
    reg = load_registry()
    results = []
    for tid in resolve(table_id):
        spec = reg["tables"][tid]
        sections = [
            _section(sec, [ColumnResult.from_spec(c) for c in sec["columns"]])
            if sec.get("slow") and not slow
            else reproduce_section(sec["manifold"], sec, oracle)
            for sec in spec.get("sections") or [spec]]
        results.append(TableResult(table_id=tid, title=spec["title"],
                                   sections=sections,
                                   notes=list(spec.get("notes", []))))
    return results


# -- rendering ---------------------------------------------------------------

def to_markdown(results: list[TableResult]) -> str:
    out = []
    for res in results:
        out.append(f"## {res.table_id}: {res.title}")
        for note in res.notes:
            out.append(f"> {note}")
        for sec in res.sections:
            out.append(f"\n### {sec.manifold}")
            if sec.label_note:
                out.append(f"_{sec.label_note}_")
            for col in sec.columns:
                out.append(f"- column `{col.label}`: {col.mapping()}"
                           + (" (skipped: slow)" if col.skipped else "")
                           + (f" — {col.note}" if col.note else ""))
            header = ["monomial"] + [c.label for c in sec.columns]
            out.append("| " + " | ".join(header) + " |")
            out.append("|" + "---|" * len(header))
            # a column has at most one diff per row
            marks = [{d.row: " [annotated]" if d.annotated
                      else " [UNEXPLAINED]" for d in col.diffs}
                     for col in sec.columns]
            for i, row in enumerate(sec.rows):
                cells = [row]
                for col, mark in zip(sec.columns, marks):
                    if col.skipped:
                        cells.append(f"{col.printed[i]} (printed)")
                    else:
                        cells.append(f"{col.recomputed[i]}{mark.get(row, '')}")
                out.append("| " + " | ".join(cells) + " |")
            for col in sec.columns:
                for d in col.diffs:
                    tag = "annotated" if d.annotated else "UNEXPLAINED"
                    out.append(f"- {tag} `{col.label}` / `{d.row}`: printed "
                               f"{d.printed}, recomputed {d.recomputed}"
                               + (f" — {d.note}" if d.note else ""))
        out.append("")
    return "\n".join(out)


def to_csv(results: list[TableResult]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["table", "manifold", "column", "signs", "global_sign",
                     "monomial", "printed", "recomputed", "status", "note"])
    for res in results:
        for sec in res.sections:
            for col in sec.columns:
                sig = ",".join("+" if s > 0 else "-" for s in col.signs)
                by_row = {d.row: d for d in col.diffs}
                for i, row in enumerate(sec.rows):
                    d = by_row.get(row)
                    if col.skipped:
                        status, rec = "skipped", ""
                    else:
                        rec = str(col.recomputed[i])
                        status = ("ok" if d is None else "annotated"
                                  if d.annotated else "unexplained")
                    note = (d.note if d else None) or ""
                    writer.writerow([res.table_id, sec.manifold, col.label,
                                     sig, col.global_sign, row,
                                     str(col.printed[i]), rec, status, note])
    return buf.getvalue()


def _json_level(obj) -> dict:
    """A result object's own fields, nested results and tuples as lists and
    printed and recomputed values as decimal strings (several exceed 64
    bits), plus its derived ``ok`` and ``skipped`` flags."""
    out = {}
    for key, value in vars(obj).items():
        if key in ("printed", "recomputed") and value is not None:
            value = (str(value) if isinstance(value, int)
                     else [str(v) for v in value])
        elif isinstance(value, (list, tuple)):  # each list holds one type
            value = ([_json_level(v) for v in value]
                     if value and is_dataclass(value[0]) else list(value))
        out[key] = value
    for flag in ("ok", "skipped"):
        if hasattr(type(obj), flag):
            out[flag] = getattr(obj, flag)
    return out


def to_json_obj(results: list[TableResult]) -> dict:
    """JSON-ready dict; printed and recomputed values as decimal strings,
    signs and global signs as JSON integers."""
    return {"tables": [_json_level(res) for res in results]}
