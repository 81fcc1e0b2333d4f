"""Spans and counters around flagchern's module boundaries, for traced runs.

``Tracer.install`` rebinds each traced function in every loaded flagchern
module that holds it (so calls through ``from .x import f`` names are seen
too), plus the method ``FlagManifold.summands``.  Spans (name, start, end,
parent) stay in memory until ``dump``.  A layer's self time is its span time
minus the time its child spans cover.  A traced name the package no longer
has is listed as absent; its metrics read 0.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

MARK = "__perfbench_traced__"

# (span name, module, attribute); several attributes may share a span name.
TARGETS = [
    ("rootsys.weyl_group", "flagchern.rootsys", "weyl_group"),
    ("flagmodel.parse_manifold", "flagchern.flagmodel", "parse_manifold"),
    ("flagmodel.summands", "flagchern.flagmodel", "FlagManifold.summands"),
    ("flagmodel.classify_acs", "flagchern.flagmodel", "classify_acs"),
    ("flagmodel.inner_summand_actions", "flagchern.flagmodel",
     "inner_summand_actions"),
    ("flagmodel.is_integrable", "flagchern.flagmodel", "is_integrable"),
    ("chern.chern_numbers", "flagchern.chern", "chern_numbers"),
    ("chern.chern_number_nf", "flagchern.chern", "chern_number_nf"),
    ("chern.chern_classes", "flagchern.chern", "chern_classes"),
    ("chern.todd_genus", "flagchern.chern", "todd_genus"),
    ("chern.todd_polynomial", "flagchern.chern", "todd_polynomial"),
    ("polyring.elementary_symmetric_in", "flagchern.polyring",
     "elementary_symmetric_in"),
    ("groebner.normal_form", "flagchern.groebner", "normal_form"),
    ("groebner.borel_groebner", "flagchern.groebner", "borel_groebner"),
    ("groebner.buchberger", "flagchern.groebner", "buchberger"),
    ("cohomology.verify_case", "flagchern.cohomology", "verify_case"),
    ("cli.main", "flagchern.cli", "main"),
    ("tables.reproduce", "flagchern.tables", "reproduce"),
    ("tables.render", "flagchern.tables", "to_json_obj"),
    ("tables.render", "flagchern.tables", "to_markdown"),
    ("tables.render", "flagchern.tables", "to_csv"),
    ("tables.load_registry", "flagchern.tables", "load_registry"),
]

# per-layer metrics: name -> unit, in the order BENCHMARK.json lists them
LAYER_METRICS = {
    "rootsys.weyl_group.calls": "count",
    "rootsys.weyl_group.builds": "count",
    "rootsys.weyl_elements_built": "count",
    "rootsys.weyl_group.self_s": "s",
    "flagmodel.parse_manifold.self_s": "s",
    "flagmodel.summands.self_s": "s",
    "flagmodel.classify_acs.self_s": "s",
    "flagmodel.inner_summand_actions.self_s": "s",
    "flagmodel.is_integrable.calls": "count",
    "flagmodel.is_integrable.self_s": "s",
    "flagmodel.is_integrable.calls_per_structure": "ratio",
    "chern.chern_numbers.calls": "count",
    "chern.chern_numbers.self_s": "s",
    "chern.weyl_sum_numbers": "count",
    "chern.chern_number_nf.calls": "count",
    "chern.chern_number_nf.self_s": "s",
    "chern.chern_classes.calls": "count",
    "chern.chern_classes.self_s": "s",
    "chern.chern_classes.calls_per_nf_number": "ratio",
    "polyring.elementary_symmetric_in.self_s": "s",
    "groebner.normal_form.calls": "count",
    "groebner.normal_form.self_s": "s",
    "groebner.normal_form.terms_in": "count",
    "groebner.normal_form.peak_terms": "count",
    "groebner.borel_groebner.self_s": "s",
    "groebner.buchberger.calls": "count",
    "groebner.buchberger.self_s": "s",
    "cohomology.verify_case.self_s": "s",
    "chern.todd_genus.self_s": "s",
    "chern.todd_polynomial.self_s": "s",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "tables.reproduce.self_s": "s",
    "tables.render.self_s": "s",
    "tables.load_registry.self_s": "s",
    "trace.overhead_s": "s",
}


def _flagchern_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "flagchern"
                                  or n.startswith("flagchern."))]


def _resolve(module: str, attr: str):
    """(owner, name, current value) of a traced attribute, or None."""
    owner = sys.modules.get(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    if owner is None or not hasattr(owner, name):
        return None
    return owner, name, getattr(owner, name)


def count_wrapped() -> int:
    """How many traced names currently hold a tracing wrapper."""
    seen = 0
    for _, module, attr in TARGETS:
        *path, name = attr.split(".")
        for mod in _flagchern_modules():
            owner = mod
            for part in path:
                owner = getattr(owner, part, None)
            if owner is not None and hasattr(getattr(owner, name, None),
                                             MARK):
                seen += 1
    return seen


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple[int, float, float, int]] = []
        self.stack: list[list] = []  # [span id, time covered by children]
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.absent: list[str] = []
        self.counters = {"weyl_builds": 0, "weyl_elements": 0,
                         "weyl_sum_numbers": 0, "census": 0,
                         "nf_terms_in": 0, "nf_peak_terms": 0}
        self._weyl_groups: dict[int, object] = {}
        self._summands = None
        self._restore: list[tuple[object, str, object]] = []

    # -- observers of call arguments and results --------------------------

    def _weyl(self, args, result):
        if id(result) not in self._weyl_groups:
            self._weyl_groups[id(result)] = result  # keeps ids unique
            self.counters["weyl_builds"] += 1
            self.counters["weyl_elements"] += len(result)

    def _numbers(self, args, result):
        self.counters["weyl_sum_numbers"] += len(result)

    def _classify(self, args, result):
        summands = self._summands or type(args[0]).summands
        self.counters["census"] += 2 ** (len(summands(args[0])) - 1)

    def _normal_form(self, args, result):
        n_in = len(args[0].terms)
        self.counters["nf_terms_in"] += n_in
        self.counters["nf_peak_terms"] = max(
            self.counters["nf_peak_terms"], n_in, len(result.terms))

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        observers = {"rootsys.weyl_group": self._weyl,
                     "chern.chern_numbers": self._numbers,
                     "flagmodel.classify_acs": self._classify,
                     "groebner.normal_form": self._normal_form}
        for span, module, attr in TARGETS:
            found = _resolve(module, attr)
            if found is None:
                self.absent.append(f"{module}.{attr}")
                continue
            owner, name, original = found
            if attr == "FlagManifold.summands":
                self._summands = original
            wrapper = self._wrap(span, original, observers.get(span))
            self._rebind(owner, name, original, wrapper)
            for mod in _flagchern_modules():
                if mod is not owner and getattr(mod, name, None) is original:
                    self._rebind(mod, name, original, wrapper)

    def _rebind(self, owner, name, original, wrapper) -> None:
        self._restore.append((owner, name, original))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _wrap(self, span: str, fn, observe):
        if span not in self.names:
            self.names.append(span)
        index = self.names.index(span)
        self.self_s.setdefault(span, 0.0)
        self.calls.setdefault(span, 0)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1][0] if stack else -1
            frame = [len(tracer.spans), 0.0]
            tracer.spans.append(None)
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                tracer.spans[frame[0]] = (index, start, end, parent)
                tracer.self_s[span] += duration - frame[1]
                tracer.calls[span] += 1
                if stack:
                    stack[-1][1] += duration
            if observe is not None:
                observe(args, result)
            return result

        setattr(wrapper, MARK, True)
        return wrapper

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except trace.overhead_s."""
        out: dict[str, float] = {}
        for name in LAYER_METRICS:
            span, _, field = name.rpartition(".")
            if field == "self_s":
                out[name] = self.self_s.get(span, 0.0)
            elif field == "calls":
                out[name] = self.calls.get(span, 0)
        c = self.counters
        calls = self.calls
        out["rootsys.weyl_group.builds"] = c["weyl_builds"]
        out["rootsys.weyl_elements_built"] = c["weyl_elements"]
        out["chern.weyl_sum_numbers"] = c["weyl_sum_numbers"]
        out["groebner.normal_form.terms_in"] = c["nf_terms_in"]
        out["groebner.normal_form.peak_terms"] = c["nf_peak_terms"]
        out["flagmodel.is_integrable.calls_per_structure"] = (
            calls.get("flagmodel.is_integrable", 0) / c["census"]
            if c["census"] else 0.0)
        nf = calls.get("chern.chern_number_nf", 0)
        out["chern.chern_classes.calls_per_nf_number"] = (
            calls.get("chern.chern_classes", 0) / nf if nf else 0.0)
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "names": self.names, "absent": self.absent,
                       "spans": self.spans},
                      fh, separators=(",", ":"))
