"""Command-line interface.

Subcommands: roots, decompose, acs, chern, table, groebner, cohomology,
verify.  Output formats: markdown (default), CSV, JSON (Chern numbers and
table values as decimal strings; counts such as chi, n_acs_up_to_conjugation
and weyl_order as JSON integers, however many digits).  Exit codes: 0 ok,
1 usage error, 2 verification mismatch, 3 internal invariant violation or
any other internal error, 141 when the reader closes stdout early; every
error is one line on stderr.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
from fractions import Fraction

from . import cohomology, tables
# chern_numbers is not called here, but perfbench/tests/test_bench_tracing.py
# checks that the tracer rebinds it in this module too
from .chern import chern_numbers  # noqa: F401
from .chern import (ORACLES, chern_numbers_by, format_cmonomial,
                    parse_cmonomial, todd_genus, todd_polynomial)
from .flagmodel import (InvariantACS, classify_acs, enumerate_acs,
                        integrable_sign_vectors, parse_manifold)
from .groebner import MonomialOrder, buchberger, borel_generators, quotient_dimension
from .polyring import Polynomial
from .rootsys import SUPPORTED_FAMILIES, build_root_system, weyl_order

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2
EXIT_INTERNAL = 3
EXIT_SIGPIPE = 141  # 128 + SIGPIPE, as cat exits on a closed pipe


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors (argparse default is 2)
        raise UsageError(message)


# -- output helpers -----------------------------------------------------------

def _emit_table(fmt: str, title: str, headers: list[str],
                rows: list[list[str]], out) -> None:
    """Write rows as a markdown or csv table; each command writes its own
    JSON."""
    if fmt == "md":
        if title:
            out.write(f"## {title}\n")
        out.write("| " + " | ".join(headers) + " |\n")
        out.write("|" + "---|" * len(headers) + "\n")
        for r in rows:
            out.write("| " + " | ".join(r) + " |\n")
    else:
        w = csv.writer(out, lineterminator="\n")
        w.writerow(headers)
        w.writerows(rows)


def _dump_json(obj, out) -> None:
    json.dump(obj, out, indent=1, sort_keys=True)
    out.write("\n")


def _vec_str(v) -> str:
    return "(" + ", ".join(str(x) for x in v) + ")"


def _parse_signs(text: str, expected: int) -> InvariantACS:
    parts = [p.strip() for p in text.split(",")]
    signs = []
    for p in parts:
        if p in ("+", "+1", "1"):
            signs.append(1)
        elif p in ("-", "-1"):
            signs.append(-1)
        else:
            raise UsageError(f"bad sign {p!r} in --acs (use +/-)")
    if len(signs) != expected:
        raise UsageError(f"--acs has {len(signs)} signs; the manifold has "
                         f"{expected} isotropy summands")
    return InvariantACS(tuple(signs))


# -- subcommands --------------------------------------------------------------

def cmd_roots(args, out) -> int:
    rs = build_root_system(args.family, args.rank)
    if args.format == "json":
        data = rs.to_json()
        data["weyl_order"] = weyl_order(rs)
        _dump_json(data, out)
        return EXIT_OK
    rows = [[f"alpha_{i+1}", _vec_str(a)] for i, a in enumerate(rs.simples)]
    _emit_table(args.format, f"Simple roots of {rs.family}{rs.rank}",
                ["simple root", "coordinates"], rows, out)
    rows = [[str(i + 1), _vec_str(rs.vectors[p]), str(sum(rs.coords[p]))]
            for i, p in enumerate(rs.positive)]
    _emit_table(args.format, "Positive roots",
                ["#", "coordinates", "height"], rows, out)
    if args.format == "md":
        out.write(f"\nWeyl group order: {weyl_order(rs)}\n")
    return EXIT_OK


def cmd_decompose(args, out) -> int:
    flag = parse_manifold(args.manifold)
    summands = flag.summands()
    s = len(summands)
    meta = {
        "manifold": flag.name(),
        "complex_dim": flag.complex_dim,
        "euler_characteristic": flag.euler_characteristic(),
        "n_summands": s,
        "n_acs_up_to_conjugation": 2 ** (s - 1),
    }
    rows = [[str(i + 1), _vec_str(m.t_root), str(m.dim_complex),
             str(m.height)] for i, m in enumerate(summands)]
    if args.format == "json":
        meta["summands"] = [
            {"index": i + 1, "t_root": [str(x) for x in m.t_root],
             "dim_complex": m.dim_complex, "height": str(m.height),
             "roots": [[str(x) for x in flag.rs.vectors[p]]
                       for p in m.roots]}
            for i, m in enumerate(summands)]
        _dump_json(meta, out)
        return EXIT_OK
    if args.format == "md":
        out.write(f"## Isotropy decomposition of {flag.name()}\n")
        for k, v in meta.items():
            out.write(f"- {k}: {v}\n")
    _emit_table(args.format, "", ["summand", "T-root", "dim_C", "height"],
                rows, out)
    return EXIT_OK


def cmd_acs(args, out) -> int:
    flag = parse_manifold(args.manifold)
    if args.action == "list":
        integrable = integrable_sign_vectors(flag)
        rows = [[acs.label(), "yes" if acs.signs in integrable else "no"]
                for acs in enumerate_acs(flag)]
        if args.format == "json":
            _dump_json({"manifold": flag.name(),
                        "structures": [{"signs": r[0], "integrable": r[1] == "yes"}
                                       for r in rows]}, out)
        else:
            _emit_table(args.format,
                        f"Invariant structures on {flag.name()} "
                        f"(up to conjugation)",
                        ["signs", "integrable"], rows, out)
        return EXIT_OK
    # classify
    classes = classify_acs(flag)
    if args.format == "json":
        _dump_json({"manifold": flag.name(), "n_classes": len(classes),
                    "classes": [{"representative": c.representative.label(),
                                 "size": c.size,
                                 "integrable": c.integrable,
                                 "members": [m.label() for m in c.members]}
                                for c in classes]}, out)
        return EXIT_OK
    rows = [[str(i + 1), cls.representative.label(), str(cls.size),
             "yes" if cls.integrable else "no",
             " ".join(m.label() for m in cls.members)]
            for i, cls in enumerate(classes)]
    _emit_table(args.format,
                f"Equivalence classes of invariant structures on "
                f"{flag.name()}",
                ["class", "representative", "size", "integrable",
                 "members"], rows, out)
    return EXIT_OK


def cmd_chern(args, out) -> int:
    flag = parse_manifold(args.manifold)
    s = len(flag.summands())
    # an empty --acs or --numbers is refused, not read as the default
    acs = (_parse_signs(args.acs, s) if args.acs is not None
           else InvariantACS((1,) * s))
    if args.numbers is not None:
        items = [m.strip() for m in args.numbers.split(",")]
        if not all(items):
            raise UsageError(f"empty monomial in --numbers "
                             f"{args.numbers!r}")
        # a repeated monomial is printed once, at its first place
        monos = list(dict.fromkeys(parse_cmonomial(m, flag.complex_dim)
                                   for m in items))
    else:
        top = [0] * (flag.complex_dim - 1) + [1]
        monos = [tuple(top)]
    # one batch serves the requested numbers and the Todd genus
    todd = todd_polynomial(flag.complex_dim).numerators if args.todd else {}
    [nums] = chern_numbers_by(flag, [acs], monos + list(todd), args.oracle)
    genus = todd_genus(flag, acs, nums) if args.todd else None
    if args.format == "json":
        data = {"manifold": flag.name(), "acs": acs.label(),
                "oracle": args.oracle,
                "numbers": {format_cmonomial(m): str(nums[m]) for m in monos}}
        if genus is not None:
            data["todd_genus"] = str(genus)
        _dump_json(data, out)
        return EXIT_OK
    rows = [[format_cmonomial(m), str(nums[m])] for m in monos]
    if genus is not None and args.format == "csv":
        rows.append(["todd_genus", str(genus)])
    _emit_table(args.format,
                f"Chern numbers on {flag.name()}, structure {acs.label()}",
                ["monomial", "value"], rows, out)
    if genus is not None and args.format == "md":
        out.write(f"\nTodd genus: {genus}\n")
    return EXIT_OK


def cmd_table(args, out) -> int:
    if args.action == "list":
        for tid in tables.table_ids():
            out.write(tid + "\n")
        return EXIT_OK
    results = tables.reproduce(args.table_id, args.oracle, args.slow)
    if args.format == "json":
        _dump_json(tables.to_json_obj(results), out)
    elif args.format == "csv":
        out.write(tables.to_csv(results))
    else:
        out.write(tables.to_markdown(results))
    if not all(r["ok"] for r in results):
        return EXIT_MISMATCH
    return EXIT_OK


_GB_PRESETS = ("borel:<family>:<rank> (e.g. borel:A:3, borel:D:3), so6, "
               "proj-tangent:<n>, or a JSON file")


def _load_ideal(spec: str):
    kind, _, rest = spec.partition(":")
    if kind == "borel":
        fam, _, rk = rest.partition(":")
        if not fam or not rk:
            raise UsageError(f"--ideal borel needs family:rank; got {spec!r}")
        return borel_generators(fam.upper(), cohomology.int_parameter(
            "--ideal borel:<family>:<rank>", rk))
    if spec == "so6":
        return borel_generators("D", 3)
    if kind == "proj-tangent":
        case = cohomology.projectivized_tangent_presentation(
            cohomology.int_parameter("--ideal proj-tangent:<n>", rest))
        return list(case.generators)
    try:
        with open(spec, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"--ideal: not a preset ({_GB_PRESETS}) and not a "
                         f"readable file: {exc}")
    except ValueError as exc:  # not UTF-8, or not JSON
        raise UsageError(f"--ideal: {spec} is not JSON: {exc}") from None
    if not isinstance(data, dict) or not {"nvars", "generators"} <= set(data):
        raise UsageError(f"--ideal: {spec} needs the keys 'nvars' and "
                         f"'generators'")
    nvars, gens = data["nvars"], data["generators"]
    # type(...) is int: JSON's true and false load as bools, which are ints
    if not (type(nvars) is int and nvars > 0 and isinstance(gens, list)
            and gens):
        raise UsageError(f"--ideal: {spec} needs a positive 'nvars' and a "
                         f"nonempty list of 'generators'")
    malformed = UsageError(f"--ideal: {spec}: each generator must be a list "
                           f"of [exponents, numerator, denominator] terms "
                           f"with {nvars} exponents each")
    if not all(isinstance(g, list) and all(_is_term(t, nvars) for t in g)
               for g in gens):
        raise malformed
    try:
        return [Polynomial.from_json(nvars, g) for g in gens]
    except (ValueError, ZeroDivisionError):  # "x" as a number, 0 below
        raise malformed from None


def _is_term(term, nvars: int) -> bool:
    return (isinstance(term, list) and len(term) == 3
            and isinstance(term[0], list) and len(term[0]) == nvars
            and all(type(e) is int and e >= 0 for e in term[0])
            and all(type(v) in (int, str) for v in term[1:]))


def cmd_groebner(args, out) -> int:
    gens = _load_ideal(args.ideal)
    order = MonomialOrder(args.order)
    gb = buchberger(gens, order)
    try:
        qdim = quotient_dimension(gb)
    except ValueError:
        qdim = None
    if args.format == "json":
        _dump_json({"ideal": args.ideal, "order": args.order,
                    "basis": [g.to_json() for g in gb.generators],
                    "basis_strings": [str(g) for g in gb.generators],
                    "quotient_dimension": qdim}, out)
        return EXIT_OK
    rows = [[str(i + 1), str(g)] for i, g in enumerate(gb.generators)]
    _emit_table(args.format,
                f"Reduced Groebner basis of {args.ideal} ({args.order})",
                ["#", "polynomial"], rows, out)
    if args.format == "md" and qdim is not None:
        out.write(f"\nQuotient dimension: {qdim}\n")
    return EXIT_OK


def cmd_cohomology(args, out) -> int:
    case = cohomology.presentation_case(args.case)
    summary = cohomology.verify_case(case)
    status = "PASS" if summary["ok"] else "FAIL"
    if args.format == "json":
        data = {k: (str(v) if isinstance(v, Fraction) else v)
                for k, v in summary.items()}
        data["status"] = status
        _dump_json(data, out)
    elif args.format == "csv":
        rows = [["status", status]] + [[k, str(v)] for k, v in summary.items()]
        _emit_table(args.format, "", ["key", "value"], rows, out)
    else:
        out.write(f"{status} {case.name}\n")
        for k, v in summary.items():
            if k != "case":
                out.write(f"  {k}: {v}\n")
    return EXIT_OK if summary["ok"] else EXIT_MISMATCH


def cmd_verify(args, out) -> int:
    """Run the end-to-end verification sweep over every registry table."""
    failures = []

    def check(name, ok):
        out.write(f"{'PASS' if ok else 'FAIL'} {name}\n")
        if not ok:
            failures.append(name)

    for tid in sorted(tables.load_registry()["tables"]):
        for r in tables.reproduce(tid, args.oracle, slow=True):
            n = sum(d["annotated"] for s in r["sections"]
                    for c in s["columns"] for d in c["diffs"])
            check(f"table {r['table_id']} (annotated cells: {n})", r["ok"])
    for tag in cohomology.CASE_EXAMPLES:
        summary = cohomology.verify_case(cohomology.presentation_case(tag))
        check(f"cohomology {tag}", summary["ok"])
    # Todd genus = 1 on canonical structures of the small manifolds
    for name in ["F(3;1,1,1)", "F(4)", "FD(3;1,2)", "FD(4;1,3)", "G2-long",
                 "G2-short", "SO(5)/T", "Sp(2)/T"]:
        flag = parse_manifold(name)
        acs = InvariantACS((1,) * len(flag.summands()))
        td = todd_polynomial(flag.complex_dim).numerators
        [nums] = chern_numbers_by(flag, [acs], list(td), args.oracle)
        check(f"todd genus 1 on {name}", todd_genus(flag, acs, nums) == 1)
    # projective-space sanity oracle
    for n in range(1, 5):
        flag = parse_manifold(f"F({n + 1};1,{n})")
        c1n = (n,) + (0,) * (n - 1)
        [v] = chern_numbers_by(flag, [InvariantACS((1,))], [c1n], args.oracle)
        ok = (v[c1n] == (n + 1) ** n
              and flag.euler_characteristic() == n + 1)
        check(f"projective space CP^{n}: c1^{n} = {(n + 1) ** n}, "
              f"chi = {n + 1}", ok)
    out.write(f"\n{len(failures)} failure(s)\n")
    return EXIT_MISMATCH if failures else EXIT_OK


# -- parser -------------------------------------------------------------------

@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built on the first call and shared by every
    later ``main`` call in the process.  It names no command function:
    ``main`` looks up ``cmd_<command>`` when it runs the command."""
    # each shared option goes only on the subcommands that read it
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=["md", "csv", "json"],
                     default="md", help="output format (default md)")
    oracle = argparse.ArgumentParser(add_help=False)
    oracle.add_argument("--oracle", choices=ORACLES, default="both",
                        help="integration oracle: weyl (fixed-point sum), "
                             "schubert (Chevalley's formula) or both, "
                             "asserting agreement (default); groebner is a "
                             "deprecated alias of schubert")

    p = _Parser(prog="flagchern",
                description="Exact Chern-number computations on generalized "
                            "flag manifolds")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("roots", parents=[fmt],
                       help="print a root system")
    q.add_argument("--family", required=True,
                   choices=SUPPORTED_FAMILIES, help="Cartan family")
    q.add_argument("--rank", type=int, required=True)

    q = sub.add_parser("decompose", parents=[fmt],
                       help="isotropy decomposition of a flag manifold")
    q.add_argument("manifold",
                   help="manifold name, e.g. F(7;1,2,4) or FD(3;1,2)")

    q = sub.add_parser("acs", parents=[fmt],
                       help="enumerate or classify invariant almost complex "
                            "structures")
    q.add_argument("action", choices=["list", "classify"])
    q.add_argument("manifold")

    q = sub.add_parser("chern", parents=[fmt, oracle],
                       help="Chern numbers of one structure")
    q.add_argument("--manifold", required=True)
    q.add_argument("--acs", default=None, metavar="+,-,+",
                   help="summand signs (default all +)")
    q.add_argument("--numbers", default=None, metavar="c1^14,c1^12c2",
                   help="comma-separated c-monomials (default: top class)")
    q.add_argument("--todd", action="store_true",
                   help="also compute the Todd genus")

    q = sub.add_parser("table", help="reproduce a reference table and diff it")
    actions = q.add_subparsers(dest="action", required=True)
    q = actions.add_parser("reproduce", parents=[fmt, oracle],
                           help="recompute a table and diff it")
    q.add_argument("--slow", action="store_true",
                   help="include the F(8) sections of tab2")
    q.add_argument("table_id")
    actions.add_parser("list", help="list the table ids")

    q = sub.add_parser("groebner", parents=[fmt],
                       help="reduced Groebner basis of a named or file ideal")
    q.add_argument("--ideal", required=True, help=_GB_PRESETS)
    q.add_argument("--order", choices=["lex", "grlex", "grevlex"],
                   default="lex", help="monomial order (default lex)")

    q = sub.add_parser("cohomology", parents=[fmt],
                       help="verify a cohomology presentation case")
    q.add_argument("action", choices=["verify"])
    q.add_argument("--case", required=True,
                   help="e.g. a-full:4, b-full:3, so6-groebner, "
                        "proj-tangent:2")

    q = sub.add_parser("verify", parents=[oracle],
                       help="run the verification sweep")
    return p


def _join_acs_value(argv: list[str]) -> list[str]:
    """Fold ``--acs <signs>`` into ``--acs=<signs>``.

    argparse reads a value that starts with ``-`` (``-,+,+``) as an option
    and would report the value of ``--acs`` as missing.
    """
    out: list[str] = []
    i = 0
    while i < len(argv):
        if argv[i] == "--acs" and i + 1 < len(argv):
            out.append(f"--acs={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_join_acs_value(list(argv)))
        code = globals()[f"cmd_{args.command}"](args, sys.stdout)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader has gone (``| head``): stop without a message, and point
        # stdout at devnull so the interpreter's final flush cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_SIGPIPE
    except (UsageError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ArithmeticError, AssertionError) as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
