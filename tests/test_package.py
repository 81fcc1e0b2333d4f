import ast
import inspect
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import flagchern
from flagchern import (ACSClass, GroebnerBasis, InvariantACS,
                       IsotropySummand, MonomialOrder, Polynomial, RootSystem,
                       build_root_system)
from flagchern.chern import ToddExpansion
from flagchern.cohomology import PresentationCase
from flagchern.rootsys import BruhatCovers

REPO = Path(__file__).resolve().parent.parent


def test_every_exported_name_resolves():
    missing = [name for name in flagchern.__all__
               if not hasattr(flagchern, name)]
    assert missing == []
    assert len(set(flagchern.__all__)) == len(flagchern.__all__)


def unused_imports(path: Path) -> list[tuple[int, str]]:
    """(line, name) of each name ``path`` imports that no name, attribute
    base or ``__all__`` entry reads.  Imports on a line marked
    ``# noqa: F401`` are skipped."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= {e.value for e in node.value.elts}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                unused.append((node.lineno, name))
    return unused


def test_no_unused_imports():
    sources = [*(REPO / "src" / "flagchern").glob("*.py"),
               *(REPO / "scripts").glob("*.py")]
    assert len(sources) > 10
    unused = {p.relative_to(REPO).as_posix(): unused_imports(p)
              for p in sorted(sources)}
    assert {p: u for p, u in unused.items() if u} == {}


def private_definitions(tree: ast.Module) -> list[tuple[str, ast.stmt]]:
    """(name, statement) of each private function, class or constant that
    a module defines at its top level; dunder names are not private."""
    defs = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        defs += [(name, node) for name in names
                 if name.startswith("_") and not name.endswith("__")]
    return defs


def names_read(node: ast.AST) -> set[str]:
    """Names that ``node`` reads: as a name, as an attribute of a module or
    object, or by importing it from another module."""
    read = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            read.add(n.id)
        elif isinstance(n, ast.Attribute):
            read.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            read |= {alias.name for alias in n.names}
    return read


def test_every_private_definition_is_read_by_the_package():
    # a private helper that only tests (or nothing) read is dead code;
    # a definition reading itself, as a recursive function does, does not
    # count
    trees = {p.stem: ast.parse(p.read_text())
             for p in (REPO / "src" / "flagchern").glob("*.py")}
    reads = [(stem, node, names_read(node))
             for stem, tree in trees.items() for node in tree.body]
    unread = {f"{stem}.{name}"
              for stem, tree in trees.items()
              for name, node in private_definitions(tree)
              if not any(name in r for s, n, r in reads
                         if not (s == stem and n is node))}
    assert unread == set()


def module_memos(path: Path) -> list[str]:
    """Names that ``path`` binds at module level to ``{}``, ``dict()`` or
    ``None``: the shape of a hand-rolled memo."""
    names = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        empty = (isinstance(value, ast.Dict) and not value.keys
                 or isinstance(value, ast.Constant) and value.value is None
                 or isinstance(value, ast.Call) and not value.args
                 and not value.keywords
                 and isinstance(value.func, ast.Name)
                 and value.func.id == "dict")
        if empty:
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return names


def test_no_module_level_memos():
    # per-type tables, root systems included, are memoised with
    # functools.cache or cached_property
    memos = {f"{p.stem}.{name}"
             for p in (REPO / "src" / "flagchern").glob("*.py")
             for name in module_memos(p)}
    assert memos == set()


def scoped_nodes(path: Path):
    """(scope, node) for every node of ``path``, where scope is the dotted
    name of the enclosing classes and functions, or "<module>"."""
    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = scope + [child.name]
            yield ".".join(inner) or "<module>", child
            yield from walk(child, inner)
    return walk(ast.parse(path.read_text()), [])


def test_flag_manifolds_are_built_only_by_the_factory():
    # flag_manifold hands out one object per root system and Theta, so a
    # command that called the constructor would rebuild its tables
    callers = {f"{p.stem}.{scope}"
               for p in (REPO / "src" / "flagchern").glob("*.py")
               for scope, node in scoped_nodes(p)
               if isinstance(node, ast.Call)
               and (getattr(node.func, "id", None) == "FlagManifold"
                    or getattr(node.func, "attr", None) == "FlagManifold")}
    assert callers == {"flagmodel._flag_manifold"}


def test_shared_flag_manifolds_are_not_mutated():
    # a shared manifold is written only while it is built, and by its
    # cached properties; no attribute of a ``flag`` is ever assigned
    writes = set()
    for p in (REPO / "src" / "flagchern").glob("*.py"):
        for scope, node in scoped_nodes(p):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = getattr(node, "targets", None) or [node.target]
                writes |= {(p.stem, scope, t.value.id) for t in targets
                           if isinstance(t, ast.Attribute)
                           and isinstance(t.value, ast.Name)}
            elif (isinstance(node, ast.Call)
                  and getattr(node.func, "id", None) == "setattr"):
                writes.add((p.stem, scope, "setattr"))
    assert {w for w in writes if w[0] == "flagmodel"} == {
        ("flagmodel", "FlagManifold.__init__", "self")}
    assert not {w for w in writes if w[2] in ("flag", "setattr")}


ROOT_DATA = {"rootsys", "flagmodel", "chern", "tables"}
POLYNOMIALS = {"polyring", "groebner", "cohomology"}


def package_imports(path: Path) -> set[str]:
    """The flagchern modules that ``path`` imports, relatively or by the
    absolute name."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "flagchern":
                    continue
                module = module.partition(".")[2]
            if module:
                found.add(module.split(".")[0])
            else:  # from . import x
                found |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            found |= {alias.name.split(".")[1] for alias in node.names
                      if alias.name.startswith("flagchern.")}
    return found


def test_root_data_and_polynomial_halves_share_no_import():
    # the Chern numbers come from root data alone; only the cli joins the
    # two halves
    src = REPO / "src" / "flagchern"
    assert {p.stem for p in src.glob("*.py")} == (
        ROOT_DATA | POLYNOMIALS | {"__init__", "__main__", "cli"})
    crossing = {stem: package_imports(src / f"{stem}.py") & other
                for half, other in ((ROOT_DATA, POLYNOMIALS),
                                    (POLYNOMIALS, ROOT_DATA))
                for stem in half}
    assert {stem: c for stem, c in crossing.items() if c} == {}
    assert package_imports(src / "cli.py") >= {"chern", "groebner"}


def test_both_oracles_keep_one_call_shape():
    # chern_numbers_by calls each oracle once with the same arguments: a
    # manifold, its structures and one batch of monomials
    shapes = [list(inspect.signature(f).parameters)
              for f in (flagchern.chern_numbers_many,
                        flagchern.chern_numbers_schubert)]
    assert shapes[0] == shapes[1] == ["flag", "structures", "monomials"]


# public names that only the benchmark reads, each with the file that pins it
PINNED_BY_BENCHMARK = {
    "chern_numbers": "perfbench/tracing.py",
    "monomials_of_weighted_degree": "perfbench/tests/test_bench_reference.py",
}


def test_every_public_name_has_a_program_reader():
    # a public name that no module but __init__ and no script reads is dead
    # API; importing a name does not read it
    sources = [p for p in (REPO / "src" / "flagchern").glob("*.py")
               if p.name != "__init__.py"] + [*(REPO / "scripts").glob("*.py")]
    read = set()
    for p in sources:
        for n in ast.walk(ast.parse(p.read_text())):
            if isinstance(n, ast.Name):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
    unread = set(flagchern.__all__) - read - {"__version__"}
    assert unread == set(PINNED_BY_BENCHMARK)
    for name, path in PINNED_BY_BENCHMARK.items():
        assert name in (REPO / path).read_text()


# public methods and properties that only the benchmark reads, each with the
# file that pins it
METHODS_PINNED_BY_BENCHMARK = {
    "FlagManifold.w_k": "perfbench/tests/test_bench_reference.py",
}


def attribute_reads(node: ast.AST) -> Counter:
    """How often each name is read inside ``node``, as a name or as an
    attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, ast.Attribute)
                   or isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))


def test_every_public_method_has_a_program_reader():
    # a public method or property of a package class that nothing in the
    # package or the scripts reads, outside its own body, is dead API; as
    # for __all__, any read of the name counts
    src = sorted((REPO / "src" / "flagchern").glob("*.py"))
    trees = {p: ast.parse(p.read_text())
             for p in src + sorted((REPO / "scripts").glob("*.py"))}
    reads = sum((attribute_reads(t) for t in trees.values()), Counter())
    unread = {f"{cls.name}.{node.name}"
              for p in src for cls in trees[p].body
              if isinstance(cls, ast.ClassDef)
              for node in cls.body
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              and not node.name.startswith("_")
              and reads[node.name] == attribute_reads(node)[node.name]}
    assert unread == set(METHODS_PINNED_BY_BENCHMARK)
    for name, path in METHODS_PINNED_BY_BENCHMARK.items():
        assert name.split(".")[1] in (REPO / path).read_text()


def private_reads_across_modules(path: Path) -> set[str]:
    """Each ``module._name`` that ``path`` imports from another flagchern
    module, or reads as an attribute of one it imported; dunder names are
    not private."""
    modules = {p.stem for p in path.parent.glob("*.py")}
    found, aliases, attributes = set(), {}, []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.split(".")[0] != "flagchern":
                continue
            module = module.removeprefix("flagchern").lstrip(".")
            for alias in node.names:
                if not module and alias.name in modules:
                    aliases[alias.asname or alias.name] = alias.name
                else:
                    found.add(f"{module}.{alias.name}")
        elif isinstance(node, ast.Import):
            aliases |= {alias.asname or alias.name: alias.name.split(".")[-1]
                        for alias in node.names
                        if alias.name.startswith("flagchern.")}
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name)):
            attributes.append(node)
    found |= {f"{aliases[n.value.id]}.{n.attr}" for n in attributes
              if n.value.id in aliases}
    return {name for name in found
            if name.rpartition(".")[2].startswith("_")
            and not name.endswith("__")}


def test_private_names_stay_in_their_module():
    # a module reads only the public names of the other flagchern modules
    crossing = {p.stem: private_reads_across_modules(p)
                for p in (REPO / "src" / "flagchern").glob("*.py")}
    assert {stem: c for stem, c in crossing.items() if c} == {}


def test_value_types_keep_their_contract():
    # equal fields, by position or by keyword, give equal values with equal
    # hashes; every type but ACSClass refuses assignment, and three check
    # their input on construction
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    acs = InvariantACS((1, -1))
    values = [
        (IsotropySummand, {"t_root": (Fraction(1, 3), Fraction(-1, 3)),
                           "roots": (0, 2), "coeffs": (1,)}),
        (InvariantACS, {"signs": (1, -1)}),
        (ACSClass, {"representative": acs, "members": (acs,),
                    "integrable": False}),
        (BruhatCovers, {"offsets": (0, 1, 1), "targets": (1,), "roots": (0,),
                        "top": 1, "starts": (0, 1, 2)}),
        (ToddExpansion, {"numerators": {(2, 0): 1, (0, 1): 1},
                         "denominator": 12}),
        (MonomialOrder, {"kind": "grevlex"}),
        (GroebnerBasis, {"generators": (x * y, y ** 2),
                         "order": MonomialOrder("lex")}),
        (PresentationCase, {"name": "c", "generators": (x ** 2, y ** 2),
                            "relations": (x ** 2,), "top_class": x * y,
                            "expected_quotient_dim": 4,
                            "claimed_basis": (x ** 2, y ** 2)}),
    ]
    for cls, fields in values:
        a, b = cls(*fields.values()), cls(**fields)
        assert a == b and not a != b
        if cls is ACSClass:  # never frozen: only its equality is pinned
            continue
        if cls is not ToddExpansion:  # its numerators are a dict
            assert hash(a) == hash(b)
        with pytest.raises(AttributeError):
            setattr(a, next(iter(fields)), None)
    assert InvariantACS((1, 1)) != acs
    case = values[-1][1]
    assert PresentationCase(**{**case, "claimed_basis": ()}) == \
        PresentationCase(*list(case.values())[:-1])

    rs = build_root_system("A", 3)
    assert repr(rs) == "RootSystem(family='A', rank=3)"
    copy = RootSystem(**{f: getattr(rs, f) for f in (
        "family", "rank", "vectors", "coords", "index", "positive", "simple",
        "cartan", "gram")})
    assert copy == copy and copy != rs and len({copy, rs}) == 2
    with pytest.raises(AttributeError):
        copy.rank = 4
    assert copy.rank == 3 and copy.reflections == rs.reflections

    with pytest.raises(ValueError, match="signs"):
        InvariantACS((1, 0))
    with pytest.raises(ValueError, match="monomial order"):
        MonomialOrder("foo")
    with pytest.raises(ValueError, match="not homogeneous"):
        PresentationCase("c", (x,), (x + x * y,), x, 1)


def test_importing_the_cli_loads_no_dataclasses():
    # dataclasses pulls in inspect, ast, dis and tokenize, and its decorator
    # execs generated methods: most of a command's start-up
    script = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "before = set(sys.modules); import flagchern.cli; "
              "print(' '.join(sorted(set(sys.modules) - before)))")
    added = subprocess.run([sys.executable, "-I", "-c", script,
                            str(REPO / "src")], capture_output=True,
                           text=True, check=True).stdout.split()
    assert "flagchern.cli" in added
    assert not {"dataclasses", "inspect"} & set(added)
