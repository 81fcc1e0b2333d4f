import ast
from pathlib import Path

import flagchern

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
    # per-type tables are memoised with functools.cache or cached_property;
    # the root-system registry stays, as it normalises the family name
    memos = {f"{p.stem}.{name}"
             for p in (REPO / "src" / "flagchern").glob("*.py")
             for name in module_memos(p)}
    assert memos == {"rootsys._ROOT_SYSTEMS"}


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
