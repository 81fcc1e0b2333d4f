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
