"""Every name a module of the package imports is used there or exported."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "catwb"

# imported for other modules to read: the benchmark's tracer checks that
# ncposet's build_nc is the one it wraps in wgroup
REEXPORTED = {("ncposet", "build_nc")}


def unused_imports(tree: ast.Module, module: str) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    return [
        f"{module}.py:{line} imports {name}"
        for name, line in sorted(imported.items(), key=lambda kv: kv[1])
        if name not in used and name not in exported and (module, name) not in REEXPORTED
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert unused_imports(tree, path.stem) == []


def test_an_unused_import_is_reported():
    tree = ast.parse("from math import comb, gcd\n__all__ = ['gcd']\n")
    assert unused_imports(tree, "m") == ["m.py:1 imports comb"]
