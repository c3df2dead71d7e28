"""Every name a module of the package imports is used there or exported,
every module-level private name is read somewhere in the package, and the
package's modules import one another without a cycle."""

import ast
import graphlib
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "catwb"

# standard-library modules that catwb's arithmetic never uses and that cost
# start-up time: dataclasses brings inspect (and ast, dis, tokenize) with it,
# hashlib loads OpenSSL, which only a verify report needs
HEAVY_AT_STARTUP = {"dataclasses", "inspect", "hashlib", "_hashlib"}

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


def _private_names(node: ast.stmt) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    else:
        names = []
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def _reads(tree: ast.AST) -> Counter:
    """How often each name is read in the tree: as a loaded name, or as an
    attribute whatever its context."""
    reads = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads[node.id] += 1
        elif isinstance(node, ast.Attribute):
            reads[node.attr] += 1
    return reads


def unread_private_names(trees: dict[str, ast.Module]) -> list[str]:
    """Module-level private functions, classes and assignments (dunders
    aside) that no module of the package reads outside their definition.
    Each tree is walked once for its reads; the reads inside a definition,
    from its own subtree, are taken off."""
    reads = sum(map(_reads, trees.values()), Counter())
    return [
        f"{module}.py:{node.lineno} defines {name}"
        for module, tree in trees.items()
        for node in tree.body
        for name in _private_names(node)
        if reads[name] == _reads(node)[name]
    ]


def test_no_unread_private_names():
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in SRC.glob("*.py")}
    assert unread_private_names(trees) == []


def test_an_unread_private_name_is_reported():
    trees = {
        "a": ast.parse(
            "_LIMIT = 3\n"
            "_dead: int = 0\n"
            "def _rec(n):\n    return _rec(n - 1) if n else 0\n"
            "def _used():\n    return _LIMIT\n"
            "class _Box:\n    pass\n"
        ),
        "b": ast.parse("from .a import _used\nimport a\nx = _used() + a._Box\n"),
    }
    assert unread_private_names(trees) == ["a.py:2 defines _dead", "a.py:3 defines _rec"]


def _modules_after(statement: str) -> set[str]:
    code = f"import sys\n{statement}\nprint(' '.join(sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return set(out.stdout.split())


@pytest.mark.parametrize("module", ["catwb.cli", "catwb.fmverify"])
def test_import_loads_no_heavy_stdlib(module):
    # against a bare interpreter, so that whatever `site` preloads is discounted
    added = _modules_after(f"import {module}") - _modules_after("pass")
    assert module in added
    assert added & HEAVY_AT_STARTUP == set()


def package_imports(tree: ast.Module) -> tuple[set[str], list[tuple[str, str, tuple[str, ...]]]]:
    """The sibling modules a module imports at module level (`from .x import`),
    and its package imports inside functions as (function, module, names)."""
    top = {node.module for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1}
    inner = [
        (func.name, node.module, tuple(alias.name for alias in node.names))
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, ast.ImportFrom) and node.level == 1
    ]
    return top, inner


def test_package_imports_form_no_cycle():
    graph = {path.stem: package_imports(ast.parse(path.read_text()))[0] for path in SRC.glob("*.py")}
    graphlib.TopologicalSorter(graph).prepare()  # CycleError names the modules of a cycle


def test_one_package_import_inside_a_function():
    inner = {
        (path.stem, *imp) for path in SRC.glob("*.py") for imp in package_imports(ast.parse(path.read_text()))[1]
    }
    # ncposet imports wgroup, and perfbench's tracer looks chain_counts_classical up in wgroup
    assert inner == {("wgroup", "chain_counts_classical", "ncposet", ("build_ncm",))}
