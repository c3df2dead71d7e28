"""Every name a module of the package imports is used there or exported,
every module-level private name is read somewhere in the package, every
module-level public name too unless it is listed as kept for readers
outside the package, and the package's modules import one another without
a cycle."""

import ast
import graphlib
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "catwb"

# standard-library modules that catwb's arithmetic never uses and that cost
# start-up time: dataclasses brings inspect (and ast, dis, tokenize) with it,
# hashlib loads OpenSSL, which nothing in catwb needs: reports hash their
# polynomials with the interpreter's own SHA-256
HEAVY_AT_STARTUP = {"dataclasses", "inspect", "hashlib", "_hashlib"}
OPENSSL = {"hashlib", "_hashlib", "ssl"}

# imported for other modules to read: the benchmark's tracer checks that
# ncposet's build_nc is the one it wraps in wgroup
REEXPORTED = {("ncposet", "build_nc")}

# module-level public names that no module of the package reads, each with
# the readers outside the package it is kept for: the README, which names it
# in code, and the files under perfbench/ that read it
UNREAD_PUBLIC = {
    ("fmverify", "verify_fm_dn_general"): "library API named in the README (the open D-family case)",
    ("ftriangle", "refined_face_number"): "library API named in the README",
    ("ftriangle", "row_sum"): "library API named in the README",
    ("ftriangle", "row_sum_closed"): "library API named in the README",
    ("identities", "chu_vandermonde"): "library API named in the README",
    ("rootdata", "group_order"): "library API named in the README",
    ("rootdata", "ir"): "library API named in the README, and read by perfbench/job.py",
    ("wgroup", "build_nc"): "read by perfbench/spans.py",
    ("wgroup", "char_poly"): "read by perfbench/spans.py",
    ("wgroup", "enumerate_group"): "library API named in the README, and read by perfbench/spans.py",
    ("wgroup", "parabolic_type_of"): "read by perfbench/spans.py",
}


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


def _defined_names(node: ast.stmt) -> list[str]:
    """The names a module-level statement defines, dunders aside."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    else:
        names = []
    return [name for name in names if not name.startswith("__")]


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


def _methods(tree: ast.Module) -> list[ast.stmt]:
    """The methods and properties defined in the bodies of the module's
    classes."""
    return [node for cls in tree.body if isinstance(cls, ast.ClassDef) for node in cls.body
            if isinstance(node, ast.FunctionDef)]


def _unread_names(trees: dict[str, ast.Module], private: bool) -> list[tuple[str, int, str]]:
    """(module, line, name) for the module-level private (or public)
    functions, classes and assignments, and for the private methods and
    properties of module-level classes, dunders aside, that no module of the
    package reads outside their definition.  Each tree is walked once for
    its reads; the reads inside a definition, from its own subtree, are
    taken off."""
    reads = sum(map(_reads, trees.values()), Counter())
    return [
        (module, node.lineno, name)
        for module, tree in trees.items()
        for node in tree.body + (_methods(tree) if private else [])
        for name in _defined_names(node)
        if name.startswith("_") == private and reads[name] == _reads(node)[name]
    ]


def unread_private_names(trees: dict[str, ast.Module]) -> list[str]:
    return [f"{module}.py:{line} defines {name}" for module, line, name in _unread_names(trees, private=True)]


def unread_public_names(trees: dict[str, ast.Module], listed) -> list[str]:
    """The unread public names that `listed`, a collection of (module, name),
    does not hold."""
    return [
        f"{module}.py:{line} defines {name}"
        for module, line, name in _unread_names(trees, private=False)
        if (module, name) not in listed
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
            "class Cell:\n"
            "    def __init__(self):\n        self._n = 0\n"
            "    def _left_over(self):\n        return self._left_over()\n"
            "    @property\n    def _read(self):\n        return self._n\n"
        ),
        "b": ast.parse("from .a import _used\nimport a\nx = _used() + a._Box + a.Cell()._read\n"),
    }
    assert unread_private_names(trees) == ["a.py:2 defines _dead", "a.py:3 defines _rec", "a.py:12 defines _left_over"]


def test_every_unread_public_name_is_listed():
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in SRC.glob("*.py")}
    assert unread_public_names(trees, UNREAD_PUBLIC) == []
    # and the list holds no name that the package reads or no longer defines
    assert set(UNREAD_PUBLIC) <= {(module, name) for module, _, name in _unread_names(trees, private=False)}


def unfounded_reasons(listed: dict, readme: str, read) -> list[str]:
    """The entries of `listed`, (module, name) -> reason, whose reason names
    no reader, or a reader that does not name the name: the README in a code
    span or block, or a perfbench/ file, whose text `read` returns."""
    code = set(re.findall(r"\w+", " ".join(re.findall(r"```.*?```|`[^`\n]+`", readme, re.S))))
    out = []
    for (module, name), reason in listed.items():
        files = re.findall(r"perfbench/\w+\.py", reason)
        in_readme = "README" in reason
        if not (files or in_readme) or (in_readme and name not in code):
            out.append(f"{module}.{name}: {reason}")
        out += [f"{module}.{name}: {f} does not read it" for f in files if not re.search(rf"\b{name}\b", read(f))]
    return out


def test_each_listed_reason_holds():
    readme = (ROOT / "README.md").read_text()
    assert unfounded_reasons(UNREAD_PUBLIC, readme, lambda f: (ROOT / f).read_text()) == []


def test_an_unfounded_reason_is_reported():
    readme = "Call `api(t)`:\n```python\nfrom a import ir\n```\nand helper here.\n"
    files = {"perfbench/job.py": "from a import ir, api\n"}
    listed = {
        ("a", "api"): "named in the README, and read by perfbench/job.py",
        ("a", "ir"): "named in the README",
        ("a", "helper"): "named in the README",
        ("a", "tool"): "read by perfbench/job.py",
        ("a", "extra"): "kept for later",
    }
    assert unfounded_reasons(listed, readme, files.__getitem__) == [
        "a.helper: named in the README",
        "a.tool: perfbench/job.py does not read it",
        "a.extra: kept for later",
    ]


def test_an_unlisted_unread_public_name_is_reported():
    trees = {
        "a": ast.parse(
            "LIMIT = 3\n"
            "def helper():\n    return LIMIT\n"
            "def api():\n    return helper()\n"
            "def only_for_tests():\n    return 0\n"
        ),
        "b": ast.parse("from .a import only_for_tests\n"),
    }
    assert unread_public_names(trees, {("a", "api")}) == ["a.py:6 defines only_for_tests"]
    assert unread_public_names(trees, {}) == ["a.py:4 defines api", "a.py:6 defines only_for_tests"]


def _modules_after(statement: str) -> set[str]:
    """The modules loaded in a fresh interpreter once the statement has run,
    printed on the last line of its output."""
    code = f"import sys\n{statement}\nprint()\nprint(' '.join(sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return set(out.stdout.splitlines()[-1].split())


@pytest.mark.parametrize("module", ["catwb.cli", "catwb.fmverify"])
def test_import_loads_no_heavy_stdlib(module):
    # against a bare interpreter, so that whatever `site` preloads is discounted
    added = _modules_after(f"import {module}") - _modules_after("pass")
    assert module in added
    assert added & HEAVY_AT_STARTUP == set()


def test_verify_loads_no_openssl(tmp_path):
    # the pass writes a report, with a SHA-256 of each side's polynomial
    loaded = _modules_after(
        "from catwb.cli import main\n"
        f"assert main(['verify', '--suite', 'recurrence', '--cache-dir', {str(tmp_path)!r}]) == 0"
    )
    assert '"lhs_hash":' in (tmp_path / "verify_recurrence.json").read_text()
    assert loaded & OPENSSL == set()


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
