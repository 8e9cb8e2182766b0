"""Every name the package defines has a caller in the program.

A top-level function, class or assignment of ``src/cellswitch``, and a
method or property of a top-level class, must be named somewhere in
``src/cellswitch`` or ``bench/*.py`` outside the statement that
defines it; tests do not count, so code that only a test calls fails
here.  Dunder names are exempt.  A name a module imports, at its top
or inside a function, must be named again in that module, so a
deletion that leaves an import behind fails too.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "cellswitch").glob("*.py"))
PROGRAM = PACKAGE + sorted((ROOT / "bench").glob("*.py"))


def _defined(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return [stmt.name]
    targets = (stmt.targets if isinstance(stmt, ast.Assign)
               else [stmt.target] if isinstance(stmt, ast.AnnAssign)
               else [])
    return [node.id for target in targets for node in ast.walk(target)
            if isinstance(node, ast.Name)]


def _methods(stmt: ast.stmt) -> list[ast.stmt]:
    """The methods and properties of a class statement."""
    if not isinstance(stmt, ast.ClassDef):
        return []
    return [item for item in stmt.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]


def _named(tree: ast.AST) -> Counter:
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name.rpartition(".")[2]] += 1
    return names


TREES = {path: ast.parse(path.read_text(encoding="utf-8"))
         for path in PROGRAM}
NAMED = sum((_named(tree) for tree in TREES.values()), Counter())


def _unused(definitions) -> list[str]:
    """The non-dunder names that no statement but their own names."""
    return [name for stmt, names in definitions for name in names
            if not name.startswith("__") and NAMED[name] == _named(stmt)[name]]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda path: path.name)
def test_every_top_level_name_is_used(path):
    unused = _unused((stmt, _defined(stmt)) for stmt in TREES[path].body)
    assert not unused, f"{path.name}: no caller for {unused}"


@pytest.mark.parametrize("path", PACKAGE, ids=lambda path: path.name)
def test_every_method_is_used(path):
    unused = _unused((method, [method.name]) for stmt in TREES[path].body
                     for method in _methods(stmt))
    assert not unused, f"{path.name}: no caller for {unused}"


def _imported(tree: ast.AST) -> list[str]:
    """The names the import statements of a module bind."""
    return [alias.asname or alias.name.partition(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda path: path.name)
def test_every_import_is_used(path):
    tree = TREES[path]
    named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [name for name in _imported(tree) if name not in named]
    assert not unused, f"{path.name}: imports {unused} and never names them"
