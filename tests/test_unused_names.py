"""Every top-level name of the package has a caller in the program.

A top-level function, class or assignment of ``src/cellswitch`` must be
named somewhere in ``src/cellswitch`` or ``bench/*.py`` outside the
statement that defines it; tests do not count, so code that only a
test calls fails here.  Dunder names are exempt.
"""

import ast
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


def _named(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


TREES = {path: ast.parse(path.read_text(encoding="utf-8"))
         for path in PROGRAM}


@pytest.mark.parametrize("path", PACKAGE, ids=lambda path: path.name)
def test_every_top_level_name_is_used(path):
    elsewhere = set().union(*(_named(tree) for other, tree in TREES.items()
                              if other != path))
    body = TREES[path].body
    named = [_named(stmt) for stmt in body]
    unused = []
    for index, stmt in enumerate(body):
        rest = elsewhere.union(*named[:index], *named[index + 1:])
        unused.extend(name for name in _defined(stmt)
                      if not name.startswith("__") and name not in rest)
    assert not unused, f"{path.name}: no caller for {unused}"
