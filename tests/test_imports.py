"""Every name a tklab module imports is used in it, and every private
helper is read.

The package's ``__init__`` re-exports by importing, so it is skipped; an
import kept on purpose is marked ``# noqa: F401`` on its statement.  A
private module-level function or class that nothing outside its own
definition reads is left over from a refactor.
"""

import ast
from pathlib import Path

import pytest

import tklab

MODULES = sorted(p for p in Path(tklab.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names imported by ``source`` that it never reads, in order."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        imported += [(alias.asname or alias.name).split(".")[0] for alias in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import numpy as np\n"
              "from .a import (b, c,\n    d)\n"
              "from .e import f  # noqa: F401\n"
              "def g(x: c) -> int:\n    return b(x)\n")
    assert unused_imports(source) == ["np", "d"]


def orphaned_helpers(sources: dict[str, str]) -> list[str]:
    """``module.name`` of every private module-level function and class in
    ``sources`` (module name -> source) that no ``Name`` or ``Attribute``
    in them reads outside the helper's own definition."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reads: dict[str, list[tuple[str, int]]] = {}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute) else None)
            if name is not None:
                reads.setdefault(name, []).append((module, node.lineno))
    orphans = []
    for module, tree in trees.items():
        for node in tree.body:
            if not (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_")):
                continue
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            if all(where == module and first <= line <= node.end_lineno
                   for where, line in reads.get(node.name, [])):
                orphans.append(f"{module}.{node.name}")
    return orphans


def test_every_private_helper_is_read():
    sources = {path.stem: path.read_text()
               for path in Path(tklab.__file__).parent.glob("*.py")}
    assert orphaned_helpers(sources) == []


def test_the_check_sees_an_orphaned_helper():
    sources = {"a": ("def _used(x):\n    return _used(x - 1) if x else 0\n"
                     "def _recursive(x):\n    return _recursive(x)\n"
                     "class _Kept:\n    pass\n"
                     "class _Dropped:\n    def f(self):\n        return _Dropped\n"
                     "def public():\n    return _used(1)\n"),
               "b": "from . import a\nVALUE = a._Kept\n"}
    assert orphaned_helpers(sources) == ["a._recursive", "a._Dropped"]
