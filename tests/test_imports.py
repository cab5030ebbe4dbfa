"""Every name a tklab module imports is used in it.

The package's ``__init__`` re-exports by importing, so it is skipped; an
import kept on purpose is marked ``# noqa: F401`` on its statement.
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
