"""One copy of the rank cut: no tklab module but ``subspaces`` calls
``rank_threshold``.

``config`` defines it and is exempt.  Every other rank decision goes through
``subspaces.rank_cut`` (or the certified cut of ``nullspace_within``), so a
cut and the gap it reports cannot drift apart between modules.
"""

import ast
from pathlib import Path

import pytest

import tklab

MODULES = sorted(p for p in Path(tklab.__file__).parent.glob("*.py")
                 if p.stem not in ("subspaces", "config"))


def rank_threshold_calls(source: str) -> list[int]:
    """The lines of ``source`` that call ``rank_threshold``, bare or as an
    attribute."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "rank_threshold":
                lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_cuts_no_rank_of_its_own(path):
    assert rank_threshold_calls(path.read_text()) == []


def test_the_check_sees_a_call():
    source = ("from . import config\n"
              "from .config import rank_threshold\n"
              "t = rank_threshold((2, 2), 1.0)\n"
              "u = config.rank_threshold((2, 2), 1.0, None)\n"
              "v = rank_threshold\n")
    assert rank_threshold_calls(source) == [3, 4]
