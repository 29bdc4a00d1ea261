"""No function in `dots`, `noise` or `dynamics` tells one item from a stack.

The spin map, the noise samples and the dynamics take a stack (a list)
and return values that line up with it; a caller with one item wraps it
in a list. A branch on `isinstance(x, ConvergedSolution | NoiseField |
list)` would bring back a second calling convention beside the stacked
one.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dqdsim"
SINGLE_ITEM_TYPES = {"ConvergedSolution", "NoiseField", "list"}


def single_item_checks(source: str):
    """(line, type name) of every `isinstance` test in `source` against
    one of `SINGLE_ITEM_TYPES`, alone, in a tuple or in a union."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            continue
        for sub in ast.walk(node.args[1]):
            name = (sub.id if isinstance(sub, ast.Name)
                    else sub.attr if isinstance(sub, ast.Attribute) else None)
            if name in SINGLE_ITEM_TYPES:
                found.append((node.lineno, name))
    return found


@pytest.mark.parametrize("module", ["dots", "noise", "dynamics"])
def test_no_single_item_dispatch(module):
    assert single_item_checks((PACKAGE / f"{module}.py").read_text()) == []


def test_the_check_sees_a_dispatch():
    src = ("def f(x, y):\n"
           "    if isinstance(x, ConvergedSolution):\n"
           "        return x\n"
           "    if isinstance(y, (list, tuple)):\n"
           "        return y\n"
           "    if isinstance(x, schrodinger.ConvergedSolution | NoiseField):\n"
           "        return x\n"
           "    return isinstance(x, DqdError)\n")
    assert single_item_checks(src) == [(2, "ConvergedSolution"), (4, "list"),
                                       (6, "ConvergedSolution"),
                                       (6, "NoiseField")]
