"""No `dqdsim` module imports a private name from another one.

A name with a leading underscore is private to its module; a caller in
another module needs a public function instead. Dunder names such as
`__version__` are public.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dqdsim"


def private_imports(path: Path):
    """(line, module, name) of every private name `path` imports from
    another `dqdsim` module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "dqdsim"):
            module = "." * node.level + (node.module or "")
            names = [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            module = ""
            names = [a.name.split(".")[-1] for a in node.names
                     if a.name.split(".")[0] == "dqdsim"]
        else:
            continue
        found += [(node.lineno, module, n) for n in names
                  if n.startswith("_") and not n.startswith("__")]
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_private_cross_module_import(path):
    assert private_imports(path) == []


def test_the_check_sees_a_private_import(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("from .schrodinger import well_rows, _hidden\n"
                   "from dqdsim.device import _helper\n"
                   "import dqdsim._private\n"
                   "from . import __version__\n"
                   "from numpy import _globals\n")
    assert private_imports(src) == [(1, ".schrodinger", "_hidden"),
                                    (2, "dqdsim.device", "_helper"),
                                    (3, "", "_private")]
