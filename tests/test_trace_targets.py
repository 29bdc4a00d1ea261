"""The benchmark tracer's targets exist in the package.

`perfbench/spans.py` patches each (module, attribute) of its `TARGETS` by
name; a target renamed or moved away in `dqdsim` would make `--trace 1`
fail. This test reads `perfbench` and imports nothing from it but that
module.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def trace_targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


@pytest.mark.parametrize("module, attr", trace_targets())
def test_target_resolves(module, attr):
    mod = importlib.import_module(f"dqdsim.{module}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert callable(vars(getattr(mod, cls_name))[meth])
    else:
        assert callable(getattr(mod, attr))
