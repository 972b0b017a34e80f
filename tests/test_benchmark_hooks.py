"""The benchmark's tracer (perfbench/tracing.py) patches qlma attributes by
name; a renamed or deleted one would make every traced run fail."""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

import pytest

from qlma.hhl import HermitianProblem

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module_name, attr, span", _load_tracing().HOOKS)
def test_every_traced_attribute_exists(module_name, attr, span):
    assert hasattr(importlib.import_module(module_name), attr), f"{module_name}.{attr} ({span})"


def test_step_error_reads_problem_scale():
    assert "scale" in {f.name for f in dataclasses.fields(HermitianProblem)}
