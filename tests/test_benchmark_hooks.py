"""The benchmark (perfbench/) patches qlma attributes by name in its tracer
and imports qlma names in its worker; a renamed or deleted one would make
every benchmark run fail."""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

import pytest

from qlma.hhl import HermitianProblem

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


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


def test_worker_imports_and_builds_every_workload_config(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    worker = importlib.import_module("worker")
    for w in worker.WORKLOADS:
        config = worker.run_config(w, 0, tmp_path)
        assert config.output_dir == str(tmp_path), w
