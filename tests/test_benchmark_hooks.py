"""The benchmark (perfbench/) patches qlma attributes by name in its tracer
and imports qlma names in its worker; a renamed or deleted one would make
every benchmark run fail."""

import dataclasses
import importlib
import importlib.util
import json
import os
import subprocess
import sys
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


# Runs every workload's pinned batch through cmd_run and prints the trace
# digests; BLAS is pinned to one thread, as when the digests were recorded.
_DIGEST_SCRIPT = """
import json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import worker
from qlma.cli import cmd_run
out = Path(sys.argv[2])
digests = {}
for w in worker.WORKLOADS:
    config = worker.run_config(w, worker.DEFAULT_SEED, out / w)
    assert cmd_run(config) == 0, w
    digests[w] = {
        str(seed): worker.trace_digest((out / w / f"trace_seed{seed}.csv").read_text().splitlines())
        for seed in config.seeds
    }
print(json.dumps(digests))
"""


def test_default_outputs_match_the_pinned_benchmark_digests(tmp_path):
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    result = subprocess.run(
        [sys.executable, "-c", _DIGEST_SCRIPT, str(PERFBENCH), str(tmp_path)],
        env=env, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    expected = json.loads((PERFBENCH / "expected.json").read_text())["digests"]
    assert json.loads(result.stdout) == expected
