"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from qlma import cli, hhl  # noqa: E402

DECLARED = json.loads((worker.ROOT / "BENCHMARK.json").read_text())


def small_config(tmp_path, backend="hhl", seeds=(1,), iters=3) -> cli.RunConfig:
    return dataclasses.replace(
        worker.run_config("hhl_m3" if backend == "hhl" else "classical", 0, tmp_path / "out"),
        seeds=seeds, max_iters=iters,
    )


@pytest.mark.parametrize("workload, trace, section", [("classical", 0, "end_to_end"), ("hhl_m7", 1, "per_layer")])
def test_printed_metrics_are_the_declared_ones(workload, trace, section):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0", "--seconds", "0",
         "--trace", str(trace)],
        cwd=worker.ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in DECLARED[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert all(set(m) == {"value", "unit"} and isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_workload_seed_changes_only_the_problem_seeds():
    for name in worker.WORKLOADS:
        base = worker.run_config(name, 0, "out")
        shifted = worker.run_config(name, 7, "out")
        assert shifted.seeds == tuple(s + 7 for s in base.seeds)
        assert dataclasses.replace(shifted, seeds=base.seeds) == base
        assert worker.WARMUP_SEED not in shifted.seeds and worker.WARMUP_SEED not in base.seeds


def test_tracing_wrappers_are_gone_before_timed_batches(tmp_path):
    originals = {(m, a): getattr(sys.modules[m], a) for m, a, _ in tracing.HOOKS}
    config = small_config(tmp_path)
    with tracing.Tracer() as tracer:
        assert len(tracing.installed_hooks()) == len(tracing.HOOKS)
        with pytest.raises(RuntimeError, match="tracing wrappers installed"):
            worker.run_batch(config)
        worker.run_batch(config, tracer)
    assert tracing.installed_hooks() == []
    assert all(getattr(sys.modules[m], a) is fn for (m, a), fn in originals.items())
    spans = len(tracer.spans)
    worker.run_batch(config)
    assert len(tracer.spans) == spans


def test_traced_counts_repeat_exactly_and_tracing_keeps_outputs(tmp_path):
    config = small_config(tmp_path, seeds=(1, 2))
    untraced = worker.run_batch(config)
    runs = []
    for _ in range(2):
        with tracing.Tracer() as tracer:
            batch = worker.run_batch(config, tracer)
        assert batch.digests == untraced.digests
        metrics = worker.layer_metrics(batch, tracer)
        runs.append({name: metrics[name][0] for name in worker.COUNTS})
    assert runs[0] == runs[1]
    assert runs[0]["ba.jacobian_calls"] == 6
    assert runs[0]["sim.gates_applied"] > 0 and runs[0]["trotter.pauli_terms"] > 0


def test_self_times_partition_the_root_span(tmp_path):
    with tracing.Tracer() as tracer:
        batch = worker.run_batch(small_config(tmp_path), tracer)
    inclusive, own = tracer.times()
    assert math.isclose(sum(own.values()), inclusive["cli.run"], rel_tol=1e-9)
    assert all(seconds >= 0.0 for seconds in own.values())
    assert inclusive["cli.run"] <= batch.seconds
    iterations = [s for s in tracer.spans if s[0] == tracing.ITERATION]
    assert [s[5] for s in iterations] == [1, 2, 3] and {s[4] for s in iterations} == {1}
    assert tracer.counts["ba.jacobian.calls"] == 3


def test_step_relative_error_is_zero_for_the_exact_solution():
    matrix = [[2.0, 0.5], [0.5, 1.0]]
    problem = hhl.embed_problem(matrix, [1.0, -1.0], force_dilation=True)
    x = np.linalg.solve(matrix, [1.0, -1.0])
    assert tracing.step_relative_error(problem, x) < 1e-12
    assert tracing.step_relative_error(problem, 2 * x) == pytest.approx(1.0)


def test_recorded_digest_matches_default_cli_outputs(tmp_path):
    assert cli.main(["run", "--seeds", "1", "--backend", "classical", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "trace_seed1.csv").read_text().splitlines()
    recorded = json.loads(worker.EXPECTED.read_text())["digests"]
    assert worker.trace_digest(lines) == recorded["classical"]["1"]
    assert set(recorded) == set(worker.WORKLOADS)
    for name, digests in recorded.items():
        assert sorted(map(int, digests)) == list(worker.run_config(name, worker.DEFAULT_SEED, "out").seeds)


def test_check_trace_flags_malformed_traces(tmp_path):
    # problem seed 29 cannot be generated (a point lands behind a camera)
    batch = worker.run_batch(small_config(tmp_path, backend="classical", seeds=(1, 29), iters=worker.MAX_ITERS))
    assert batch.problems == {1: ""} and batch.raised == [29]
    assert worker.quality([batch])["attempted_iterations"] == 2 * worker.MAX_ITERS
    rows = [line.split(",") for line in (tmp_path / "out" / "trace_seed1.csv").read_text().splitlines()]
    assert worker.check_trace(1, rows) == ""
    assert "records" in worker.check_trace(1, rows[:-1])
    assert "seed" in worker.check_trace(2, rows)
    bad = [list(r) for r in rows]
    bad[5][2] = "inf"
    assert worker.check_trace(1, bad) == "non-finite cost"


def test_failed_iterations_count_unevaluable_candidates_and_flagged_traces():
    batch = worker.Batch(1.0, {1: "a", 2: "b"}, {1: "", 2: "trace differs"}, [3],
                         {1: (40, 37), 2: (40, 40), 3: (40, 0)}, [], [1.0, 2.0], 0)
    q = worker.quality([batch, batch])
    assert (q["failed_iterations"], q["attempted_iterations"]) == (2 * (3 + 40 + 40), 240)
    assert q["final_cost_p50"] == 1.5


def test_batch_and_median_times_are_divided_by_the_speed_factor():
    batches = [worker.Batch(s, {}, {}, [], {}, [0.01 * s] * 20, [], 0, s / 2) for s in (4.0, 2.0, 3.0)]
    metrics, samples = worker.end_to_end(batches)
    assert metrics["batch_s"] == (2.0, "s")
    assert metrics["iter_ms_p50"][0] == pytest.approx(20.0)
    assert metrics["iter_ms_p90"][0] == pytest.approx(40.0)  # not scaled
    assert samples["iter_ms_p90"] == 60
    assert speed.speed_factor([speed.NOMINAL_S * 3, speed.NOMINAL_S, speed.NOMINAL_S * 2]) == pytest.approx(2.0)


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copy(worker.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "classical", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout

