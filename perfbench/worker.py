"""One benchmark process: set up, run timed `qlma run` batches in a closed
loop, check their outputs, and with --trace 1 also run traced batches.

run.py starts it with the BLAS thread variables already pinned in its
environment.  It prints ``ready`` when set-up ends and one JSON object when
the measurement ends.  Every batch goes through ``qlma.cli.cmd_run`` with a
``RunConfig``, exactly as ``qlma run --timing`` does.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import qlma  # noqa: E402
from qlma.cli import RunConfig, cmd_run  # noqa: E402
from qlma.optimizer import MIN_STEP_NORM, TRACE_COLUMNS, ZERO_COST  # noqa: E402

import speed  # noqa: E402
import tracing  # noqa: E402

if Path(qlma.__file__).resolve().parent != ROOT / "src" / "qlma":
    raise ImportError(f"qlma was imported from {qlma.__file__}, not from this checkout")


@dataclasses.dataclass(frozen=True)
class Workload:
    backend: str
    phase_qubits: int
    batch_size: int  # problem seeds per batch, so that one batch takes 4-9 s on 2 CPUs


WORKLOADS = {
    "classical": Workload("classical", 3, 6),
    "hhl_m3": Workload("hhl", 3, 3),
    "hhl_m7": Workload("hhl", 7, 3),
}
DEFAULT_SEED = 0  # the workload seed whose traces are pinned in expected.json
WARMUP_SEED = 0  # problem seed of the warm-up; batches start at workload seed + 1
MAX_ITERS = 40
EXPECTED = Path(__file__).resolve().parent / "expected.json"
OUT = ROOT / ".bench_out"


def run_config(workload: str, workload_seed: int, output_dir) -> RunConfig:
    """The `qlma run` configuration of one batch; the workload seed only
    offsets the problem seeds."""
    w = WORKLOADS[workload]
    return RunConfig(
        seeds=tuple(workload_seed + i for i in range(1, w.batch_size + 1)),
        setup=1,
        backend=w.backend,
        max_iters=MAX_ITERS,
        output_dir=str(output_dir),
        trotter_slices=50,
        phase_qubits=w.phase_qubits,
        jobs=1,
        timing=True,
    )


def set_up(workload: str, workload_seed: int, workdir: Path) -> None:
    """One LM iteration outside the batch, which fills lazy caches such as
    the dense Pauli basis."""
    config = run_config(workload, workload_seed, workdir / "warmup")
    if cmd_run(dataclasses.replace(config, seeds=(WARMUP_SEED,), max_iters=1)) != 0:
        raise RuntimeError("warm-up iteration failed")


@dataclasses.dataclass
class Batch:
    seconds: float  # wall time
    digests: dict[int, str]  # per problem seed that produced a trace
    problems: dict[int, str]  # per problem seed: why its trace is wrong, or ""
    raised: list[int]  # problem seeds for which cmd_run raised and wrote no trace
    iterations: dict[int, tuple[int, int]]  # per problem seed: (attempted, accepted)
    iter_seconds: list[float]
    final_costs: list[float]
    bytes_written: int
    speed: float = 1.0  # machine speed factor measured around the batch (speed.py)


def trace_digest(lines: list[str]) -> str:
    """SHA-256 of a trace CSV with its last column, `seconds`, removed."""
    return hashlib.sha256("\n".join(line.rsplit(",", 1)[0] for line in lines).encode()).hexdigest()


def check_trace(seed: int, rows: list[list[str]], max_iters: int = MAX_ITERS) -> str:
    """Why a trace is malformed, or "" when it is well formed: consecutive
    iterations, finite costs, and as many records as iterations attempted
    (max_iters, or fewer only when the last accepted step converged)."""
    if rows[0] != list(TRACE_COLUMNS):
        return f"header {rows[0]}"
    records = rows[1:]
    if not records or [int(r[1]) for r in records] != list(range(1, len(records) + 1)):
        return "iterations are not 1..n"
    if any(r[0] != str(seed) for r in records):
        return "problem column does not name the seed"
    if not all(math.isfinite(float(r[2])) for r in records):
        return "non-finite cost"
    last = records[-1]
    converged = last[6] == "1" and (float(last[5]) < MIN_STEP_NORM or float(last[2]) <= ZERO_COST)
    if len(records) != max_iters and not converged:
        return f"{len(records)} records for {max_iters} iterations without convergence"
    return ""


def run_batch(config: RunConfig, tracer: tracing.Tracer | None = None) -> Batch:
    """Run one batch through cmd_run and read back its traces."""
    out = Path(config.output_dir)
    shutil.rmtree(out, ignore_errors=True)
    if tracer is None and tracing.installed_hooks():
        raise RuntimeError("a timed batch would run with tracing wrappers installed")
    started = time.perf_counter()
    if tracer is None:
        cmd_run(config)
    else:
        with tracer.span("cli.run"):
            cmd_run(config)
    seconds = time.perf_counter() - started

    batch = Batch(seconds, {}, {}, [], {}, [], [], sum(p.stat().st_size for p in out.iterdir()))
    for seed in config.seeds:
        path = out / f"trace_seed{seed}.csv"
        if not path.exists():  # cmd_run reported the exception on stderr
            batch.raised.append(seed)
            batch.iterations[seed] = (config.max_iters, 0)
            continue
        lines = path.read_text().splitlines()
        rows = [line.split(",") for line in lines]
        batch.digests[seed] = trace_digest(lines)
        batch.problems[seed] = check_trace(seed, rows, config.max_iters)
        records = rows[1:]
        batch.iterations[seed] = (len(records), sum(r[6] == "1" for r in records))
        batch.iter_seconds += [float(r[8]) for r in records]
        batch.final_costs.append(float(records[-1][2]))
    return batch


def compare_digests(batches: list[Batch], reference: dict[str, str] | None) -> None:
    """Flag traces that differ from the recorded digest (default seed) or,
    for other seeds, from the first batch of this run."""
    first = batches[0].digests
    for batch in batches:
        for seed, digest in batch.digests.items():
            want = reference.get(str(seed)) if reference is not None else first.get(seed)
            if digest != want and not batch.problems[seed]:
                batch.problems[seed] = "trace differs from the " + (
                    "recorded digest" if reference is not None else "first batch"
                )


def quality(batches: list[Batch]) -> dict[str, float]:
    """Failure share of the iterations, and the median final cost over the
    first batch's seeds (every batch repeats it when the check passes).  An
    iteration fails when its candidate could not be evaluated, or when its
    seed raised or failed the output check."""
    attempted = failed = 0
    for b in batches:
        for seed, (n, accepted) in b.iterations.items():
            attempted += n
            failed += n if b.problems.get(seed, "raised") else n - accepted
    costs = batches[0].final_costs
    return {
        "fail_frac": failed / attempted,
        "failed_iterations": failed,
        "attempted_iterations": attempted,
        "final_cost_p50": statistics.median(costs) if costs else 0.0,
    }


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def end_to_end(batches: list[Batch]) -> tuple[dict, dict]:
    """batch_s and iter_ms_p50 are divided by each batch's machine speed
    factor; iter_ms_p90 is not (see README.md)."""
    iter_ms = [1000.0 * s for b in batches for s in b.iter_seconds]
    metrics = {
        "batch_s": (statistics.median(b.seconds / b.speed for b in batches), "s"),
        "iter_ms_p50": (statistics.median(1000.0 * s / b.speed for b in batches for s in b.iter_seconds), "ms"),
        "iter_ms_p90": (statistics.quantiles(iter_ms, n=10)[8], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    samples = {"batch_s": len(batches), "iter_ms_p50": len(iter_ms), "iter_ms_p90": len(iter_ms), "peak_rss_mb": 1}
    return metrics, samples


LAYERS = ("ba", "optimizer", "hhl", "trotter", "sim", "cli")


def layer_metrics(batch: Batch, tracer: tracing.Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer numbers of one traced batch; times are summed over the batch."""
    inclusive, own = tracer.times()
    counts = tracer.counts

    def ms(name: str) -> tuple[float, str]:
        return 1000.0 * own.get(name, 0.0), "ms"

    metrics = {
        "ba.jacobian_ms": ms("ba.jacobian"),
        "ba.jacobian_calls": (counts["ba.jacobian.calls"], "count"),
        "ba.normal_eq_ms": ms("ba.normal_eq"),
        "ba.schur_ms": ms("ba.schur"),
        "ba.backsub_ms": ms("ba.backsub"),
        "ba.cost_ms": ms("ba.cost"),
        "ba.cost_calls": (counts["ba.cost.calls"], "count"),
        "optimizer.iter_self_ms": ms(tracing.ITERATION),
        "optimizer.lma_step_ms": ms("optimizer.lma_step"),
        "optimizer.accept_ratio": (1.0 - quality([batch])["fail_frac"], "ratio"),
        "hhl.solve_ms": (1000.0 * inclusive.get("hhl.solve", 0.0), "ms"),
        "hhl.self_ms": ms("hhl.solve"),
        "hhl.embed_ms": ms("hhl.embed"),
        "hhl.success_prob_p50": (tracer.median("hhl.success_prob"), "ratio"),
        "hhl.fidelity_p50": (tracer.median("hhl.fidelity"), "ratio"),
        "hhl.step_rel_err_p50": (tracer.median("hhl.step_rel_err"), "ratio"),
        "hhl.errors": (counts["hhl.solve.errors"], "count"),
        "trotter.decompose_ms": ms("trotter.decompose"),
        "trotter.evolution_ms": ms("trotter.evolution"),
        "trotter.pauli_terms": (counts["trotter.pauli_terms"], "count"),
        "sim.apply_ms": ms("sim.apply"),
        "sim.gates_applied": (counts["sim.gates_applied"], "count"),
        "sim.bytes_computed": (counts["sim.bytes_computed"], "B"),
        "sim.measure_ms": ms("sim.measure"),
        "cli.write_ms": ms("cli.write"),
        "cli.bytes_written": (batch.bytes_written, "B"),
    }
    for layer in LAYERS:
        layer_s = sum(s for name, s in own.items() if name.split(".")[0] == layer)
        metrics[f"{layer}.share_pct"] = (100.0 * layer_s / batch.seconds, "%")
    metrics["trace.batch_s"] = (batch.seconds, "s")
    return metrics


COUNTS = (
    "ba.jacobian_calls", "ba.cost_calls", "optimizer.accept_ratio", "hhl.errors",
    "trotter.pauli_terms", "sim.gates_applied", "sim.bytes_computed", "cli.bytes_written",
)


def per_layer(untraced: list[Batch], traced: list[tuple[Batch, tracing.Tracer]]) -> tuple[dict, dict, list[str]]:
    """Medians over the traced batches, plus the tracing overhead; counts
    must repeat exactly from batch to batch."""
    each = [layer_metrics(batch, tracer) for batch, tracer in traced]
    notes = [f"{name} differs between traced batches" for name in COUNTS if len({m[name][0] for m in each}) > 1]
    metrics = {
        name: (value if name in COUNTS else statistics.median(m[name][0] for m in each), unit)
        for name, (value, unit) in each[0].items()
    }
    # each traced batch directly follows its untraced twin, so the pairwise
    # difference cancels the drift of the machine's speed
    overhead = statistics.median(t.seconds - u.seconds for u, (t, _) in zip(untraced, traced))
    metrics["trace.overhead_s"] = (overhead, "s")
    samples = {name: len(each) for name in metrics}
    return metrics, samples, notes


def measure(workload: str, workload_seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """Closed loop: batches run back to back until `seconds` have passed
    (at least one); with trace, each timed batch is followed by a traced one."""
    config = run_config(workload, workload_seed, workdir / "batch")
    untraced: list[Batch] = []
    traced: list[tuple[Batch, tracing.Tracer]] = []
    before = speed.sample()
    started = time.perf_counter()
    while not untraced or time.perf_counter() - started < seconds:
        untraced.append(run_batch(config))
        after = speed.sample()
        untraced[-1].speed = speed.speed_factor(before + after)
        if trace:
            with tracing.Tracer() as tracer:
                traced.append((run_batch(config, tracer), tracer))
            after = speed.sample()
        before = after

    batches = untraced + [b for b, _ in traced]
    reference = json.loads(EXPECTED.read_text())["digests"][workload] if workload_seed == DEFAULT_SEED else None
    compare_digests(batches, reference)
    problems = [f"seed {s}: {why}" for b in batches for s, why in b.problems.items() if why]
    raised = sorted({s for b in batches for s in b.raised})
    q = quality(batches)
    if trace:
        metrics, samples, notes = per_layer(untraced, traced)
        metrics["optimizer.fail_frac"] = (q["fail_frac"], "ratio")
        metrics["optimizer.final_cost_p50"] = (q["final_cost_p50"], "px")
        samples["optimizer.fail_frac"] = samples["optimizer.final_cost_p50"] = 1
        problems += notes
        for i, (_, tracer) in enumerate(traced):
            tracer.write(OUT / f"spans-{workload}-seed{workload_seed}-batch{i}.csv")
    else:
        metrics, samples = end_to_end(untraced)
    return {
        "correct": not problems,
        "attempted": sum(len(b.iterations) for b in batches),
        "failed": sum(len(b.raised) + sum(map(bool, b.problems.values())) for b in batches),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "samples": samples,
        "quality": q,
        "problem_seeds": list(config.seeds),
        "batches": len(untraced),
        "wall_batch_s": [b.seconds for b in untraced],
        "speed_factors": [b.speed for b in untraced],
        "digests": batches[0].digests,
        "problems": problems,
        "raised": raised,
        "env": environment(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        set_up(args.workload, args.seed, workdir)
        print("ready", flush=True)
        if not args.setup_only:
            print(json.dumps(measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
