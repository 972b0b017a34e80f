"""Benchmark of `qlma run`, end to end (--trace 0) or per layer (--trace 1).

    python3 perfbench/run.py --workload hhl_m3 --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout.  This process imports neither numpy
nor qlma: it starts the measured processes (worker.py) with BLAS pinned to
one thread, times their set-up from spawn to their ``ready`` line, prints a
readable report and, as its last line, one JSON object with the metrics
that BENCHMARK.json declares for the chosen trace mode.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 5  # fresh processes timed through set-up; the last one goes on to measure
DEADLINE_S = 170.0


def worker_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "QLMA_SEED_OFFSET"}
    env.update(PINNED)
    return env


def run_worker(args: list[str], deadline: float) -> tuple[float, list[str]]:
    """Start one worker; return its set-up seconds and the stdout lines after ``ready``."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True,
    )
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - started
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit("benchmark worker exceeded the time limit")
    if ready.strip() != "ready" or proc.returncode != 0:
        raise SystemExit(f"benchmark worker failed (exit code {proc.returncode})")
    return setup_s, out.splitlines()


def report(workload: str, seed: int, result: dict) -> None:
    env = result["env"]
    print(
        f"env: blas={env['blas']} {env['blas_version']} threads={env['blas_threads']} "
        f"nproc={env['nproc']} python={env['python']} numpy={env['numpy']}"
    )
    seeds = result["problem_seeds"]
    print(f"workload {workload}, seed {seed}: problem seeds {seeds[0]}..{seeds[-1]}, {result['batches']} timed batches")
    for name, metric in result["metrics"].items():
        print(f"  {name:26s} {metric['value']:>14.6g} {metric['unit']:6s} n={result['samples'][name]}")
    q = result["quality"]
    print(
        f"  fail_frac {q['fail_frac']:.4g} ({q['failed_iterations']}/{q['attempted_iterations']} iterations), "
        f"final_cost_p50 {q['final_cost_p50']:.6g} px over {len(seeds)} seeds"
    )
    if result["raised"]:
        print(f"  qlma run raised for problem seeds {result['raised']} (counted in failed and fail_frac)")
    print("check: " + ("ok" if result["correct"] else "FAILED"))
    for problem in result["problems"]:
        print(f"  {problem}")


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in declared["workloads"]])
    parser.add_argument("--seed", type=int, default=0, help="workload seed; offsets the problem seeds")
    parser.add_argument("--seconds", type=float, default=declared["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "qlma" / "__init__.py").is_file():
        print(f"no qlma sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setup = [run_worker(common + ["--seconds", "0", "--setup-only"], deadline)[0] for _ in range(SETUP_SAMPLES - 1)]
    setup_s, lines = run_worker(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)], deadline)
    setup.append(setup_s)
    result = json.loads(lines[-1])
    if not args.trace:
        result["metrics"] = {"setup_s": {"value": statistics.median(setup), "unit": "s"}, **result["metrics"]}
        result["samples"]["setup_s"] = len(setup)

    wanted = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        print(f"metrics {sorted(got.items())} do not match BENCHMARK.json {sorted(wanted.items())}", file=sys.stderr)
        return 1
    out = ROOT / ".bench_out"
    (out / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(result, indent=1))
    report(args.workload, args.seed, result)
    final = {k: result[k] for k in ("correct", "attempted", "failed")}
    final["metrics"] = {name: result["metrics"][name] for name in wanted}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
