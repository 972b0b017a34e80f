"""Command-line front end: generate problems, run optimization batches,
emit CSV traces and SVG plots, and print hardware noise estimates.

All outputs are pure functions of the run configuration; trace timing
columns are zeroed unless --timing is given, so repeated runs are
byte-identical.  QLMA_SEED_OFFSET shifts every seed for batch sweeps.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import numbers
import os
import sys
from dataclasses import dataclass

import numpy as np

from .ba import NOISE_TARGETS, build_normal_equations, generate_problem, residuals_and_jacobian, save_problem
from .hhl import HhlConfig, hhl_gate_tally
from .noise import (
    RATE_PRESETS,
    REFERENCE_COUNTS,
    REFERENCE_GATE_TALLY,
    ErrorRates,
    repeated_success,
    success_probability,
)
from .optimizer import (
    BACKEND_KINDS,
    SETUPS,
    ConvergenceTrace,
    LinearBackend,
    hhl_system,
    optimize,
    write_trace_csv,
)
from .svg import write_line_plot

BACKEND_ALIASES = {"classical": "classical-schur", **{kind: kind for kind in BACKEND_KINDS}}


def _parse_seeds(text: str) -> tuple[int, ...]:
    return tuple(int(s) for s in text.split(",") if s.strip())


def _parse_switch(text: str) -> bool:
    """0, 1, false or true, in any letter case."""
    value = {"0": False, "1": True, "false": False, "true": True}.get(text.lower())
    if value is None:
        raise ValueError(text)
    return value


# Every run setting once: key -> (RunConfig field, config-file parser, flag options).
RUN_SETTINGS = {
    "seeds": ("seeds", _parse_seeds, {"help": "comma-separated seed list"}),
    "setup": ("setup", int, {"choices": tuple(SETUPS)}),
    "backend": ("backend", str, {"choices": sorted(BACKEND_ALIASES)}),
    "iters": ("max_iters", int, {}),
    "out": ("output_dir", str, {}),
    "slices": ("trotter_slices", int, {}),
    "phase_qubits": ("phase_qubits", int, {}),
    "jobs": ("jobs", int, {}),
    "timing": ("timing", _parse_switch, {"action": "store_true"}),
    "noise_on": ("noise_on", str, {"choices": NOISE_TARGETS}),
}
RUN_KEYS = tuple(RUN_SETTINGS)
# compare writes no trace, so it takes no timing key, but a second setup and
# backend; both configurations share every other setting, seeds included
SECOND_CONFIG_KEYS = ("setup", "backend")
COMPARE_KEYS = tuple(k for k in RUN_KEYS if k != "timing") + tuple(f"{k}_b" for k in SECOND_CONFIG_KEYS)


class InputError(ValueError):
    """Bad input from outside the program: a flag, config file or environment variable."""


@dataclass(frozen=True)
class RunConfig:
    seeds: tuple[int, ...] = tuple(range(1, 10))
    setup: int = 1
    backend: str = "classical"
    max_iters: int = 40
    output_dir: str = "."
    trotter_slices: int = HhlConfig.slices
    phase_qubits: int = HhlConfig.n_phase_qubits
    jobs: int = 1
    timing: bool = False
    noise_on: str = "points3d"

    def __post_init__(self):
        if not isinstance(self.seeds, (tuple, list)):  # an int is not iterable, and a str iterates its characters
            raise InputError(f"seeds must be a tuple or list of integers, got {self.seeds!r}")
        if not self.seeds:
            raise InputError("need at least one seed")
        for key in ("seeds", "setup", "slices", "phase_qubits", "iters", "jobs"):
            value = getattr(self, RUN_SETTINGS[key][0])
            for item in value if key == "seeds" else (value,):  # a bool or float would be taken as an int
                if isinstance(item, bool) or not isinstance(item, numbers.Integral):
                    raise InputError(f"{key} must be {'integers' if key == 'seeds' else 'an integer'}, got {item!r}")
            if key not in ("seeds", "setup") and value < 1:
                raise InputError(f"{key} must be at least 1, got {value}")
        if self.setup not in SETUPS:
            raise InputError("setup must be 1 or 2")
        if self.backend not in BACKEND_ALIASES:
            raise InputError(f"unknown backend {self.backend!r}")
        if self.noise_on not in NOISE_TARGETS:
            raise InputError(f"noise_on must be points3d or keypoints, got {self.noise_on!r}")

    def resolved_backend(self) -> LinearBackend:
        kind = BACKEND_ALIASES[self.backend]
        return LinearBackend(kind, HhlConfig(n_phase_qubits=self.phase_qubits, slices=self.trotter_slices))


def _offset_seeds(seeds) -> tuple[int, ...]:
    """The seeds shifted by QLMA_SEED_OFFSET; each must be non-negative and
    appear once.  RunConfig has already rejected an empty list."""
    text = os.environ.get("QLMA_SEED_OFFSET", "0")
    try:
        offset = int(text)
    except ValueError:
        raise InputError(f"QLMA_SEED_OFFSET must be an integer, got {text!r}") from None
    shifted = tuple(int(s) + offset for s in seeds)
    for seed in shifted:
        if seed < 0:
            raise InputError(f"seeds must be non-negative, got {seed} (QLMA_SEED_OFFSET={offset})")
        if shifted.count(seed) > 1:
            raise InputError(f"seed {seed} is repeated (QLMA_SEED_OFFSET={offset})")
    return shifted


def _make_output_dir(path: str) -> None:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot create output directory {path!r}: {exc.strerror}") from None


def _run_one(job: tuple[int, RunConfig]) -> ConvergenceTrace:
    seed, config = job
    problem = generate_problem(seed, noise_on=config.noise_on)
    return optimize(problem, SETUPS[config.setup], config.resolved_backend(), max_iters=config.max_iters)


def run_batch(config: RunConfig, seeds: tuple[int, ...]) -> tuple[dict[int, ConvergenceTrace], list[str]]:
    """Optimize every (offset) seed, in parallel on up to config.jobs
    workers, never more than one per seed; a failing seed is reported in the
    failure list and does not discard finished ones."""
    traces: dict[int, ConvergenceTrace] = {}
    failures: list[str] = []
    workers = min(config.jobs, len(seeds))
    with contextlib.ExitStack() as stack:
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor  # imported here: a serial run needs no process pool
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            results = [pool.submit(_run_one, (s, config)).result for s in seeds]
        else:
            results = [functools.partial(_run_one, (s, config)) for s in seeds]
        for seed, result in zip(seeds, results):
            try:
                traces[seed] = result()
            except Exception as exc:
                failures.append(f"seed {seed}: {exc}")
    return traces, failures


def aligned_costs(traces: dict[int, ConvergenceTrace], length: int = 0) -> np.ndarray:
    """Per-iteration cost matrix (seeds x iterations), at least `length`
    iterations wide; traces that stopped early carry their final cost forward."""
    length = max(length, *(len(trace.records) for trace in traces.values()))
    out = np.zeros((len(traces), length))
    for row, trace in enumerate(traces.values()):
        costs = trace.costs()
        out[row, : len(costs)] = costs
        out[row, len(costs) :] = costs[-1]
    return out


def write_summary(traces: dict[int, ConvergenceTrace], path) -> dict[str, tuple[list, list]]:
    """Mean across seeds plus the curves of the best and worst seeds,
    ranked by their cost at the last iteration; returns the three curves
    as plot series."""
    costs = aligned_costs(traces)
    finals = costs[:, -1]
    best_row = int(np.argmin(finals))
    worst_row = int(np.argmax(finals))
    its = list(range(1, costs.shape[1] + 1))
    series = {
        # per column: costs.mean(axis=0) sums in another order and changes last bits
        "mean": (its, [float(costs[:, it].mean()) for it in range(costs.shape[1])]),
        "best": (its, [float(c) for c in costs[best_row]]),
        "worst": (its, [float(c) for c in costs[worst_row]]),
    }
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", *series])
        writer.writerows(zip(its, *([repr(y) for y in ys] for _, ys in series.values())))
    return series


def cmd_run(config: RunConfig) -> int:
    seeds = _offset_seeds(config.seeds)
    _make_output_dir(config.output_dir)
    traces, failures = run_batch(config, seeds)
    for seed, trace in traces.items():
        write_trace_csv(trace, os.path.join(config.output_dir, f"trace_seed{seed}.csv"), config.timing)
    if traces:
        series = write_summary(traces, os.path.join(config.output_dir, "summary.csv"))
        title = f"setup {config.setup} / {config.backend}"
        write_line_plot(os.path.join(config.output_dir, "summary.svg"), series, title)
    for failure in failures:
        print(f"run failed: {failure}", file=sys.stderr)
    return 1 if failures else 0


def cmd_compare(config_a: RunConfig, config_b: RunConfig) -> int:
    """Overlay both configurations per seed; config_b shares config_a's
    seeds and output directory, differs only in setup and backend, and runs
    only once config_a has succeeded on every seed."""
    seeds = _offset_seeds(config_a.seeds)
    _make_output_dir(config_a.output_dir)
    batches = []
    for config in (config_a, config_b):
        traces, failures = run_batch(config, seeds)
        if failures:
            print(f"compare failed: {'; '.join(failures)}", file=sys.stderr)
            return 1
        batches.append(traces)
    labels = [f"{config.backend}-setup{config.setup}" for config in (config_a, config_b)]
    if labels[0] == labels[1]:
        labels = [labels[0] + "-a", labels[1] + "-b"]
    # the CSV pads both configurations to the longer; each curve keeps its own batch's length
    lengths = [max(len(trace.records) for trace in traces.values()) for traces in batches]
    width = max(lengths)
    costs = [aligned_costs(traces, width) for traces in batches]
    for row, seed in enumerate(seeds):
        with open(os.path.join(config_a.output_dir, f"compare_seed{seed}.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iteration", *(f"cost_{label}" for label in labels)])
            writer.writerows(zip(range(1, width + 1), *([repr(c) for c in batch[row].tolist()] for batch in costs)))
        series = {label: (list(range(1, n + 1)), list(batch[row, :n])) for label, n, batch in zip(labels, lengths, costs)}
        write_line_plot(os.path.join(config_a.output_dir, f"compare_seed{seed}.svg"), series, f"problem {seed}")
    return 0


def cmd_noise(
    rates: ErrorRates,
    measured_qubits: int,
    iterations: int,
    own_counts: bool,
    hhl: HhlConfig,
    p_single: float | None = None,
) -> int:
    n1, n2 = REFERENCE_COUNTS
    print("reference gate tally:", " ".join(f"{k}={v}" for k, v in REFERENCE_GATE_TALLY.items()))
    print(f"reference totals: one-qubit={n1} two-qubit={n2}")
    print(
        f"rates: one-qubit={rates.one_qubit_gate} two-qubit={rates.two_qubit_gate} "
        f"measurement={rates.measurement}"
    )
    gate_only = success_probability((n1, n2), 0, rates)
    with_meas = success_probability((n1, n2), measured_qubits, rates)
    print(f"single-run success (gates only): {gate_only:.6f}")
    print(f"single-run success ({measured_qubits} measured qubits): {with_meas:.6f}")
    single = p_single if p_single is not None else gate_only
    print(f"{iterations}-iteration compound success (p={single:.6g}): {repeated_success(single, iterations):.6e}")
    if own_counts:
        problem = generate_problem(1)
        r, jac = residuals_and_jacobian(problem.initial, problem.initial.initial_params())
        ne = build_normal_equations(r, jac, SETUPS[1].lambda1_init, SETUPS[1].lambda2, m_c=problem.initial.n_camera_params)
        one, two, per = hhl_gate_tally(*hhl_system(ne, hhl))
        print("own unrolled tally:", " ".join(f"{k}={v}" for k, v in sorted(per.items())))
        print(f"own totals: one-qubit={one} two-qubit={two}")
        print(f"single-run success with own counts: {success_probability((one, two), 0, rates):.6e}")
        print(
            "note: the unrolled product-formula circuit exceeds the reference tally, "
            "which counts composite instructions"
        )
    return 0


def cmd_gen(seeds, output_dir: str, noise_on: str) -> int:
    seeds = _offset_seeds(seeds)
    _make_output_dir(output_dir)
    for seed in seeds:
        problem = generate_problem(seed, noise_on=noise_on)
        save_problem(problem, os.path.join(output_dir, f"problem_seed{seed}.txt"))
    return 0


def _load_config_file(path: str, valid_keys: tuple[str, ...]) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise InputError(f"cannot read config file: {exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: config file is not UTF-8 text ({exc.reason})") from None
    for number, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep:
            raise InputError(f"{path}:{number}: expected key=value, got {line!r}")
        if key not in valid_keys:
            raise InputError(f"{path}:{number}: unknown config key {key!r}; valid keys: {', '.join(valid_keys)}")
        if key in values:
            raise InputError(f"{path}:{number}: repeated config key {key!r}")
        values[key] = value.strip()
    return values


def _add_flag(parser: argparse.ArgumentParser, key: str, **extra) -> None:
    """The flag of a run setting, named after its key, which parses its value
    as a config file does; a key ending in _b sets compare's second
    configuration.  An unset flag is None."""
    _, parse, options = RUN_SETTINGS[key.removesuffix("_b")]
    kind = {} if "action" in options else {"type": parse}
    parser.add_argument("--" + key.replace("_", "-"), dest=key, default=None, **{**kind, **options, **extra})


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qlma", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="optimize a batch of seeded problems")
    for key in RUN_KEYS:
        _add_flag(run, key)
    run.add_argument("--config", default=None, help="key=value config file; flags win")

    comp = sub.add_parser("compare", help="overlay two configurations per seed")
    for key in COMPARE_KEYS:
        _add_flag(comp, key)
    comp.add_argument("--config", default=None)

    noise = sub.add_parser("noise", help="print hardware success estimates")
    noise.add_argument("--preset", choices=sorted(RATE_PRESETS), default=None)
    noise.add_argument("--one-qubit-rate", type=float, default=None)
    noise.add_argument("--two-qubit-rate", type=float, default=None)
    noise.add_argument("--measurement-rate", type=float, default=None)
    noise.add_argument("--measured-qubits", type=int, default=0)
    noise.add_argument("--iterations", type=int, default=10)
    noise.add_argument("--p-single", type=float, default=None)
    noise.add_argument("--own-counts", action="store_true")
    for key in ("slices", "phase_qubits"):
        default = getattr(RunConfig, RUN_SETTINGS[key][0])
        _add_flag(noise, key, help=f"with --own-counts (default {default})")

    gen = sub.add_parser("gen", help="write problem files")
    for key in ("seeds", "out", "noise_on"):
        _add_flag(gen, key)
    return parser


def _run_config_from(args: argparse.Namespace, file_values: dict[str, str], suffix: str = "") -> RunConfig:
    """Each setting from its flag, else from the config file, else RunConfig's
    default; suffix "_b" reads compare's second setup and backend."""
    values = {}
    for key, (field, parse, _) in RUN_SETTINGS.items():
        name = key + suffix if key in SECOND_CONFIG_KEYS else key
        if getattr(args, name, None) is not None:
            values[field] = getattr(args, name)
        elif name in file_values:
            try:
                values[field] = parse(file_values[name])
            except ValueError:
                raise InputError(f"config key {name!r} has an invalid value {file_values[name]!r}") from None
    return RunConfig(**values)


def _check_noise_flags(args: argparse.Namespace) -> None:
    """Reject an out-of-range `qlma noise` flag, or one the command would
    ignore, before anything is printed; RunConfig has already range-checked
    --slices and --phase-qubits."""
    for flag, value in (("--measured-qubits", args.measured_qubits), ("--iterations", args.iterations)):
        if value < 0:
            raise InputError(f"{flag} must be at least 0, got {value}")
    for flag in ("one_qubit_rate", "two_qubit_rate", "measurement_rate"):
        value = getattr(args, flag)
        if value is None:
            continue
        if not 0.0 <= value < 1.0:
            raise InputError(f"--{flag.replace('_', '-')} must lie in [0, 1), got {value}")
        if args.preset:
            raise InputError(f"--{flag.replace('_', '-')} cannot be combined with --preset")
    if args.p_single is not None and not 0.0 <= args.p_single <= 1.0:
        raise InputError(f"--p-single must lie in [0, 1], got {args.p_single}")
    for flag, value in (("--slices", args.slices), ("--phase-qubits", args.phase_qubits)):
        if value is not None and not args.own_counts:
            raise InputError(f"{flag} only applies with --own-counts")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except InputError as exc:
        print(f"qlma: error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "noise":
        hhl = _run_config_from(args, {}).resolved_backend().hhl
        _check_noise_flags(args)
        if args.preset:
            rates = RATE_PRESETS[args.preset]
        else:
            rates = ErrorRates(
                args.one_qubit_rate if args.one_qubit_rate is not None else 0.0,
                args.two_qubit_rate if args.two_qubit_rate is not None else 0.0,
                args.measurement_rate if args.measurement_rate is not None else 0.0,
            )
        return cmd_noise(rates, args.measured_qubits, args.iterations, args.own_counts, hhl, args.p_single)

    valid_keys = COMPARE_KEYS if args.command == "compare" else RUN_KEYS
    file_values = _load_config_file(args.config, valid_keys) if getattr(args, "config", None) else {}
    config = _run_config_from(args, file_values)
    if args.command == "compare":
        return cmd_compare(config, _run_config_from(args, file_values, suffix="_b"))
    if args.command == "gen":
        return cmd_gen(config.seeds, config.output_dir, config.noise_on)
    return cmd_run(config)


if __name__ == "__main__":
    sys.exit(main())
