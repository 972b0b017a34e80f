import concurrent.futures
import csv
import hashlib
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import qlma
from qlma.cli import COMPARE_KEYS, RUN_KEYS, InputError, RunConfig, main, run_batch, write_summary

from reference import one_openblas_thread, openblas_core


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_run_single_seed_single_iteration(tmp_path):
    out = tmp_path / "run"
    code = main(["run", "--seeds", "1", "--iters", "1", "--backend", "classical", "--out", str(out)])
    assert code == 0
    rows = read_csv(out / "trace_seed1.csv")
    assert len(rows) == 1
    assert rows[0]["iteration"] == "1"
    assert (out / "summary.csv").exists()
    assert (out / "summary.svg").exists()


def test_run_outputs_are_byte_identical(tmp_path):
    args = ["run", "--seeds", "1,2", "--iters", "4", "--backend", "classical"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    for name in ("trace_seed1.csv", "trace_seed2.csv", "summary.csv", "summary.svg"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_run_hhl_backend_deterministic(tmp_path):
    args = ["run", "--seeds", "3", "--iters", "2", "--backend", "hhl"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    assert (out_a / "trace_seed3.csv").read_bytes() == (out_b / "trace_seed3.csv").read_bytes()


def test_summary_mean_column(tmp_path):
    config = RunConfig(seeds=(1, 2, 3), max_iters=5, backend="classical")
    traces = run_batch(config)
    path = tmp_path / "summary.csv"
    write_summary(traces, path)
    rows = read_csv(path)
    for it, row in enumerate(rows):
        costs = []
        for trace in traces.values():
            series = trace.costs()
            costs.append(series[min(it, len(series) - 1)])
        assert float(row["mean"]) == pytest.approx(np.mean(costs), abs=1e-12)


def test_summary_best_worst_ranked_by_final_cost(tmp_path):
    config = RunConfig(seeds=(1, 2, 3), max_iters=6, backend="classical")
    traces = run_batch(config)
    path = tmp_path / "summary.csv"
    write_summary(traces, path)
    rows = read_csv(path)
    finals = {s: t.final_cost() for s, t in traces.items()}
    best_seed = min(finals, key=finals.get)
    worst_seed = max(finals, key=finals.get)
    assert float(rows[-1]["best"]) == pytest.approx(finals[best_seed])
    assert float(rows[-1]["worst"]) == pytest.approx(finals[worst_seed])
    # best/worst columns are whole per-seed curves, not per-iteration extremes
    assert [float(r["best"]) for r in rows] == pytest.approx(list(traces[best_seed].costs()))


def test_compare_writes_overlays(tmp_path):
    out = tmp_path / "cmp"
    code = main(
        [
            "compare",
            "--seeds", "1,2",
            "--setup", "1",
            "--backend", "classical",
            "--setup-b", "2",
            "--backend-b", "classical",
            "--iters", "4",
            "--out", str(out),
        ]
    )
    assert code == 0
    for seed in (1, 2):
        rows = read_csv(out / f"compare_seed{seed}.csv")
        assert len(rows) == 4
        assert "cost_classical-setup1" in rows[0]
        assert "cost_classical-setup2" in rows[0]
        assert (out / f"compare_seed{seed}.svg").exists()


def _fail_seed_2(monkeypatch):
    """Make the solve of seed 2 raise, as a solver abort would."""
    import qlma.cli as cli

    real = cli._run_one

    def flaky(job):
        if job[0] == 2:
            raise RuntimeError("synthetic solver abort")
        return real(job)

    monkeypatch.setattr(cli, "_run_one", flaky)


def test_compare_failure_writes_no_overlay(tmp_path, monkeypatch, capsys):
    _fail_seed_2(monkeypatch)
    out = tmp_path / "cmp"
    assert main(["compare", "--seeds", "1,2", "--backend", "classical", "--iters", "2", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("compare failed:") == 1 and "seed 2: synthetic solver abort" in err
    assert not list(out.glob("compare_seed*"))


def test_compare_identical_configs_identical_columns(tmp_path):
    out = tmp_path / "cmp"
    code = main(
        [
            "compare",
            "--seeds", "2",
            "--setup", "1",
            "--backend", "classical",
            "--setup-b", "1",
            "--backend-b", "classical",
            "--iters", "3",
            "--out", str(out),
        ]
    )
    assert code == 0
    rows = read_csv(out / "compare_seed2.csv")
    cols = [c for c in rows[0] if c.startswith("cost_")]
    for row in rows:
        assert row[cols[0]] == row[cols[1]]


def test_noise_command_reference_estimates(capsys):
    assert main(["noise", "--preset", "experimental"]) == 0
    text = capsys.readouterr().out
    assert "0.553176" in text
    assert "one-qubit=60 two-qubit=118" in text


def test_noise_command_zero_rates(capsys):
    assert main(["noise"]) == 0
    text = capsys.readouterr().out
    assert "single-run success (gates only): 1.000000" in text


def test_noise_command_compound_probability(capsys):
    assert main(["noise", "--p-single", "0.1", "--iterations", "10"]) == 0
    text = capsys.readouterr().out
    assert "1.000000e-10" in text


def test_noise_command_own_counts(capsys):
    assert main(["noise", "--preset", "ibmq", "--own-counts", "--slices", "2"]) == 0
    text = capsys.readouterr().out
    assert "own unrolled tally" in text
    assert "exceeds the reference tally" in text


@pytest.mark.parametrize(
    "flags, tally, totals",
    [
        ([], "cry=18 cu=190406 cx=1120006 h=1097612 u=313600", "one-qubit=1411212 two-qubit=1310430"),
        (
            ["--phase-qubits", "7", "--slices", "10"],
            "cry=138 cu=690922 cx=4064018 h=3982748 u=1137920",
            "one-qubit=5120668 two-qubit=4755078",
        ),
        (
            # two controlled slices, and an inverse transform with no swaps
            ["--phase-qubits", "1", "--slices", "1"],
            "cry=12 cu=544 cx=3200 h=3140 u=896",
            "one-qubit=4036 two-qubit=3756",
        ),
        (
            # the 2**16 - 1 inversion rotations are counted, not built
            ["--phase-qubits", "16", "--slices", "1"],
            "cry=65546 cu=35651280 cx=209712048 h=205517824 u=58719360",
            "one-qubit=264237184 two-qubit=245428874",
        ),
    ],
    ids=["default", "m7-s10", "m1-s1", "m16-s1"],
)
def test_noise_own_counts_are_pinned(capsys, flags, tally, totals):
    assert main(["noise", "--own-counts", *flags]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert f"own unrolled tally: {tally}" in lines
    assert f"own totals: {totals}" in lines


def test_noise_own_counts_run_without_the_test_references(tmp_path):
    """The package needs nothing from tests/: a child with only src on its
    path prints the pinned tally and never loads the reference module."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(qlma.__file__)))
    script = (
        "import sys; from qlma.cli import main; code = main(['noise', '--own-counts']); "
        "print('modules:', *sorted(sys.modules)); sys.exit(code)"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert "own unrolled tally: cry=18 cu=190406 cx=1120006 h=1097612 u=313600" in lines
    assert "reference" not in lines[-1].split()[1:]


def test_gen_writes_problem_files(tmp_path):
    out = tmp_path / "problems"
    assert main(["gen", "--seeds", "1,2", "--out", str(out)]) == 0
    from qlma.ba import load_problem

    prob = load_problem(out / "problem_seed1.txt")
    assert prob.seed == 1
    assert prob.truth.points.shape == (10, 3)


def test_seed_offset_environment_variable(tmp_path, monkeypatch):
    out = tmp_path / "run"
    monkeypatch.setenv("QLMA_SEED_OFFSET", "100")
    assert main(["run", "--seeds", "1", "--iters", "2", "--backend", "classical", "--out", str(out)]) == 0
    assert (out / "trace_seed101.csv").exists()


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "qlma.cfg"
    cfg.write_text("seeds=5\niters=3\nbackend=classical\nsetup=2\n")
    out = tmp_path / "run"
    assert main(["run", "--config", str(cfg), "--iters", "2", "--out", str(out)]) == 0
    rows = read_csv(out / "trace_seed5.csv")
    assert len(rows) == 2  # the command-line flag wins over the file


def test_parallel_jobs_match_serial(tmp_path):
    out_serial, out_par = tmp_path / "s", tmp_path / "p"
    base = ["run", "--seeds", "1,2", "--iters", "3", "--backend", "classical"]
    assert main(base + ["--out", str(out_serial), "--jobs", "1"]) == 0
    assert main(base + ["--out", str(out_par), "--jobs", "2"]) == 0
    for name in ("trace_seed1.csv", "trace_seed2.csv", "summary.csv"):
        assert (out_serial / name).read_bytes() == (out_par / name).read_bytes()


@pytest.mark.parametrize("seeds, workers", [("1,2,3", [3]), ("1", [])])
def test_jobs_pool_has_at_most_one_worker_per_seed(tmp_path, monkeypatch, seeds, workers):
    made = []

    class InlineExecutor:
        """Records max_workers and runs each job at submit; starts no process."""

        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, arg):
            future = concurrent.futures.Future()
            future.set_result(fn(arg))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)  # cli imports it per pooled run
    out = tmp_path / "run"
    assert main(["run", "--seeds", seeds, "--iters", "1", "--backend", "classical", "--jobs", "5000", "--out", str(out)]) == 0
    assert made == workers
    assert len(list(out.glob("trace_seed*.csv"))) == len(seeds.split(","))


def test_importing_the_cli_loads_no_process_pool():
    """Only a run with --jobs > 1 imports the process pool and the
    multiprocessing machinery behind it."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(qlma.__file__)))
    script = "import sys, qlma.cli; print(*sorted(sys.modules))"
    result = subprocess.run(
        [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    loaded = result.stdout.split()
    assert "qlma.cli" in loaded
    assert "concurrent.futures.process" not in loaded and "multiprocessing" not in loaded


def test_run_preserves_partial_outputs_on_failure(tmp_path, monkeypatch):
    _fail_seed_2(monkeypatch)
    out = tmp_path / "run"
    code = main(["run", "--seeds", "1,2,3", "--iters", "2", "--backend", "classical", "--out", str(out)])
    assert code == 1
    assert (out / "trace_seed1.csv").exists()
    assert not (out / "trace_seed2.csv").exists()
    assert (out / "trace_seed3.csv").exists()
    assert (out / "summary.csv").exists()


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(seeds=())
    with pytest.raises(ValueError):
        RunConfig(setup=3)
    with pytest.raises(ValueError):
        RunConfig(backend="annealer")
    RunConfig(seeds=(np.int64(1),), setup=np.int32(2), jobs=np.int64(2))  # numpy integers are integers


@pytest.mark.parametrize(
    "setting, message",
    [
        ({"seeds": (1.5,)}, "seeds must be integers, got 1.5"),
        ({"seeds": (1, True)}, "seeds must be integers, got True"),
        ({"setup": True}, "setup must be an integer, got True"),
        ({"setup": 1.0}, "setup must be an integer, got 1.0"),
        ({"max_iters": True}, "iters must be an integer, got True"),
        ({"trotter_slices": 2.5}, "slices must be an integer, got 2.5"),
        ({"phase_qubits": np.float64(3.0)}, "phase_qubits must be an integer, got np.float64(3.0)"),
        ({"jobs": "2"}, "jobs must be an integer, got '2'"),
        ({"seeds": 3}, "seeds must be a tuple or list of integers, got 3"),
        ({"seeds": "12"}, "seeds must be a tuple or list of integers, got '12'"),
    ],
)
def test_run_config_rejects_a_bool_or_non_integral_setting(setting, message):
    # each would otherwise be coerced to an int, or fail once per seed inside the batch
    with pytest.raises(InputError, match=re.escape(message)):
        RunConfig(**setting)


def test_run_batch_raises_when_a_seed_fails(monkeypatch):
    _fail_seed_2(monkeypatch)
    with pytest.raises(RuntimeError, match="seed 2: synthetic solver abort"):
        run_batch(RunConfig(seeds=(1, 2), max_iters=1))


@pytest.mark.parametrize(
    "text, message",
    [
        ("seeds=1\niter=2\n", "unknown config key 'iter'; valid keys: seeds, setup, backend, iters,"),
        ("seeds_b=2\n", "unknown config key 'seeds_b'"),
        ("iters=two\n", "config key 'iters' has an invalid value 'two'"),
        ("setup=3\n", "setup must be 1 or 2"),
        ("noise_on=pixels\n", "noise_on must be points3d or keypoints, got 'pixels'"),
        ("iters\n", "expected key=value"),
        ("timing=yes\n", "config key 'timing' has an invalid value 'yes'"),
        ("timing=\n", "config key 'timing' has an invalid value ''"),
        ("seeds=1\nseeds=2,3\n", "qlma.cfg:2: repeated config key 'seeds'"),
        ("# seeds=4\n\n  # iters=2\nseeds=1\nseeds=2\n", "qlma.cfg:5: repeated config key 'seeds'"),
    ],
)
def test_bad_config_file_fails_with_one_line(tmp_path, capsys, text, message):
    cfg = tmp_path / "qlma.cfg"
    cfg.write_text(text)
    out = tmp_path / "run"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert message in err and err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


def test_missing_config_file_fails_with_one_line(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "absent.cfg")]) == 2
    err = capsys.readouterr().err
    assert "cannot read config file" in err and err.count("\n") == 1


@pytest.mark.parametrize("command", ["run", "compare"])
def test_non_utf8_config_file_fails_with_one_line(tmp_path, capsys, command):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"iters=3\n\xff\xfe=1\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{cfg}: config file is not UTF-8 text" in err and err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


def test_compare_accepts_second_configuration_keys(tmp_path):
    cfg = tmp_path / "qlma.cfg"
    cfg.write_text("seeds=1\niters=1\nbackend=classical\nbackend_b=classical-dense\n")
    assert main(["compare", "--config", str(cfg), "--out", str(tmp_path / "cmp")]) == 0


def test_compare_rejects_timing_key(tmp_path, capsys):
    cfg = tmp_path / "qlma.cfg"
    cfg.write_text("seeds=1\niters=1\ntiming=1\n")
    out = tmp_path / "cmp"
    assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("qlma: error:") and "unknown config key 'timing'" in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", [["run", "--seeds", "1", "--iters", "1"], ["gen", "--seeds", "1"]])
def test_non_integer_seed_offset_fails_with_one_line(tmp_path, monkeypatch, capsys, command):
    monkeypatch.setenv("QLMA_SEED_OFFSET", "x")
    out = tmp_path / "out"
    assert main(command + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "QLMA_SEED_OFFSET must be an integer, got 'x'" in err and err.count("\n") == 1
    assert not any(out.glob("*"))


@pytest.mark.parametrize(
    "flags, message",
    [(["--slices", "0"], "slices must be at least 1, got 0"), (["--phase-qubits", "0"], "phase_qubits must be at least 1, got 0")],
)
def test_out_of_range_hhl_settings_fail_with_one_line(tmp_path, capsys, flags, message):
    out = tmp_path / "run"
    assert main(["run", "--seeds", "1", "--iters", "1", "--backend", "hhl", *flags, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert message in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize(
    "flags, message",
    [(["--iters", "0"], "iters must be at least 1, got 0"), (["--jobs", "-2"], "jobs must be at least 1, got -2")],
)
def test_out_of_range_run_settings_fail_with_one_line(tmp_path, capsys, command, flags, message):
    out = tmp_path / "run"
    assert main([command, "--seeds", "1", "--iters", "1", *flags, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert message in err and err.count("\n") == 1 and err.startswith("qlma: error:")
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--measured-qubits", "-1"], "--measured-qubits must be at least 0, got -1"),
        (["--iterations", "-1"], "--iterations must be at least 0, got -1"),
        (["--p-single", "1.5"], "--p-single must lie in [0, 1], got 1.5"),
        (["--one-qubit-rate", "2"], "--one-qubit-rate must lie in [0, 1), got 2.0"),
        (["--own-counts", "--phase-qubits", "0"], "--phase-qubits must be at least 1, got 0"),
        (["--own-counts", "--slices", "0"], "--slices must be at least 1, got 0"),
        (["--preset", "ibmq", "--one-qubit-rate", "0.5"], "--one-qubit-rate cannot be combined with --preset"),
        (["--preset", "ibmq", "--two-qubit-rate", "0.1"], "--two-qubit-rate cannot be combined with --preset"),
        (["--preset", "experimental", "--measurement-rate", "0"], "--measurement-rate cannot be combined with --preset"),
        (["--slices", "3"], "--slices only applies with --own-counts"),
        (["--phase-qubits", "7"], "--phase-qubits only applies with --own-counts"),
    ],
)
def test_out_of_range_noise_flags_fail_with_one_line(capsys, flags, message):
    assert main(["noise", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"qlma: error: {message}\n"


@pytest.mark.parametrize("command", [["run", "--seeds", "1", "--iters", "1"], ["gen", "--seeds", "1"]])
def test_bad_seed_offset_leaves_no_output_directory(tmp_path, monkeypatch, command):
    monkeypatch.setenv("QLMA_SEED_OFFSET", "1.5")
    out = tmp_path / "out"
    assert main(command + ["--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("value, timed", [("False", False), ("0", False), ("TRUE", True), ("1", True)])
def test_config_timing_switch(tmp_path, value, timed):
    cfg = tmp_path / "qlma.cfg"
    cfg.write_text(f"seeds=1\niters=2\nbackend=classical\ntiming={value}\n")
    out = tmp_path / "run"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    rows = read_csv(out / "trace_seed1.csv")
    assert [float(r["seconds"]) > 0.0 for r in rows] == [timed] * len(rows)


@pytest.mark.parametrize("command", ["run", "gen"])
@pytest.mark.parametrize(
    "seeds, offset, message",
    [
        ("1", "-5", "seeds must be non-negative, got -4 (QLMA_SEED_OFFSET=-5)"),
        ("-1", "0", "seeds must be non-negative, got -1 (QLMA_SEED_OFFSET=0)"),
        ("1,1,2", "0", "seed 1 is repeated (QLMA_SEED_OFFSET=0)"),
        ("3,1,2,1", "10", "seed 11 is repeated (QLMA_SEED_OFFSET=10)"),
        (",", "0", "need at least one seed"),
    ],
)
def test_bad_seeds_fail_with_one_line(tmp_path, monkeypatch, capsys, command, seeds, offset, message):
    monkeypatch.setenv("QLMA_SEED_OFFSET", offset)
    out = tmp_path / "out"
    assert main([command, "--seeds", seeds, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"qlma: error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "command",
    [["run", "--seeds", "1", "--iters", "1"], ["gen", "--seeds", "1"], ["compare", "--seeds", "1", "--iters", "1"]],
    ids=["run", "gen", "compare"],
)
@pytest.mark.parametrize("out_kind", ["existing_file", "empty"])
def test_unusable_out_fails_with_one_line(tmp_path, capsys, command, out_kind):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    out, reason = (str(taken), "File exists") if out_kind == "existing_file" else ("", "No such file or directory")
    assert main([*command, "--out", out]) == 2
    assert capsys.readouterr().err == f"qlma: error: cannot create output directory {out!r}: {reason}\n"
    assert taken.read_text() == "not a directory\n"


# One value per run setting, none of them the default: its text as a flag
# value and in a config file, and the RunConfig fields it sets.
_SETTING_VALUES = {
    "seeds": ("4,5", {"seeds": (4, 5)}),
    "setup": ("2", {"setup": 2}),
    "backend": ("hhl", {"backend": "hhl"}),
    "iters": ("7", {"max_iters": 7}),
    "out": ("elsewhere", {"output_dir": "elsewhere"}),
    "slices": ("9", {"trotter_slices": 9}),
    "phase_qubits": ("4", {"phase_qubits": 4}),
    "jobs": ("3", {"jobs": 3}),
    "timing": ("1", {"timing": True}),
    "noise_on": ("keypoints", {"noise_on": "keypoints"}),
}


def _configs_passed(monkeypatch, command, argv):
    """The RunConfigs `qlma` hands to `command`, which is stubbed out."""
    import qlma.cli as cli

    passed = []
    monkeypatch.setattr(cli, command, lambda *configs: passed.append(configs) or 0)
    assert main(argv) == 0
    return passed[0]


def _flag_and_file_configs(tmp_path, monkeypatch, command, key):
    text = _SETTING_VALUES[key.removesuffix("_b")][0]
    flag = ["--timing"] if key == "timing" else [f"--{key.replace('_', '-')}", text]
    cfg = tmp_path / "qlma.cfg"
    cfg.write_text(f"{key}={text}\n")
    subcommand = command.removeprefix("cmd_")
    return (
        _configs_passed(monkeypatch, command, [subcommand, *flag]),
        _configs_passed(monkeypatch, command, [subcommand, "--config", str(cfg)]),
    )


@pytest.mark.parametrize("key", RUN_KEYS)
def test_run_flag_and_config_file_value_agree(tmp_path, monkeypatch, key):
    from_flag, from_file = _flag_and_file_configs(tmp_path, monkeypatch, "cmd_run", key)
    assert from_flag == from_file == (RunConfig(**_SETTING_VALUES[key][1]),)


@pytest.mark.parametrize("key", COMPARE_KEYS)
def test_compare_flag_and_config_file_value_agree(tmp_path, monkeypatch, key):
    """setup and backend set the first configuration and their _b keys the
    second; every other key, the seeds included, sets both."""
    from_flag, from_file = _flag_and_file_configs(tmp_path, monkeypatch, "cmd_compare", key)
    changed = RunConfig(**_SETTING_VALUES[key.removesuffix("_b")][1])
    expected = {
        "setup": (changed, RunConfig()),
        "backend": (changed, RunConfig()),
        "setup_b": (RunConfig(), changed),
        "backend_b": (RunConfig(), changed),
    }.get(key, (changed, changed))
    assert from_flag == from_file == expected


# SHA-256 of each file, recorded with BLAS on one thread.  The gen bytes hold
# on every kernel ("any"); the traces behind compare and run go through BLAS
# and LAPACK, so their sets are recorded per OpenBLAS kernel (openblas_core).
_PINNED_OUTPUTS = [
    (
        ["compare", "--seeds", "1,2", "--backend", "hhl", "--backend-b", "classical", "--iters", "10"],
        {
            "SkylakeX": {
                "compare_seed1.csv": "59c19576a6f61efaec672e519fff1d15091c22df0e025522e7f312ea7b66463d",
                "compare_seed1.svg": "9d984f2555bdba338cf12dfe4bdb0fa592cb5f50ccb31e961dd45983e0bef7f2",
                "compare_seed2.csv": "867ff8a4b6a3652f6ac0211a612892a336ca69c6a2f68b7d7b7cfafb2f2a6ae8",
                "compare_seed2.svg": "461428e00aeb0735658b73713ab3ac5f0bcfbee4c8f53593ba71dc461bb8352a",
            },
            "Haswell": {
                "compare_seed1.csv": "bb5cc31ec0f88526e2858795ca22a4852aa633b6421a66a444a7ecd64a4f9b08",
                "compare_seed1.svg": "9d984f2555bdba338cf12dfe4bdb0fa592cb5f50ccb31e961dd45983e0bef7f2",
                "compare_seed2.csv": "d24d86503878855f61bca893358c45573fdac814d7abfec8ed6207d1dc60d946",
                "compare_seed2.svg": "461428e00aeb0735658b73713ab3ac5f0bcfbee4c8f53593ba71dc461bb8352a",
            },
        },
    ),
    (
        ["gen", "--seeds", "1,2", "--noise-on", "keypoints"],
        {
            "any": {
                "problem_seed1.txt": "c3aeec909c11cfba4aff1e56b1c6e1d555003b0e15f27806b17d98d17dbad957",
                "problem_seed2.txt": "59fb836eb8c46cb1a37ca50dcca66a4a19986e02af4f52f85ed880b68a95cce2",
            },
        },
    ),
    (  # at setup 2's small damping the Schur complement is asymmetric by roundoff, which the hhl step must absorb
        ["run", "--setup", "2", "--backend", "hhl", "--seeds", "2,5"],
        {
            "SkylakeX": {
                "summary.csv": "d446e35a7edc039ec20dfd66019e6ac9500e84074697ebb66594a3611bddd664",
                "summary.svg": "89a468f21b144a84f566c39c40eb2e7d586a12852b94aabeb91fa91ea3089827",
                "trace_seed2.csv": "e0d32b97a450cc9c0a621afd0d06080c5a698cdce04ca480d1df63fe17edac26",
                "trace_seed5.csv": "10d8ccd36f1799a82b625fb7d98dec1c3c0f825ed91b8e78a29730732739829a",
            },
            "Haswell": {
                "summary.csv": "50e257d19c1f46c674b294055eb6dba4be1121df394eb4708368d0ee4b33124f",
                "summary.svg": "89a468f21b144a84f566c39c40eb2e7d586a12852b94aabeb91fa91ea3089827",
                "trace_seed2.csv": "bed88e772138c026523a8d41ed6e6375f791cb57b0fd3141d89d4097801e0203",
                "trace_seed5.csv": "fa6ad92f54f28026f76b7dc77b0fbec8ec5cda2bb6fe22c2ee023ca23fb76705",
            },
        },
    ),
]


@pytest.mark.parametrize("argv, digests_by_core", _PINNED_OUTPUTS, ids=["compare", "gen", "run-setup2-hhl"])
def test_compare_and_gen_outputs_match_pinned_digests(tmp_path, argv, digests_by_core):
    core = openblas_core()
    digests = digests_by_core.get("any", digests_by_core.get(core))
    assert digests is not None, f"no digests recorded for OpenBLAS core {core}"
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    script = "import sys; from qlma.cli import main; sys.exit(main(sys.argv[1:]))"
    with one_openblas_thread():
        result = subprocess.run(
            [sys.executable, "-c", script, *argv, "--out", str(tmp_path)], env=env, capture_output=True, text=True
        )
    assert result.returncode == 0, result.stderr
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert written == digests
