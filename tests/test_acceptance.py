"""End-to-end acceptance checks; each test prints a pass line for its
criterion when it completes."""

import math
import statistics
import time

import numpy as np
import pytest

from qlma.ba import generate_problem, residuals_and_jacobian, total_cost
from qlma.cli import main
from qlma.hhl import HhlConfig, embed_problem, hhl_solve
from qlma.noise import ErrorRates, repeated_success, success_probability
from qlma.optimizer import SETUPS, LinearBackend, optimize
from qlma.sim import StateVector, apply_gate, measure_distribution
from qlma.trotter import EvolutionSpec, decompose_hermitian, evolution_matrix

from reference import minimal_hhl_circuit

FLIP = np.array([[0.0, 1.0], [1.0, 0.0]])


def report(name, detail=""):
    print(f"[PASS] {name}" + (f" :: {detail}" if detail else ""))


# ---------------------------------------------------------------------------
# 1. golden three-qubit instance
# ---------------------------------------------------------------------------

def test_acceptance_golden_flip_instance():
    started = time.perf_counter()
    b = np.array([1.0, 1.0]) / math.sqrt(2)
    sol = hhl_solve(embed_problem(FLIP, b))
    residual = np.linalg.norm(FLIP @ sol.solution - b)
    assert residual < 1e-10
    assert abs(sol.success_probability - 1.0) < 1e-10

    state = StateVector.zero(3)
    snapshots = {}
    for i, op in enumerate(minimal_hhl_circuit().ops):
        state = apply_gate(state, op)
        snapshots[i] = state.amplitudes.copy()
    s = 1 / math.sqrt(2)
    assert np.max(np.abs(snapshots[1] - np.array([0.5, 0.5, 0.5, 0.5, 0, 0, 0, 0]))) < 1e-10
    assert np.max(np.abs(snapshots[4] - np.array([0, 0, 0, 0, s, s, 0, 0]))) < 1e-10
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report("golden flip instance", f"residual={residual:.2e} p=1 elapsed={elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. oracle equivalence
# ---------------------------------------------------------------------------

def _grid_spd(rng, dim, m=3, top_bin=None):
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    top = top_bin if top_bin is not None else 2 ** (m - 1)
    grid = [v / 2**m * 2.0 for v in range(1, top + 1)]
    return q @ np.diag(rng.choice(grid, size=dim)) @ q.T


def test_acceptance_oracle_equivalence_on_grid():
    rng = np.random.default_rng(2024)
    cfg = HhlConfig(lambda_bound=1.0, slices=2**20)
    worst = 0.0
    for _ in range(20):
        a = _grid_spd(rng, 4)
        b = rng.normal(size=4)
        b /= np.linalg.norm(b)
        got = hhl_solve(embed_problem(a, b), cfg).solution
        expected = np.linalg.solve(a, b)
        worst = max(worst, np.linalg.norm(got - expected) / np.linalg.norm(expected))
    assert worst < 1e-6
    report("oracle equivalence on the phase grid", f"worst relative error {worst:.2e}")


def test_acceptance_oracle_equivalence_off_grid():
    rng = np.random.default_rng(77)
    errors = {3: [], 5: []}
    for _ in range(16):
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        a = q @ np.diag(rng.uniform(0.15, 0.95, size=4)) @ q.T
        b = rng.normal(size=4)
        b /= np.linalg.norm(b)
        expected = np.linalg.solve(a, b)
        for m in (3, 5):
            cfg = HhlConfig(n_phase_qubits=m, lambda_bound=1.0, slices=4096)
            got = hhl_solve(embed_problem(a, b), cfg).solution
            errors[m].append(np.linalg.norm(got - expected) / np.linalg.norm(expected))
    med3, med5 = statistics.median(errors[3]), statistics.median(errors[5])
    assert med5 < med3
    report("off-grid error shrinks with phase qubits", f"median {med3:.3f} -> {med5:.3f}")


# ---------------------------------------------------------------------------
# 3. product-formula error scaling
# ---------------------------------------------------------------------------

def test_acceptance_trotter_error_slopes():
    started = time.perf_counter()
    matrix = np.array([[1.0, 1.0], [1.0, -1.0]])  # X + Z
    w, v = np.linalg.eigh(matrix)
    exact = v @ np.diag(np.exp(-1j * w * 0.5)) @ v.conj().T
    dec = decompose_hermitian(matrix)
    rs = [1, 2, 4, 8, 16, 32, 64]
    slopes = {}
    for order, target in ((1, -1.0), (2, -2.0)):
        errs = [
            np.linalg.norm(evolution_matrix(EvolutionSpec(dec, 0.5, r, order)) - exact, 2)
            for r in rs
        ]
        slopes[order] = float(np.polyfit(np.log(rs), np.log(errs), 1)[0])
        assert abs(slopes[order] - target) < 0.3
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report("product-formula error slopes", f"order1 {slopes[1]:.2f}, order2 {slopes[2]:.2f}")


# ---------------------------------------------------------------------------
# 4. phase estimation exactness
# ---------------------------------------------------------------------------

def test_acceptance_phase_estimation_exact_grid():
    from qlma.sim import apply_circuit
    from reference import qpe_circuit

    for k in range(8):
        phase_qubits = [1, 2, 3]
        spec = EvolutionSpec(decompose_hermitian(np.diag([0.0, k / 8.0])), -2 * math.pi, 1, 2)
        circ = qpe_circuit(spec, phase_qubits)
        amps = np.zeros(16, dtype=complex)
        amps[1] = 1.0  # eigenvector |1> of the diagonal operator
        state = apply_circuit(StateVector(4, amps), circ)
        dist = measure_distribution(state, [1, 2, 3])
        assert dist.get(k, 0.0) >= 1.0 - 1e-10
    report("phase estimation exact on the 3-bit grid", "all 8 phases recovered")


# ---------------------------------------------------------------------------
# 5. jacobian against finite differences
# ---------------------------------------------------------------------------

def test_acceptance_jacobian_matches_finite_differences():
    worst = 0.0
    step = 1e-6
    for seed in range(1, 11):
        prob = generate_problem(seed)
        theta = prob.initial.initial_params()
        _, jac = residuals_and_jacobian(prob.initial, theta)
        fd = np.zeros_like(jac)
        for col in range(theta.size):
            plus, minus = theta.copy(), theta.copy()
            plus[col] += step
            minus[col] -= step
            rp, _ = residuals_and_jacobian(prob.initial, plus)
            rm, _ = residuals_and_jacobian(prob.initial, minus)
            fd[:, col] = (rp - rm) / (2 * step)
        worst = max(worst, np.max(np.abs(jac - fd)) / np.max(np.abs(fd)))
    assert worst < 1e-5
    report("jet jacobian vs central differences", f"worst relative deviation {worst:.2e}")


# ---------------------------------------------------------------------------
# 6. Schur equivalence end to end
# ---------------------------------------------------------------------------

def test_acceptance_schur_equivalence():
    from qlma.ba import build_normal_equations, schur_reduce

    for seed in (1, 2, 3):
        prob = generate_problem(seed)
        dense = optimize(prob, SETUPS[1], LinearBackend("classical-dense"), 40)
        schur = optimize(prob, SETUPS[1], LinearBackend("classical-schur"), 40)
        assert len(dense.records) == len(schur.records)
        assert np.max(np.abs(dense.costs() - schur.costs())) < 1e-8
    prob = generate_problem(1)
    r, jac = residuals_and_jacobian(prob.initial, prob.initial.initial_params())
    ne = build_normal_equations(r, jac, 0.01, 0.01, m_c=12)
    s, _ = schur_reduce(ne)
    assert s.shape == (12, 12)
    report("Schur and dense backends agree over full runs", "3 seeds, 40 iterations, 12x12 reduction")


# ---------------------------------------------------------------------------
# 7. convergence reproduction
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def convergence_batch():
    started = time.perf_counter()
    finals = {"qlma": [], "lma1": [], "lma2": []}
    inits = []
    for seed in range(1, 10):
        prob = generate_problem(seed)
        inits.append(total_cost(prob.initial))
        finals["qlma"].append(optimize(prob, SETUPS[1], LinearBackend("hhl"), 40).final_cost())
        finals["lma1"].append(optimize(prob, SETUPS[1], LinearBackend("classical-schur"), 40).final_cost())
        finals["lma2"].append(optimize(prob, SETUPS[2], LinearBackend("classical-schur"), 40).final_cost())
    return inits, finals, time.perf_counter() - started


def test_acceptance_convergence_quantum_halves_cost(convergence_batch):
    inits, finals, elapsed = convergence_batch
    init_mean = np.mean(inits)
    qlma_mean = np.mean(finals["qlma"])
    assert qlma_mean < 0.5 * init_mean
    assert all(f < i for f, i in zip(finals["qlma"], inits))
    assert elapsed < 1800.0
    report(
        "quantum branch halves the mean cost",
        f"init {init_mean:.2f} -> {qlma_mean:.2f} in {elapsed:.0f}s",
    )


def test_acceptance_convergence_harsh_damping_hurts_classical(convergence_batch):
    _, finals, _ = convergence_batch
    lma1_mean = np.mean(finals["lma1"])
    qlma_mean = np.mean(finals["qlma"])
    assert lma1_mean > qlma_mean
    report(
        "classical setup 1 ends above the quantum branch",
        f"{lma1_mean:.2f} > {qlma_mean:.2f}",
    )


def test_acceptance_convergence_gentle_damping_helps_classical(convergence_batch):
    _, finals, _ = convergence_batch
    lma1_mean = np.mean(finals["lma1"])
    lma2_mean = np.mean(finals["lma2"])
    assert lma2_mean < lma1_mean
    report("classical setup 2 improves on setup 1", f"{lma2_mean:.2f} < {lma1_mean:.2f}")


# ---------------------------------------------------------------------------
# 8. hardware noise estimates
# ---------------------------------------------------------------------------

def test_acceptance_noise_estimates():
    counts = (60, 118)
    experimental = success_probability(counts, 0, ErrorRates(1e-5, 5e-3))
    assert abs(experimental - 0.553) <= 0.005
    compound = repeated_success(0.1, 10)
    assert compound == pytest.approx(1e-10, rel=1e-12)
    # the public-device figure from the plain product formula; the reported
    # quoted value for this case is lower and is not reproducible from the
    # formula, so it is documented rather than asserted
    public = success_probability(counts, 0, ErrorRates(1e-3, 1e-2))
    report(
        "hardware success estimates",
        f"experimental {experimental:.4f}, compound 1e-10, public-device formula value {public:.4f}",
    )


# ---------------------------------------------------------------------------
# 9. determinism of the command line
# ---------------------------------------------------------------------------

def test_acceptance_cli_determinism(tmp_path):
    args = ["run", "--seeds", "1,2", "--iters", "5", "--backend", "hhl"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    names = ["trace_seed1.csv", "trace_seed2.csv", "summary.csv"]
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    report("command-line outputs are byte-identical", ", ".join(names))
