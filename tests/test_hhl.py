import gc
import hashlib
import math
import re
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qlma.hhl
from qlma.ba import build_normal_equations, generate_problem, residuals_and_jacobian
from qlma.hhl import (
    REACHABLE_TOL,
    HermitianProblem,
    HhlConfig,
    HhlError,
    bin_phase,
    embed_problem,
    hhl_gate_tally,
    hhl_solve,
    inversion_rotation_circuit,
    _apply_controlled_block,
    _hhl_lambda_bound,
    _inversion_table,
    _nearest_unitary,
    _squaring_chain,
    project_solution,
    spectral_bound,
    state_preparation_circuit,
)
from qlma.optimizer import hhl_system
from qlma.sim import (
    Circuit,
    StateVector,
    apply_circuit,
    apply_gate,
    gate_counts,
    gate_matrix,
    h,
    inverse_circuit,
    measure_distribution,
)
from qlma.trotter import (
    EvolutionSpec,
    decompose_hermitian,
    evolution_matrix,
    inverse_qft_circuit,
)

from reference import minimal_hhl_circuit, openblas_core, qpe_circuit

FLIP = np.array([[0.0, 1.0], [1.0, 0.0]])


# ---------------------------------------------------------------------------
# embedding
# ---------------------------------------------------------------------------

def test_embed_hermitian_two_by_two_unchanged():
    b = np.array([1.0, 1.0]) / math.sqrt(2)
    prob = embed_problem(FLIP, b)
    assert prob.matrix.shape == (2, 2)
    assert not prob.dilated
    assert np.allclose(prob.matrix, FLIP)
    assert np.allclose(prob.rhs, b)
    assert prob.rhs_norm == pytest.approx(1.0)


def test_embed_pads_to_next_power_of_two():
    prob = embed_problem(np.eye(3), np.array([1.0, 0.0, 0.0]))
    assert prob.matrix.shape == (4, 4)
    assert np.allclose(prob.matrix, np.eye(4))
    assert np.allclose(prob.rhs, [1.0, 0.0, 0.0, 0.0])
    assert not prob.dilated


def test_embed_twelve_by_twelve_forced_dilation():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(12, 12))
    m = a + a.T
    prob = embed_problem(m, rng.normal(size=12), force_dilation=True)
    assert prob.matrix.shape == (32, 32)
    assert prob.n_data_qubits == 5
    assert prob.dilated
    # dilation blocks: [[0, P], [P^T, 0]]
    assert np.allclose(prob.matrix[:16, :16], 0.0)
    assert np.allclose(prob.matrix[:16, 16:][:12, :12], m)


def test_embed_rejects_non_symmetric():
    m = np.array([[1.0, 2.0], [0.0, 1.0]])
    for force_dilation in (False, True):
        with pytest.raises(HhlError, match="matrix is not symmetric"):
            embed_problem(m, np.array([1.0, 1.0]), force_dilation=force_dilation)


def test_embed_symmetrizes_roundoff_asymmetry():
    m = np.array([[1.0, 2.0], [2.0 + 1e-13, 1.0]])
    for force_dilation in (False, True):
        prob = embed_problem(m, np.array([1.0, 1.0]), force_dilation=force_dilation)
        assert prob.dilated == force_dilation
        assert np.array_equal(prob.matrix, prob.matrix.T)


def test_embed_dilated_system_solves_original():
    # classical check of the embedding algebra on a forced dilation
    rng = np.random.default_rng(1)
    a = rng.normal(size=(3, 3))
    m = a + a.T + 6 * np.eye(3)
    b = rng.normal(size=3)
    prob = embed_problem(m, b, force_dilation=True)
    y = np.linalg.solve(prob.matrix, prob.rhs * prob.rhs_norm)
    half = prob.matrix.shape[0] // 2
    assert np.allclose(y[half : half + 3], np.linalg.solve(m, b), atol=1e-10)


@settings(max_examples=100, deadline=None)
@given(
    dim=st.integers(1, 12),
    force_dilation=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_project_solution_recovers_the_original_solve(dim, force_dilation, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim))
    a = (a + a.T) / 2.0
    a += 3.0 * math.sqrt(dim) * np.eye(dim)  # keeps the system well conditioned
    b = rng.normal(size=dim)
    prob = embed_problem(a, b, force_dilation=force_dilation)
    got = project_solution(prob, np.linalg.solve(prob.matrix, prob.rhs)) * prob.rhs_norm
    expected = np.linalg.solve(a, b)
    assert np.linalg.norm(got - expected) <= 1e-9 * np.linalg.norm(expected)


def test_embed_rejects_zero_rhs():
    with pytest.raises(HhlError):
        embed_problem(np.eye(2), np.zeros(2))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_hermitian_problem_rejects_non_finite_matrix(bad):
    with pytest.raises(HhlError, match="non-finite"):
        HermitianProblem(np.array([[1.0, bad], [0.0, 1.0]]), np.array([1.0, 0.0]), 1.0, 2)


def test_spectral_bound_covers_eigenvalues():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(8, 8))
    m = a + a.T
    bound = spectral_bound(m)
    assert bound >= np.max(np.abs(np.linalg.eigvalsh(m)))


# ---------------------------------------------------------------------------
# state preparation
# ---------------------------------------------------------------------------

def test_preparation_basis_vector_is_empty():
    c = state_preparation_circuit(np.array([1.0, 0.0]))
    assert len(c.ops) == 0


@pytest.mark.parametrize("trial", range(8))
def test_preparation_encodes_random_real_vectors(trial):
    rng = np.random.default_rng(300 + trial)
    k = rng.integers(1, 4)
    v = rng.normal(size=2**k)
    v /= np.linalg.norm(v)
    circ = state_preparation_circuit(v)
    out = apply_circuit(StateVector.zero(k), circ)
    assert np.allclose(out.amplitudes, v, atol=1e-12)


def test_preparation_handles_signs_and_zeros():
    v = np.array([0.0, -0.6, 0.0, 0.8])
    out = apply_circuit(StateVector.zero(2), state_preparation_circuit(v))
    assert np.allclose(out.amplitudes, v, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(k=st.integers(1, 5), seed=st.integers(0, 2**32 - 1), zeros=st.floats(0.0, 0.9), uniform=st.just(False))
@example(k=1, seed=0, zeros=0.0, uniform=True)
@example(k=2, seed=0, zeros=0.0, uniform=True)
@example(k=5, seed=0, zeros=0.0, uniform=True)
def test_preparation_amplitudes_property(k, seed, zeros, uniform):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=2**k) * (rng.random(2**k) >= zeros)
    v[rng.integers(2**k)] = rng.choice([-1.0, 1.0])  # at least one nonzero
    if uniform:
        v = np.ones(2**k)
    v /= np.linalg.norm(v)
    out = apply_circuit(StateVector.zero(k), state_preparation_circuit(v))
    assert np.max(np.abs(out.amplitudes - v)) <= 1e-12


def test_preparation_leaves_no_cyclic_garbage():
    """A dropped preparation circuit is freed by reference counting alone."""
    v = np.random.default_rng(4).normal(size=32)
    circuit = state_preparation_circuit(v / np.linalg.norm(v))
    gc.disable()
    try:
        ref = weakref.ref(state_preparation_circuit(v / np.linalg.norm(v)).ops[0])
        assert ref() is None
    finally:
        gc.enable()
    assert len(circuit.ops) > 1


def test_preparation_rejects_unnormalized():
    with pytest.raises(HhlError):
        state_preparation_circuit(np.array([1.0, 1.0]))


def test_preparation_rejects_nan():
    with pytest.raises(HhlError, match="normalized"):
        state_preparation_circuit(np.array([math.nan, 1.0]))


# ---------------------------------------------------------------------------
# inversion rotation
# ---------------------------------------------------------------------------

def _ancilla_amplitudes(phase_qubits, ancilla, constant, bins, register_value):
    circ = inversion_rotation_circuit(phase_qubits, ancilla, constant, bins)
    n = ancilla + 1
    amps = np.zeros(2**n, dtype=complex)
    amps[register_value << phase_qubits[0]] = 1.0
    # a one-qubit data register occupies the low bit here
    state = apply_circuit(StateVector(n, amps), circ)
    dist = measure_distribution(state, [ancilla])
    return math.sqrt(dist.get(0, 0.0)), math.sqrt(dist.get(1, 0.0))


def _layout(m):
    return list(range(1, 1 + m))


def test_inversion_full_flip_at_unit_ratio():
    lay = _layout(1)
    a0, a1 = _ancilla_amplitudes(lay, 2, 1.0, [None, 1.0], 1)
    assert a1 == pytest.approx(1.0, abs=1e-12)
    assert a0 == pytest.approx(0.0, abs=1e-12)


def test_inversion_half_ratio_amplitudes():
    lay = _layout(1)
    a0, a1 = _ancilla_amplitudes(lay, 2, 0.5, [None, 1.0], 1)
    assert a0 == pytest.approx(math.sqrt(0.75), abs=1e-12)
    assert a1 == pytest.approx(0.5, abs=1e-12)


def test_inversion_two_branch_amplitudes():
    lay = _layout(2)
    bins = [None, 0.5, 1.0, None]
    _, a1 = _ancilla_amplitudes(lay, 3, 0.5, bins, 1)
    assert a1 == pytest.approx(1.0, abs=1e-12)
    _, a1 = _ancilla_amplitudes(lay, 3, 0.5, bins, 2)
    assert a1 == pytest.approx(0.5, abs=1e-12)


def test_inversion_zero_bin_untouched():
    lay = _layout(2)
    circ = inversion_rotation_circuit(lay, 3, 0.25)
    state = apply_circuit(StateVector.zero(4), circ)  # register value 0
    assert np.allclose(state.amplitudes, StateVector.zero(4).amplitudes)


def test_inversion_default_bins_are_signed_grid():
    assert bin_phase(1, 3) == pytest.approx(1 / 8)
    assert bin_phase(4, 3) == pytest.approx(1 / 2)  # boundary reads positive
    assert bin_phase(5, 3) == pytest.approx(-3 / 8)
    assert bin_phase(7, 3) == pytest.approx(-1 / 8)


def test_inversion_invalid_constant_raises():
    lay = _layout(1)
    with pytest.raises(HhlError):
        inversion_rotation_circuit(lay, 2, 1.0, [None, 0.5])


# ---------------------------------------------------------------------------
# the three-qubit textbook circuit
# ---------------------------------------------------------------------------

def test_minimal_circuit_intermediate_states():
    circ = minimal_hhl_circuit()
    state = StateVector.zero(3)
    seen = {}
    for i, op in enumerate(circ.ops):
        state = apply_gate(state, op)
        seen[i] = state.amplitudes.copy()
    # after the two encoding Hadamards: (1/2)|0>(|0>+|1>)(|0>+|1>)
    assert np.allclose(seen[1], [0.5, 0.5, 0.5, 0.5, 0, 0, 0, 0], atol=1e-12)
    # after the inversion flip: ancilla |1>, register |0>, data (|0>+|1>)/sqrt2
    s = 1 / math.sqrt(2)
    assert np.allclose(seen[4], [0, 0, 0, 0, s, s, 0, 0], atol=1e-12)
    # final state equals the step-5 state (uncompute leaves the data register)
    assert np.allclose(seen[7], [0, 0, 0, 0, s, s, 0, 0], atol=1e-12)


def test_minimal_circuit_final_distribution_and_postselect():
    state = apply_circuit(StateVector.zero(3), minimal_hhl_circuit())
    dist = measure_distribution(state, [0])
    assert dist[0] == pytest.approx(0.5, abs=1e-12)
    assert dist[1] == pytest.approx(0.5, abs=1e-12)
    assert np.sum(state.probabilities[4:]) == pytest.approx(1.0, abs=1e-12)  # ancilla (qubit 2) is |1>


def test_minimal_circuit_gate_census():
    one, two, per = gate_counts(minimal_hhl_circuit())
    assert per == {"h": 5, "cx": 3}
    assert (one, two) == (5, 3)


# ---------------------------------------------------------------------------
# full solver
# ---------------------------------------------------------------------------

def test_golden_flip_system():
    b = np.array([1.0, 1.0]) / math.sqrt(2)
    sol = hhl_solve(embed_problem(FLIP, b))
    assert np.linalg.norm(FLIP @ sol.solution - b) < 1e-10
    assert sol.success_probability == pytest.approx(1.0, abs=1e-10)
    assert sol.fidelity_proxy == pytest.approx(1.0, abs=1e-10)


def test_identity_matrix_returns_rhs():
    rng = np.random.default_rng(4)
    for dim in (2, 4):
        b = rng.normal(size=dim)
        sol = hhl_solve(embed_problem(np.eye(dim), b))
        assert np.allclose(sol.solution, b, atol=1e-8)


def test_padded_identity_projection():
    sol = hhl_solve(embed_problem(np.eye(3), np.array([1.0, 0.0, 0.0])))
    assert sol.solution.shape == (3,)
    assert np.allclose(sol.solution, [1.0, 0.0, 0.0], atol=1e-8)


def _grid_spd(rng, dim, bound=1.0, m=3, top_bin=None):
    """Random SPD with eigenvalues on the phase grid.

    top_bin caps the largest usable bin; the dilation mirrors the spectrum,
    and the boundary bin (phase exactly 1/2) aliases +/-lambda_max, so
    dilated tests must stay below it.
    """
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    top = top_bin if top_bin is not None else 2 ** (m - 1)
    grid = [v / 2**m * 2 * bound for v in range(1, top + 1)]
    lams = rng.choice(grid, size=dim)
    return q @ np.diag(lams) @ q.T


def test_on_grid_solutions_match_dense_solve():
    rng = np.random.default_rng(5)
    cfg = HhlConfig(lambda_bound=1.0, slices=2**20)
    for _ in range(5):
        a = _grid_spd(rng, 4)
        b = rng.normal(size=4)
        b /= np.linalg.norm(b)
        sol = hhl_solve(embed_problem(a, b), cfg)
        expected = np.linalg.solve(a, b)
        assert np.linalg.norm(sol.solution - expected) / np.linalg.norm(expected) < 1e-6


def test_solve_agrees_with_gate_level_pipeline():
    rng = np.random.default_rng(6)
    a = _grid_spd(rng, 2)
    b = rng.normal(size=2)
    b /= np.linalg.norm(b)
    prob = embed_problem(a, b)
    config = HhlConfig(lambda_bound=1.0, slices=3)
    fast = hhl_solve(prob, config)
    solution, success, _, _ = gate_level_hhl_solve(prob, config)
    assert np.allclose(fast.solution, solution, atol=1e-9)
    assert fast.success_probability == pytest.approx(success, abs=1e-9)


def test_scaling_covariance():
    rng = np.random.default_rng(7)
    a = _grid_spd(rng, 4)
    b = rng.normal(size=4)
    b /= np.linalg.norm(b)
    base = hhl_solve(embed_problem(a, b), HhlConfig(lambda_bound=1.0, slices=2**16))
    for alpha in (0.5, 2.0):
        scaled = hhl_solve(
            embed_problem(alpha * a, b), HhlConfig(lambda_bound=alpha, slices=2**16)
        )
        assert np.allclose(scaled.solution, base.solution / alpha, atol=1e-6)


def test_success_probability_matches_analytic_formula():
    rng = np.random.default_rng(8)
    a = _grid_spd(rng, 4)
    b = rng.normal(size=4)
    b /= np.linalg.norm(b)
    sol = hhl_solve(embed_problem(a, b), HhlConfig(lambda_bound=1.0, slices=2**20))
    lams, vecs = np.linalg.eigh(a)
    betas = vecs.T @ b
    phases = lams / 2.0  # lambda / (2 * bound)
    constant = min(abs(p) for p, w in zip(phases, betas) if abs(w) > 1e-12)
    expected = sum(w**2 * constant**2 / p**2 for w, p in zip(betas, phases))
    assert sol.success_probability == pytest.approx(expected, abs=1e-8)


def test_negative_eigenvalues_through_dilation():
    rng = np.random.default_rng(9)
    a = _grid_spd(rng, 4, top_bin=3)
    b = rng.normal(size=4)
    prob = embed_problem(a, b, force_dilation=True)
    assert prob.dilated
    sol = hhl_solve(prob, HhlConfig(lambda_bound=1.0, slices=2**20))
    expected = np.linalg.solve(a, b)
    assert np.linalg.norm(sol.solution - expected) / np.linalg.norm(expected) < 1e-6


def test_uncompute_returns_phase_register_to_zero():
    # drive the public pieces end to end and inspect the register before
    # post-selection
    b = np.array([1.0, 1.0]) / math.sqrt(2)
    prob = embed_problem(FLIP, b)
    k, m = 1, 3
    phase_qubits = list(range(k, k + m))
    spec = EvolutionSpec(decompose_hermitian(prob.matrix), -math.pi / 1.0, 50, 2)
    n = k + m + 1
    state = StateVector.zero(n)
    state = apply_circuit(state, Circuit(n, state_preparation_circuit(prob.rhs).ops))
    forward = qpe_circuit(spec, phase_qubits)
    state = apply_circuit(state, Circuit(n, forward.ops))
    inv = inversion_rotation_circuit(phase_qubits, k + m, 1.0 / 8.0)  # valid for all grid bins
    state = apply_circuit(state, Circuit(n, inv.ops))
    state = apply_circuit(state, Circuit(n, inverse_circuit(forward).ops))
    register = measure_distribution(state, phase_qubits)
    assert register.get(0, 0.0) >= 1.0 - 1e-9


def test_gate_tally_structure():
    rng = np.random.default_rng(10)
    a = rng.normal(size=(12, 12))
    prob = embed_problem(a + a.T, rng.normal(size=12), force_dilation=True)
    one, two, per = hhl_gate_tally(prob, HhlConfig(slices=50))
    assert one > 0 and two > 0
    assert set(per) <= {"x", "h", "u", "cx", "cu", "cry"}
    assert one + two == sum(per.values())
    # fully unrolled product formula dwarfs the composite-instruction tally
    assert two > 1000


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("slices", [1, 2])
@pytest.mark.parametrize("order", [2])  # the product-formula order hhl_solve uses
@pytest.mark.parametrize("identity_term", [True, False])
def test_gate_tally_counts_the_materialized_pipeline(dim, m, slices, order, identity_term):
    """The compositional tally equals the gate counts of the unrolled
    pipeline: preparation, phase estimation, inversion and its mirror."""
    rng = np.random.default_rng(dim * 100 + m)
    a = rng.normal(size=(dim, dim))
    # a dilation is traceless, so its decomposition has no identity term
    problem = embed_problem(a + a.T, rng.normal(size=dim), force_dilation=not identity_term)
    terms = decompose_hermitian(problem.matrix).terms
    assert any(set(label) == {"I"} for _, label in terms) == identity_term
    config = HhlConfig(n_phase_qubits=m, slices=slices)
    k = problem.n_data_qubits
    phase_qubits = list(range(k, k + m))
    spec = EvolutionSpec(decompose_hermitian(problem.matrix), -math.pi / spectral_bound(problem.matrix), slices, order)
    forward = qpe_circuit(spec, phase_qubits)
    ops = (
        state_preparation_circuit(problem.rhs).ops
        + forward.ops
        + inversion_rotation_circuit(phase_qubits, k + m, 2.0**-m).ops
        + inverse_circuit(forward).ops
    )
    assert hhl_gate_tally(problem, config) == gate_counts(Circuit(k + m + 1, ops))


# ---------------------------------------------------------------------------
# reference pipelines
# ---------------------------------------------------------------------------

def _reference_setup(problem, config):
    k, m = problem.n_data_qubits, config.n_phase_qubits
    phase_qubits = list(range(k, k + m))
    bound = config.lambda_bound if config.lambda_bound is not None else spectral_bound(problem.matrix)
    spec = EvolutionSpec(decompose_hermitian(problem.matrix), -math.pi / bound, config.slices)
    return k, m, k + m + 1, phase_qubits, bound, spec


def _reference_inversion(register, config, phase_qubits, ancilla):
    """The inversion constant and rotations hhl_solve picks for a register
    distribution."""
    m = config.n_phase_qubits
    reachable = {v for v, p in register.items() if p > REACHABLE_TOL}
    reachable_nonzero = sorted(v for v in reachable if v != 0)
    if not reachable_nonzero:
        raise HhlError("phase register resolves only the zero eigenvalue bin")
    constant = min(abs(bin_phase(v, m)) for v in reachable_nonzero)
    bins = [None] * 2**m
    for v in range(1, 2**m):
        lam = bin_phase(v, m)
        if abs(constant / lam) <= 1.0 + 1e-12:
            bins[v] = lam
    return constant, inversion_rotation_circuit(phase_qubits, ancilla, constant, bins)


def _reference_readout(problem, state, k, m, constant, bound):
    """Post-select the ancilla and read the de-normalized, phase-aligned
    solution, the success probability and the fidelity proxy."""
    selected = state.amplitudes[2 ** (k + m) :]
    success = float(np.sum(np.abs(selected) ** 2))
    if success < 1e-12:
        raise HhlError(f"post-selection probability {success} below threshold")
    success = min(success, 1.0)
    block = selected[: 2**k]
    block_norm = float(np.linalg.norm(block))
    fidelity = block_norm / math.sqrt(success)
    pivot = int(np.argmax(np.abs(block)))
    phase = float(np.angle(block[pivot])) if block_norm > 0 else 0.0
    if phase > math.pi / 2:
        phase -= math.pi
    elif phase < -math.pi / 2:
        phase += math.pi
    aligned = np.real(block * np.exp(-1j * phase))
    denorm = problem.rhs_norm / (constant * 2.0 * bound) / problem.scale
    return project_solution(problem, aligned * denorm), success, min(fidelity, 1.0)


def gate_level_hhl_solve(problem, config):
    """The pipeline with the fully unrolled gate evolution on all k+m+1
    qubits: phase estimation by qpe_circuit, the uncompute as its inverse."""
    k, m, n, phase_qubits, bound, spec = _reference_setup(problem, config)
    forward = Circuit(n, qpe_circuit(spec, phase_qubits).ops)
    state = apply_circuit(StateVector.zero(n), Circuit(n, state_preparation_circuit(problem.rhs).ops))
    state = apply_circuit(state, forward)
    register = measure_distribution(state, phase_qubits)
    constant, inversion = _reference_inversion(register, config, phase_qubits, k + m)
    state = apply_circuit(state, Circuit(n, inversion.ops))
    state = apply_circuit(state, inverse_circuit(forward))
    return (*_reference_readout(problem, state, k, m, constant, bound), register)


def full_register_hhl_solve(problem, config):
    """Reference: the matrix path with all k+m+1 qubits from the state
    preparation through the uncompute, ancilla included throughout."""
    k, m, n, phase_qubits, bound, spec = _reference_setup(problem, config)

    state = StateVector.zero(n)
    for op in state_preparation_circuit(problem.rhs).ops:
        state = apply_gate(state, op)
    iqft = inverse_qft_circuit(phase_qubits)
    for q in phase_qubits:
        state = apply_gate(state, h(q))
    amps = state.amplitudes.copy()
    step = _nearest_unitary(evolution_matrix(spec))
    for q, power in zip(phase_qubits, _squaring_chain(step, m)):
        _apply_controlled_block(amps, power, k, q)
        amps = amps / np.linalg.norm(amps)
    state = apply_circuit(StateVector(n, amps), Circuit(n, iqft.ops))

    register = measure_distribution(state, phase_qubits)
    constant, inversion = _reference_inversion(register, config, phase_qubits, k + m)
    state = apply_circuit(state, Circuit(n, inversion.ops))

    state = apply_circuit(state, Circuit(n, inverse_circuit(iqft).ops))
    amps = state.amplitudes.copy()
    for q, power in reversed(list(zip(phase_qubits, _squaring_chain(step.conj().T, m)))):
        _apply_controlled_block(amps, power, k, q)
        amps = amps / np.linalg.norm(amps)
    state = StateVector(n, amps)
    for q in phase_qubits:
        state = apply_gate(state, h(q))
    return (*_reference_readout(problem, state, k, m, constant, bound), register)


def test_solve_reuses_an_inversion_table_equal_to_a_fresh_circuit(monkeypatch):
    """hhl_solve reads its inversion off a table cached per (m, C): the
    register values and rotation matrices of inversion_rotation_circuit's
    ops, read-only."""
    tables = []

    def spy(n_phase, constant):
        tables.append(_inversion_table(n_phase, constant))
        return tables[-1]

    monkeypatch.setattr(qlma.hhl, "_inversion_table", spy)
    rng = np.random.default_rng(11)
    a = rng.normal(size=(4, 4))
    problem = embed_problem(a + a.T, rng.normal(size=4))
    config = HhlConfig(n_phase_qubits=4)
    first, second = hhl_solve(problem, config), hhl_solve(problem, config)
    assert len(tables) == 2 and tables[0] is tables[1]
    assert first.solution.tobytes() == second.solution.tobytes()
    k, m = problem.n_data_qubits, config.n_phase_qubits
    _, fresh = _reference_inversion(first.register_distribution, config, list(range(k, k + m)), k + m)
    values, mats = tables[0]
    assert len(fresh.ops) > 1 and values.tolist() == [
        sum(s << j for j, s in enumerate(op.control_states)) for op in fresh.ops
    ]
    assert mats.tobytes() == np.stack([gate_matrix(op) for op in fresh.ops])[:, None].tobytes()
    for table in (values, mats):
        with pytest.raises(ValueError):
            table[0] = 0


@st.composite
def linear_systems(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(2, 8))
    a = rng.normal(size=(dim, dim))
    return embed_problem(a + a.T, rng.normal(size=dim), force_dilation=draw(st.booleans()))


@settings(max_examples=60, deadline=None)
@given(linear_systems(), st.sampled_from([1, 2, 3, 4, 5, 7]), st.integers(1, 4))
def test_solve_bit_identical_to_full_register_pipeline(problem, m, slices):
    config = HhlConfig(n_phase_qubits=m, slices=slices)
    try:
        expected = full_register_hhl_solve(problem, config)
    except HhlError as exc:
        with pytest.raises(HhlError, match=re.escape(str(exc))):
            hhl_solve(problem, config)
        return
    got = hhl_solve(problem, config)
    solution, success, fidelity, register = expected
    assert got.solution.tobytes() == solution.tobytes()
    assert (got.success_probability, got.fidelity_proxy) == (success, fidelity)
    assert got.register_distribution == register


# ---------------------------------------------------------------------------
# the hhl step's own solves, pinned
# ---------------------------------------------------------------------------

# SHA-256 over the 16 solves at each phase-qubit count, recorded with BLAS on
# one thread.  The systems go through BLAS and LAPACK (the evolution matrix,
# its powers, eigvalsh), so the sets are recorded per OpenBLAS kernel.
_LM_SOLVE_DIGESTS = {
    "SkylakeX": {
        1: "4bb8f87b714c2f88042bc9f9a5a44657988ad7666eb8d7ac177139dd24ea3aec",
        2: "bccab11f199e6775938f34430898390ecba2d5e14b69dddb27713e0cbc0dbfce",
        3: "55307e605038ea16787f0d4daf954eecddc1ee9165b5618d45fd823add5ef7e2",
        5: "86a54bf16ad922b801706d34edb952a1fed97e6a24a169533d1d7349f1280bc1",
        7: "3c9ddd796b4bbdcb6e98652ebc91633a4edf6c68245ca85d905065e5842bf28c",
    },
    "Haswell": {
        1: "7e001a1906e2c78b2f9ab0d91e56430fb50f9ba058c65e2f7f90c8534dc9c0fc",
        2: "79ab885efc9094dc61fd215c8f55ec6e80f305da3cd3add0622470bc45723b1f",
        3: "30e74b0859f01968ddf38e41ffdd730c7c602b666592ddb34acd5859d2b5d5df",
        5: "6045fb5abdb006e13a9d816209a3fba83ad50cb483b8210c8e8f639e4f56e8a7",
        7: "ec11f03cd7047a2d89150488117236dbb6c37a7dbffa0d9e6c790c2e72134a08",
    },
}


def _lm_solve_digest(m):
    """The hhl step's system (hhl_system) at the initial parameters of problem
    seeds 1-8, with lambda1 in {1e-2, 1e-5} and lambda2 = 0.01, solved at m
    phase qubits with lma_step's eigvalsh bound.  Each solve adds its solution
    bytes, the reprs of its success probability and fidelity proxy, and its
    sorted register distribution."""
    digest = hashlib.sha256()
    for seed in range(1, 9):
        scene = generate_problem(seed).initial
        r, jac = residuals_and_jacobian(scene, scene.initial_params())
        for lam1 in (1e-2, 1e-5):
            problem = hhl_system(build_normal_equations(r, jac, lam1, 0.01, m_c=scene.n_camera_params))
            config = HhlConfig(n_phase_qubits=m, lambda_bound=_hhl_lambda_bound(problem.matrix, m))
            got = hhl_solve(problem, config)
            digest.update(got.solution.tobytes())
            digest.update(repr((got.success_probability, got.fidelity_proxy)).encode())
            digest.update(repr(sorted(got.register_distribution.items())).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("m", [1, 2, 3, 5, 7])
def test_lm_step_solves_match_pinned_digests(m):
    core = openblas_core()
    digests = _LM_SOLVE_DIGESTS.get(core)
    assert digests is not None, f"no digests recorded for OpenBLAS core {core}"
    assert _lm_solve_digest(m) == digests[m]
