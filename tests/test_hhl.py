import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qlma.hhl
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
    _nearest_unitary,
    _squaring_chain,
    minimal_hhl_circuit,
    project_solution,
    spectral_bound,
    state_preparation_circuit,
)
from qlma.sim import (
    Circuit,
    StateVector,
    apply_circuit,
    apply_gate,
    circuit_unitary,
    gate_counts,
    h,
    inverse_circuit,
    measure_distribution,
    post_select,
)
from qlma.trotter import (
    EvolutionSpec,
    decompose_hermitian,
    evolution_matrix,
    inverse_qft_circuit,
    qpe_circuit,
)

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


def test_embed_non_symmetric_dilates():
    m = np.array([[1.0, 2.0], [0.0, 1.0]])
    prob = embed_problem(m, np.array([1.0, 1.0]))
    assert prob.dilated
    assert prob.matrix.shape == (4, 4)
    assert np.max(np.abs(prob.matrix - prob.matrix.T)) < 1e-12


def test_embed_dilated_system_solves_original():
    # classical check of the embedding algebra on a non-symmetric system
    rng = np.random.default_rng(1)
    m = rng.normal(size=(3, 3)) + 3 * np.eye(3)
    b = rng.normal(size=3)
    prob = embed_problem(m, b)
    y = np.linalg.solve(prob.matrix, prob.rhs * prob.rhs_norm)
    half = prob.matrix.shape[0] // 2
    assert np.allclose(y[half : half + 3], np.linalg.solve(m, b), atol=1e-10)


@settings(max_examples=100, deadline=None)
@given(
    dim=st.integers(1, 12),
    symmetric=st.booleans(),
    force_dilation=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_project_solution_recovers_the_original_solve(dim, symmetric, force_dilation, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim))
    if symmetric:
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


def test_preparation_uniform_is_hadamards():
    c = state_preparation_circuit(np.array([1.0, 1.0]) / math.sqrt(2))
    assert [op.kind for op in c.ops] == ["h"]
    c = state_preparation_circuit(np.full(4, 0.5))
    assert [op.kind for op in c.ops] == ["h", "h"]


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
@given(k=st.integers(1, 5), seed=st.integers(0, 2**32 - 1), zeros=st.floats(0.0, 0.9))
def test_preparation_amplitudes_property(k, seed, zeros):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=2**k) * (rng.random(2**k) >= zeros)
    v[rng.integers(2**k)] = rng.choice([-1.0, 1.0])  # at least one nonzero
    v /= np.linalg.norm(v)
    out = apply_circuit(StateVector.zero(k), state_preparation_circuit(v))
    assert np.max(np.abs(out.amplitudes - v)) <= 1e-12


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
    _, prob = post_select(state, 2, 1)
    assert prob == pytest.approx(1.0, abs=1e-12)


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


# ---------------------------------------------------------------------------
# reference pipelines
# ---------------------------------------------------------------------------

def _reference_setup(problem, config):
    k, m = problem.n_data_qubits, config.n_phase_qubits
    phase_qubits = list(range(k, k + m))
    bound = config.lambda_bound if config.lambda_bound is not None else spectral_bound(problem.matrix)
    spec = EvolutionSpec(decompose_hermitian(problem.matrix), -math.pi / bound, config.slices, config.order)
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
    amps = state.amplitudes
    step = _nearest_unitary(evolution_matrix(spec))
    for q, power in zip(phase_qubits, _squaring_chain(step, m)):
        amps = _apply_controlled_block(amps, power, k, q)
        amps = amps / np.linalg.norm(amps)
    state = apply_circuit(StateVector(n, amps), Circuit(n, iqft.ops))

    register = measure_distribution(state, phase_qubits)
    constant, inversion = _reference_inversion(register, config, phase_qubits, k + m)
    state = apply_circuit(state, Circuit(n, inversion.ops))

    state = apply_circuit(state, Circuit(n, inverse_circuit(iqft).ops))
    amps = state.amplitudes
    for q, power in reversed(list(zip(phase_qubits, _squaring_chain(step.conj().T, m)))):
        amps = _apply_controlled_block(amps, power, k, q)
        amps = amps / np.linalg.norm(amps)
    state = StateVector(n, amps)
    for q in phase_qubits:
        state = apply_gate(state, h(q))
    return (*_reference_readout(problem, state, k, m, constant, bound), register)


def test_solve_reuses_an_inversion_circuit_equal_to_a_fresh_one(monkeypatch):
    """hhl_solve builds its inversion circuit once per (k, m, C); the cached
    circuit has the ops inversion_rotation_circuit builds afresh."""
    applied = []

    def spy(state, circuit):
        applied.append(circuit)
        return apply_circuit(state, circuit)

    monkeypatch.setattr(qlma.hhl, "apply_circuit", spy)
    rng = np.random.default_rng(11)
    a = rng.normal(size=(4, 4))
    problem = embed_problem(a + a.T, rng.normal(size=4))
    config = HhlConfig(n_phase_qubits=4)
    first, second = hhl_solve(problem, config), hhl_solve(problem, config)
    k, m = problem.n_data_qubits, config.n_phase_qubits
    inversions = [c for c in applied if c.ops and all(op.kind == "cry" for op in c.ops)]
    assert len(inversions) == 2 and inversions[0] is inversions[1]
    _, fresh = _reference_inversion(first.register_distribution, config, list(range(k, k + m)), k + m)
    assert inversions[0] == fresh and len(fresh.ops) > 1
    assert first.solution.tobytes() == second.solution.tobytes()


@st.composite
def linear_systems(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(2, 8))
    a = rng.normal(size=(dim, dim))
    if draw(st.booleans()):
        a = a + a.T
    return embed_problem(a, rng.normal(size=dim), force_dilation=draw(st.booleans()))


@settings(max_examples=60, deadline=None)
@given(linear_systems(), st.sampled_from([1, 2, 3, 4, 5, 7]), st.sampled_from([1, 2]), st.integers(1, 4))
def test_solve_bit_identical_to_full_register_pipeline(problem, m, order, slices):
    config = HhlConfig(n_phase_qubits=m, slices=slices, order=order)
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
