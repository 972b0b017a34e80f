import dataclasses
import gc
import hashlib
import math
import re
import weakref

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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
    _apply_controlled_block,
    _estimation_input,
    _inversion_table,
    _nearest_unitary,
    _next_power_of_two,
    _renormalize,
    _squaring_chain,
    project_solution,
    spectral_bound,
)
from qlma.optimizer import hhl_system
from qlma.sim import (
    Circuit,
    GateOp,
    StateVector,
    apply_circuit,
    apply_gate,
    h,
    inverse_circuit,
    inverse_qft_circuit,
    measure_distribution,
)
from qlma.trotter import (
    EvolutionSpec,
    decompose_hermitian,
    evolution_matrix,
)

from reference import (
    gate_counts,
    inversion_rotation_circuit,
    minimal_hhl_circuit,
    one_openblas_thread,
    openblas_core,
    qpe_circuit,
    state_preparation_circuit,
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


@pytest.mark.parametrize(
    "matrix, rhs, message",
    [
        (np.eye(2), [math.nan, 1.0], "^rhs has non-finite entries$"),
        (np.eye(2), [math.inf, 1.0], "^rhs has non-finite entries$"),
        (np.eye(2), [1.0, -math.inf], "^rhs has non-finite entries$"),
        ([[1.0, math.inf], [math.inf, 1.0]], [1.0, 0.0], "^matrix has non-finite entries$"),
        ([[math.nan, 0.0], [0.0, 1.0]], [1.0, 0.0], "^matrix has non-finite entries$"),
        (np.ones((2, 3)), [1.0, 0.0], "^matrix must be square$"),
        (np.eye(2), [1.0, 0.0, 0.0], "^rhs length does not match the matrix$"),
        ([[2.0, 1j], [-1j, 2.0]], [1.0, 0.0], "^matrix is complex$"),
        (np.eye(2), [1.0, 1j], "^rhs is complex$"),
    ],
    ids=[
        "nan-rhs", "inf-rhs", "minus-inf-rhs", "inf-matrix", "nan-matrix", "non-square", "rhs-length",
        "complex-matrix", "complex-rhs",
    ],
)
def test_embed_rejects_input_it_cannot_embed_where_it_enters(matrix, rhs, message):
    for force_dilation in (False, True):
        with pytest.raises(HhlError, match=message):
            embed_problem(np.array(matrix), np.array(rhs), force_dilation=force_dilation)


@pytest.mark.parametrize(
    "matrix, rhs, message",
    [
        (np.eye(2), [math.nan, 1.0], "^embedded rhs has non-finite entries$"),
        (np.eye(2), [math.inf, 0.0], "^embedded rhs has non-finite entries$"),
        (np.eye(4), [1.0, 0.0], r"^embedded rhs of shape \(2,\) does not match the 4-row matrix$"),
        (np.eye(2), [[1.0, 0.0]], r"^embedded rhs of shape \(1, 2\) does not match the 2-row matrix$"),
        ([[1.0, 1.0], [0.0, 1.0]], [1.0, 0.0], "^embedded matrix is not Hermitian$"),
        (np.ones((2, 3)), [1.0, 0.0], r"^embedded matrix of shape \(2, 3\) is not square with a power-of-two size$"),
        (np.eye(3), [1.0, 0.0, 0.0], r"^embedded matrix of shape \(3, 3\) is not square with a power-of-two size$"),
        (np.ones(4), [1.0, 0.0, 0.0, 0.0], r"^embedded matrix of shape \(4,\) is not square with a power-of-two size$"),
        ([[2.0, 1j], [-1j, 2.0]], [1.0, 0.0], "^embedded matrix is complex$"),
        (np.eye(2), [1.0, 1j], "^embedded rhs is complex$"),
    ],
    ids=[
        "nan-rhs", "inf-rhs", "short-rhs", "row-rhs", "non-hermitian", "non-square", "size-3", "one-dimensional",
        "complex-matrix", "complex-rhs",
    ],
)
def test_hermitian_problem_rejects_a_bad_field_by_name(matrix, rhs, message):
    with pytest.raises(HhlError, match=message):
        HermitianProblem(np.array(matrix), np.array(rhs), 1.0, 2)


def test_solve_rejects_a_zero_spectral_bound():
    # a zero matrix has row-sum bound 0, which sets no evolution time
    with pytest.raises(HhlError, match="spectral bound must be positive"):
        hhl_solve(HermitianProblem(np.zeros((2, 2)), np.array([1.0, 0.0]), 1.0, 2))


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
    """The reference and the package's own entry, reached by the solve and by
    the tally, reject the same rhs with the same message."""
    for rhs in ([1.0, 1.0], [0.6, -0.6], [0.0, 0.0], [1.0 + 1e-8, 0.0], [0.5, 0.0, 0.0, -0.5]):
        rhs = np.array(rhs)
        problem = HermitianProblem(np.eye(rhs.size), rhs, 1.0, rhs.size)
        for call, arg in ((state_preparation_circuit, rhs), (hhl_solve, problem), (hhl_gate_tally, problem)):
            with pytest.raises(HhlError, match="^rhs must be normalized$"):
                call(arg)


def test_preparation_rejects_nan():
    with pytest.raises(HhlError, match="normalized"):
        state_preparation_circuit(np.array([math.nan, 1.0]))


@pytest.mark.parametrize("size", [1, 3, 6])
def test_preparation_rejects_a_length_that_is_no_power_of_two(size):
    message = f"^rhs length {size} is not a power of two of at least 2$"
    with pytest.raises(HhlError, match=message):
        state_preparation_circuit(np.full(size, 1.0 / math.sqrt(size)))
    if size == 1:  # a 1x1 system is the one such rhs a HermitianProblem holds
        for matrix, rhs in (([[1.0]], [1.0]), ([[-3.0]], [-1.0]), ([[0.5]], [1.0])):
            problem = HermitianProblem(np.array(matrix), np.array(rhs), 1.0, 1)
            for call in (hhl_solve, hhl_gate_tally):
                with pytest.raises(HhlError, match=message):
                    call(problem)


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


@pytest.mark.parametrize("bins", [[None], [None, 0.5, -0.5]])
def test_inversion_needs_one_eigenvalue_per_register_value(bins):
    with pytest.raises(HhlError, match="one eigenvalue entry per register value"):
        inversion_rotation_circuit(_layout(1), 2, 0.25, bins)


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


@pytest.mark.parametrize(
    "kwargs, message",
    [({"n_phase_qubits": 0}, "phase qubit"), ({"slices": 0}, "time slice"), ({"slices": -2}, "time slice")],
)
def test_config_rejects_no_phase_qubit_or_no_slice(kwargs, message):
    with pytest.raises(HhlError, match=message):
        HhlConfig(**kwargs)


@pytest.mark.parametrize(
    "field, value",
    [
        ("n_phase_qubits", 2.0), ("n_phase_qubits", True), ("slices", 2.5), ("slices", False),
        ("lambda_bound", math.nan), ("lambda_bound", math.inf), ("lambda_bound", 0.0),
        ("lambda_bound", -1.0), ("lambda_bound", True), ("lambda_bound", "1.0"),
    ],
)
def test_config_rejects_a_mistyped_or_non_finite_field_by_name(field, value):
    with pytest.raises(HhlError, match=field):
        HhlConfig(**{field: value})
    # lma_step fills in the bound with dataclasses.replace, which runs the same check
    with pytest.raises(HhlError, match=field):
        dataclasses.replace(HhlConfig(), **{field: value})


def test_gate_tally_structure():
    rng = np.random.default_rng(10)
    a = rng.normal(size=(12, 12))
    prob = embed_problem(a + a.T, rng.normal(size=12), force_dilation=True)
    one, two, per = hhl_gate_tally(prob, HhlConfig(slices=50))
    assert one > 0 and two > 0
    assert set(per) <= {"h", "u", "cx", "cu", "cry"}
    assert one + two == sum(per.values())
    # fully unrolled product formula dwarfs the composite-instruction tally
    assert two > 1000


# every transform size up to 8, the larger ones on the smallest system and one slice
@pytest.mark.parametrize(
    "slices, m, dim",
    [(slices, m, dim) for dim in (2, 3, 4, 8) for m in (1, 2, 3) for slices in (1, 2)]
    + [(1, m, 2) for m in range(4, 9)],
)
@pytest.mark.parametrize("order", [2])  # the product-formula order hhl_solve uses
@pytest.mark.parametrize(
    "identity_term, diagonal", [(True, False), (False, False), (False, True)], ids=["True", "False", "diagonal"]
)
def test_gate_tally_counts_the_materialized_pipeline(dim, m, slices, order, identity_term, diagonal):
    """The tally, which counts the slices from the Pauli labels, equals the
    gate counts of the unrolled pipeline built from the reference gate form:
    preparation, phase estimation, inversion and its mirror."""
    rng = np.random.default_rng(dim * 100 + m)
    a = rng.normal(size=(dim, dim))
    matrix = a + a.T
    if diagonal:
        # Z-strings only, shifted so that the embedding's padded unit diagonal leaves it traceless
        matrix = np.diag(np.diag(matrix) - (np.trace(matrix) + _next_power_of_two(dim) - dim) / dim)
    # a dilation is traceless, so its decomposition has no identity term
    problem = embed_problem(matrix, rng.normal(size=dim), force_dilation=not (identity_term or diagonal))
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
    tally = hhl_gate_tally(problem, config)
    assert tally == gate_counts(Circuit(k + m + 1, ops))
    if diagonal:
        # no basis change, so no u at all; on one data qubit no parity ladder,
        # so the only cx are the inverse transform's swaps
        assert all(set(label) <= {"I", "Z"} for _, label in terms)
        assert "u" not in tally[2]
        if k == 1:
            assert tally[2].get("cx", 0) == 2 * gate_counts(inverse_qft_circuit(phase_qubits))[2].get("cx", 0)


# ---------------------------------------------------------------------------
# the solver's register kernels against their full-register forms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", range(1, 6))
def test_grown_hadamard_layer_bytes_equal_the_full_layer(k):
    """hhl_solve's closed-form start of phase estimation gives the bytes of
    the Hadamard layer, run by apply_circuit on the encoded |b> zero-extended
    to the phase qubits, signed zeros included."""
    rng = np.random.default_rng(k)
    rhs = rng.normal(size=2**k)
    rhs[rng.random(2**k) < 0.3] = 0.0
    rhs[rng.integers(2**k)] = -1.0
    rhs /= np.linalg.norm(rhs)
    encoded = apply_circuit(StateVector.zero(k), state_preparation_circuit(rhs)).amplitudes
    for m in range(1, 8):
        extended = np.zeros(2 ** (k + m), dtype=complex)
        extended[: 2**k] = encoded
        hadamards = Circuit(k + m, tuple(h(q) for q in range(k, k + m)))
        full = apply_circuit(StateVector(k + m, extended), hadamards).amplitudes
        assert _estimation_input(rhs, m).astype(complex).tobytes() == full.tobytes()


@settings(max_examples=200, deadline=None)
@given(
    k=st.integers(1, 5),
    m=st.integers(0, 7),
    seed=st.integers(0, 2**32 - 1),
    zeros=st.floats(0.0, 0.9),
    zero_half=st.booleans(),
    uniform=st.just(False),
)
@example(k=1, m=0, seed=0, zeros=0.0, zero_half=False, uniform=True)
@example(k=5, m=7, seed=0, zeros=0.0, zero_half=False, uniform=True)
def test_estimation_input_bytes_equal_the_reference_encoding_and_hadamards(k, m, seed, zeros, zero_half, uniform):
    """hhl_solve's closed-form |b> (x) |+>^m, as complex, has the bytes of the
    reference encoding's ops and a Hadamard per phase qubit run by
    apply_circuit from |0...0>, signed zeros included.  The vectors have
    negative entries and zeros, some a zero half at any level of the encoding
    tree (where a rotation is skipped but its block keeps its amplitude)."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=2**k) * (rng.random(2**k) >= zeros)
    v[rng.integers(2**k)] = rng.choice([-1.0, 1.0])
    if zero_half:
        half = 2 ** int(rng.integers(k))
        start = half * int(rng.integers(2**k // half))
        v[start : start + half] = 0.0
        v[(start + half) % 2**k] = rng.choice([-1.0, 1.0])  # outside the zeroed half
    if uniform:
        v = np.ones(2**k)
    v /= np.linalg.norm(v)
    n = k + m
    ops = state_preparation_circuit(v).ops + tuple(h(q) for q in range(k, n))
    expected = apply_circuit(StateVector.zero(n), Circuit(n, ops)).amplitudes
    assert _estimation_input(v, m).astype(complex).tobytes() == expected.tobytes()


def test_a_warm_solve_builds_no_simulator_op(monkeypatch):
    """A second solve at the same k and m, of another system, constructs no
    GateOp and no Circuit: its circuits are cached per register size, and
    the state phase estimation starts from is computed in closed form."""
    rng = np.random.default_rng(12)
    problems = [embed_problem(a + a.T, rng.normal(size=12), force_dilation=True) for a in rng.normal(size=(2, 12, 12))]
    config = HhlConfig(n_phase_qubits=3)
    hhl_solve(problems[0], config)
    built = {GateOp: 0, Circuit: 0}
    for cls in built:
        def counting(self, cls=cls, post_init=cls.__post_init__):
            built[cls] += 1
            post_init(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
    hhl_solve(problems[1], config)
    assert built == {GateOp: 0, Circuit: 0}
    Circuit(1, (h(0),))  # the counters see a construction
    assert built == {GateOp: 1, Circuit: 1}


def test_src_builds_only_hadamard_phase_and_flip_ops(monkeypatch):
    """A cold solve and a gate tally build GateOps of the kinds h, cu and cx
    only, the Fourier transforms' and Hadamard layers' gates; every other
    gate form belongs to tests/reference.py."""
    rng = np.random.default_rng(13)
    a = rng.normal(size=(4, 4))
    problem = embed_problem(a + a.T, rng.normal(size=4), force_dilation=True)
    kinds = set()

    def recording(self, post_init=GateOp.__post_init__):
        kinds.add(self.kind)
        post_init(self)

    monkeypatch.setattr(GateOp, "__post_init__", recording)
    qlma.hhl._readout_circuits.cache_clear()
    for m in range(1, 8):
        config = HhlConfig(n_phase_qubits=m)
        hhl_solve(problem, config)
        hhl_gate_tally(problem, config)
    assert kinds == {"h", "cu", "cx"}


_components = st.sampled_from([0.0, -0.0]) | st.floats(-1e3, 1e3, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 6).flatmap(lambda n: st.lists(_components, min_size=2 ** (n + 1), max_size=2 ** (n + 1))))
def test_renormalize_keeps_the_bits_of_the_division(parts):
    """_renormalize multiplies by 1 / norm; numpy's complex division by the
    norm gives every nonzero component the same bits, and zeros stay zero."""
    amps = np.array(parts).view(complex)
    norm = np.linalg.norm(amps)
    assume(norm > 0.0)
    expected = (amps / norm).view(float)
    got = amps.copy()
    _renormalize(got)
    got = got.view(float)
    nonzero = expected != 0.0
    assert got[nonzero].tobytes() == expected[nonzero].tobytes()
    assert np.all(got[~nonzero] == 0.0)


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
    denorm = problem.rhs_norm / (constant * 2.0 * bound)
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
    """hhl_solve reads its inversion off a read-only table cached per (m, C).
    At every m = 1..8 and every positive bin phase C = j / 2**m, the table
    holds the register values and rotation matrices of the gate form's ops."""
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
    for table in tables[0]:
        with pytest.raises(ValueError):
            table[0] = 0
    for m in range(1, 9):
        for j in range(1, 2 ** (m - 1) + 1):
            constant, fresh = _reference_inversion({j: 1.0}, HhlConfig(n_phase_qubits=m), list(range(m)), m)
            values, mats = _inversion_table(m, constant)
            assert constant == j / 2**m and values.tolist() == [
                sum(s << q for q, s in enumerate(op.control_states)) for op in fresh.ops
            ]
            assert mats.tobytes() == np.stack([op.matrix for op in fresh.ops])[:, None].tobytes()


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
    """The hhl step's system and config (hhl_system) at the initial parameters
    of problem seeds 1-8, with lambda1 in {1e-2, 1e-5} and lambda2 = 0.01,
    solved at m phase qubits with the builder's eigvalsh bound.  Each solve
    adds its solution bytes, the reprs of its success probability and
    fidelity proxy, and its sorted register distribution."""
    digest = hashlib.sha256()
    for seed in range(1, 9):
        scene = generate_problem(seed).initial
        r, jac = residuals_and_jacobian(scene, scene.initial_params())
        for lam1 in (1e-2, 1e-5):
            ne = build_normal_equations(r, jac, lam1, 0.01, m_c=scene.n_camera_params)
            got = hhl_solve(*hhl_system(ne, HhlConfig(n_phase_qubits=m)))
            digest.update(got.solution.tobytes())
            digest.update(repr((got.success_probability, got.fidelity_proxy)).encode())
            digest.update(repr(sorted(got.register_distribution.items())).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("m", [1, 2, 3, 5, 7])
def test_lm_step_solves_match_pinned_digests(m):
    core = openblas_core()
    digests = _LM_SOLVE_DIGESTS.get(core)
    assert digests is not None, f"no digests recorded for OpenBLAS core {core}"
    with one_openblas_thread():
        assert _lm_solve_digest(m) == digests[m]
