import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qlma.ba import build_normal_equations, generate_problem, residuals_and_jacobian
from qlma.hhl import HhlConfig
from qlma.optimizer import hhl_system
from qlma.sim import SimulationError, StateVector, apply_circuit
from qlma.trotter import (
    HERMITIAN_TOL,
    EvolutionSpec,
    HermitianDecomposition,
    decompose_hermitian,
    evolution_matrix,
    slice_matrix,
)

from reference import circuit_unitary, pauli_string_matrix, qpe_circuit, reconstruct, trotter_circuit

X = np.array([[0.0, 1.0], [1.0, 0.0]])
Z = np.array([[1.0, 0.0], [0.0, -1.0]])


def exact_evolution(matrix, t):
    """Independent oracle: eigendecomposition exponential."""
    w, v = np.linalg.eigh(matrix)
    return v @ np.diag(np.exp(-1j * w * t)) @ v.conj().T


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------

def test_decompose_pauli_x():
    dec = decompose_hermitian(X)
    assert dec.terms == ((1.0, "X"),)


def test_decompose_identity():
    dec = decompose_hermitian(np.eye(2))
    assert dec.terms == ((1.0, "I"),)


def test_decompose_hadamard_like_matrix():
    m = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)
    dec = decompose_hermitian(m)
    coeffs = dict((lbl, c) for c, lbl in dec.terms)
    assert coeffs == pytest.approx({"X": 1 / math.sqrt(2), "Z": 1 / math.sqrt(2)})
    assert np.max(np.abs(reconstruct(dec) - m)) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_decompose_reconstructs_random_hermitian(n):
    rng = np.random.default_rng(n)
    a = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    m = a + a.conj().T
    dec = decompose_hermitian(m)
    assert np.max(np.abs(reconstruct(dec) - m)) < 1e-10
    rebuilt = sum(c * pauli_string_matrix(lbl) for c, lbl in dec.terms)
    assert np.max(np.abs(rebuilt - m)) < 1e-10


def test_decompose_rejects_non_hermitian():
    with pytest.raises(SimulationError):
        decompose_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("matrix", [np.ones((2, 4)), np.ones(4), np.ones((1, 2, 2))])
def test_decompose_rejects_a_non_square_matrix(matrix):
    with pytest.raises(SimulationError, match="^matrix must be square$"):
        decompose_hermitian(matrix)


@pytest.mark.parametrize("matrix", [[[math.inf, 0.0], [0.0, 1.0]], [[1.0, math.inf], [0.0, 1.0]], [[1.0, math.nan], [math.nan, 1.0]]])
def test_decompose_rejects_non_finite(matrix):
    with pytest.raises(SimulationError, match="non-finite"):
        decompose_hermitian(np.array(matrix))


@pytest.mark.parametrize("label", [("X", "I"), ["X", "I"], b"XI", "xI", "X ", "XIZ", "X"])
def test_decomposition_rejects_bad_labels(label):
    with pytest.raises(SimulationError, match="bad Pauli label"):
        HermitianDecomposition(2, ((1.0, label),))


@pytest.mark.parametrize(
    "coef",
    ["1.0", None, 1 + 0j, True, np.complex128(1.0), np.True_],
    ids=["str", "None", "complex", "bool", "numpy-complex", "numpy-bool"],
)
def test_decomposition_rejects_bad_coefficients(coef):
    with pytest.raises(SimulationError, match="is not a real number"):
        HermitianDecomposition(1, ((coef, "X"),))


@pytest.mark.parametrize("coef", [math.inf, -math.inf, math.nan, np.float64(math.nan)])
def test_decomposition_rejects_non_finite_coefficients(coef):
    with pytest.raises(SimulationError, match="non-finite coefficient"):
        HermitianDecomposition(1, ((0.5, "Z"), (coef, "X")))


def test_decomposition_accepts_ints_numpy_floats_and_str_subclass_labels():
    class Label(str):
        pass

    terms = ((2, "XI"), (np.float64(-0.5), "ZY"), (0.25, Label("IZ")))
    assert HermitianDecomposition(2, terms).terms == terms


def test_decompose_rejects_bad_size():
    with pytest.raises(SimulationError):
        decompose_hermitian(np.eye(3))


def test_terms_sorted_by_magnitude():
    m = 0.2 * X + 1.5 * Z + 0.7 * np.eye(2)
    dec = decompose_hermitian(m)
    mags = [abs(c) for c, _ in dec.terms]
    assert mags == sorted(mags, reverse=True)


# ---------------------------------------------------------------------------
# product-formula evolution
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("slices", [1, 3])
def test_single_term_evolution_is_exact(order, slices):
    spec = EvolutionSpec(decompose_hermitian(X), 0.7, slices, order)
    expected = exact_evolution(X, 0.7)
    assert np.max(np.abs(circuit_unitary(trotter_circuit(spec)) - expected)) < 1e-12
    assert np.max(np.abs(evolution_matrix(spec) - expected)) < 1e-12


def test_identity_term_contributes_exact_phase():
    m = X - np.eye(2)
    spec = EvolutionSpec(decompose_hermitian(m), math.pi / 2, 1, 2)
    # e^{-i(X-I)pi/2} equals the plain flip exactly, including phase
    assert np.max(np.abs(circuit_unitary(trotter_circuit(spec)) - X)) < 1e-12


def test_quarter_turn_flip_evolution_up_to_phase():
    # e^{-iX pi/2} is the flip times a -i phase, which the circuit tracks
    spec = EvolutionSpec(decompose_hermitian(X), math.pi / 2, 1, 2)
    assert np.max(np.abs(circuit_unitary(trotter_circuit(spec)) - (-1j) * X)) < 1e-12


def test_gate_and_matrix_paths_agree():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(4, 4))
    m = a + a.T
    for order in (1, 2):
        spec = EvolutionSpec(decompose_hermitian(m), 0.6, 3, order)
        gate_u = circuit_unitary(trotter_circuit(spec))
        assert np.max(np.abs(gate_u - evolution_matrix(spec))) < 1e-10


def test_error_drops_fourfold_when_slices_double():
    dec = decompose_hermitian(X + Z)
    expected = exact_evolution(X + Z, 0.5)
    errs = []
    for r in (4, 8, 16):
        spec = EvolutionSpec(dec, 0.5, r, 2)
        errs.append(np.linalg.norm(evolution_matrix(spec) - expected, 2))
    for e_r, e_2r in zip(errs, errs[1:]):
        assert 3.0 < e_r / e_2r < 5.0


@pytest.mark.parametrize("order,slope", [(1, -1.0), (2, -2.0)])
def test_error_scaling_slopes(order, slope):
    dec = decompose_hermitian(X + Z)
    expected = exact_evolution(X + Z, 0.5)
    rs = [1, 2, 4, 8, 16, 32, 64]
    errs = [
        np.linalg.norm(evolution_matrix(EvolutionSpec(dec, 0.5, r, order)) - expected, 2)
        for r in rs
    ]
    fit = np.polyfit(np.log(rs), np.log(errs), 1)[0]
    assert abs(fit - slope) < 0.3


def test_controlled_power_matches_dense_controlled_power():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(2, 2))
    m = a + a.T
    spec = EvolutionSpec(decompose_hermitian(m), 0.4, 2, 2)
    w = evolution_matrix(spec)
    for j in (0, 1, 2):
        circ = trotter_circuit(spec, controlled_by=(1, j))
        got = circuit_unitary(circ)
        wp = np.linalg.matrix_power(w, 2**j)
        expected = np.eye(4, dtype=complex)
        expected[2:, 2:] = wp  # control qubit 1 set = indices {2, 3}
        assert np.max(np.abs(got - expected)) < 1e-10


def test_slice_matrix_is_unitary():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 4))
    spec = EvolutionSpec(decompose_hermitian(a + a.T), 1.3, 7, 2)
    s = slice_matrix(spec)
    assert np.max(np.abs(s @ s.conj().T - np.eye(4))) < 1e-12


def test_spec_validation():
    dec = decompose_hermitian(X)
    with pytest.raises(SimulationError):
        EvolutionSpec(dec, 1.0, 0, 2)
    with pytest.raises(SimulationError):
        EvolutionSpec(dec, 1.0, 1, 3)
    with pytest.raises(SimulationError):
        EvolutionSpec(dec, math.inf, 1, 1)


# ---------------------------------------------------------------------------
# phase estimation
# ---------------------------------------------------------------------------

def run_qpe(matrix, time, input_amps, m=3, slices=1, order=2):
    k = int(np.log2(len(input_amps)))
    phase_qubits = list(range(k, k + m))
    spec = EvolutionSpec(decompose_hermitian(matrix), time, slices, order)
    circ = qpe_circuit(spec, phase_qubits)
    amps = np.zeros(2 ** (k + m), dtype=complex)
    amps[: 2**k] = input_amps
    state = apply_circuit(StateVector(k + m, amps), circ)
    from qlma.sim import measure_distribution

    return measure_distribution(state, phase_qubits)


def test_qpe_zero_phase_for_flip_eigenvector():
    # A = X - I has eigenvalue 0 on |+>; its evolution is the plain flip
    plus = np.array([1.0, 1.0]) / math.sqrt(2)
    dist = run_qpe(X - np.eye(2), math.pi / 2, plus)
    assert dist[0] == pytest.approx(1.0, abs=1e-10)


def test_qpe_half_phase_single_qubit_register():
    # diag(0, 1) at time -pi gives eigenphase 1/2 on |1>
    dist = run_qpe(np.diag([0.0, 1.0]), -math.pi, np.array([0.0, 1.0]), m=1)
    assert dist[1] == pytest.approx(1.0, abs=1e-10)


def test_qpe_three_eighths_phase():
    dist = run_qpe(np.diag([0.0, 0.375]), -2 * math.pi, np.array([0.0, 1.0]), m=3)
    assert dist[3] == pytest.approx(1.0, abs=1e-10)  # |011> = 3


@pytest.mark.parametrize("k", range(8))
def test_qpe_recovers_every_grid_phase(k):
    dist = run_qpe(np.diag([0.0, k / 8.0]), -2 * math.pi, np.array([0.0, 1.0]), m=3)
    assert dist.get(k, 0.0) >= 1.0 - 1e-10


def test_qpe_linearity_on_superposition():
    # eigenphases 1/4 on |1>; |0> has phase 0
    alpha, beta = 0.6, 0.8
    dist = run_qpe(np.diag([0.0, 0.25]), -2 * math.pi, np.array([alpha, beta]), m=3)
    assert dist.get(0, 0.0) == pytest.approx(alpha**2, abs=1e-10)
    assert dist.get(2, 0.0) == pytest.approx(beta**2, abs=1e-10)


def test_qpe_rejects_phase_qubit_in_data_register():
    spec = EvolutionSpec(decompose_hermitian(np.diag([0.0, 1.0, 2.0, 3.0])), -math.pi, 1, 2)
    with pytest.raises(SimulationError, match="collides with the data register"):
        qpe_circuit(spec, [1, 2])


# ---------------------------------------------------------------------------
# bit identity of the Pauli table with the dense 4**n basis
# ---------------------------------------------------------------------------

def dense_basis(n):
    labels = ["".join("IXYZ"[(code >> 2 * q) & 3] for q in range(n)) for code in range(4**n)]
    return labels, np.stack([pauli_string_matrix(lbl) for lbl in labels])


def dense_decompose_terms(m):
    """Reference decomposition: one einsum over the stacked dense basis."""
    n = m.shape[0].bit_length() - 1
    labels, basis = dense_basis(n)
    coeffs = np.einsum("aij,ji->a", basis, m) / m.shape[0]
    terms = [(float(c.real), lbl) for c, lbl in zip(coeffs, labels) if abs(c.real) > 1e-12]
    terms.sort(key=lambda t: (-abs(t[0]), t[1]))
    return tuple(terms)


def dense_slice_matrix(spec):
    labels, basis = dense_basis(spec.decomposition.n_qubits)
    index = {lbl: i for i, lbl in enumerate(labels)}
    eye = np.eye(basis.shape[1], dtype=complex)
    tau = spec.time / spec.slices
    halves = [(c, lbl, tau / 2) for c, lbl in spec.decomposition.terms]
    steps = [(c, lbl, tau) for c, lbl in spec.decomposition.terms] if spec.order == 1 else halves + halves[::-1]
    out = eye
    for coef, label, s in steps:
        out = (math.cos(coef * s) * eye - 1j * math.sin(coef * s) * basis[index[label]]) @ out
    return out


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 5), seed=st.integers(0, 2**32 - 1), real=st.booleans(), rounded=st.booleans())
def test_decompose_then_reconstruct_returns_the_matrix(n, seed, real, rounded):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(2**n, 2**n)) + (0.0 if real else 1j * rng.normal(size=(2**n, 2**n)))
    if rounded:
        a = np.round(4 * a) / 4  # exactly vanishing coefficients are dropped
    m = a + a.conj().T
    assert np.max(np.abs(reconstruct(decompose_hermitian(m)) - m)) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 5), seed=st.integers(0, 2**32 - 1), size=st.sampled_from([1e-3, 1.0, 1e3]), pauli=st.booleans())
def test_imaginary_coefficients_stay_within_half_the_hermitian_tolerance(n, seed, size, pauli):
    """decompose_hermitian keeps only the real parts of the coefficients.  At
    an asymmetry just inside the tolerance, every imaginary part stays below
    half of it; an anti-Hermitian Pauli string i*P as the asymmetry reaches
    that bound, so it is tight."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    if pauli:
        skew = 1j * pauli_string_matrix("".join(rng.choice(list("IXYZ"), n)))
    else:
        skew = rng.normal(size=a.shape) + 1j * rng.normal(size=a.shape)
        skew -= skew.conj().T
    hermitian = size * (a + a.conj().T)
    bound = HERMITIAN_TOL * max(1.0, float(np.max(np.abs(hermitian))))
    m = hermitian + skew * (0.999 * bound / np.max(np.abs(skew - skew.conj().T)))
    decompose_hermitian(m)  # passes the Hermitian check
    _, basis = dense_basis(n)
    worst = np.max(np.abs((np.einsum("aij,ji->a", basis, m) / 2**n).imag))
    assert worst <= bound / 2
    if pauli:
        assert worst >= 0.499 * bound


@st.composite
def hermitian_matrices(draw):
    n = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    if draw(st.booleans()):
        a = np.round(4 * a) / 4  # exact ties and exactly vanishing coefficients
    return draw(st.sampled_from([1e-13, 1e-3, 1.0, 1e3])) * (a + a.conj().T)


def pauli_sum(*terms):
    return sum(c * pauli_string_matrix(label) for c, label in terms)


@settings(max_examples=150, deadline=None)
@given(hermitian_matrices(), st.sampled_from([1, 2]), st.floats(-3.0, 3.0, allow_nan=False))
# exact |coefficient| ties of both signs, which the label alone orders
@example(m=pauli_sum((0.5, "XI"), (-0.5, "IX"), (0.5, "ZZ"), (0.25, "II")), order=2, time=0.7)
@example(m=pauli_sum((-0.5, "YZI"), (0.5, "ZYI"), (-0.5, "IIX"), (0.5, "XII"), (-0.25, "ZZZ"), (0.25, "IYY")), order=1, time=-1.3)
def test_pauli_table_bit_identical_to_dense_basis(m, order, time):
    dec = decompose_hermitian(m)
    assert dec.terms == dense_decompose_terms(m)
    spec = EvolutionSpec(dec, time, slices=3, order=order)
    assert np.array_equal(slice_matrix(spec), dense_slice_matrix(spec))


@settings(max_examples=150, deadline=None)
@given(hermitian_matrices(), st.sampled_from([1, 2]), st.floats(-50.0, 50.0, allow_nan=False))
def test_slice_matrix_bytes_equal_dense_reference(m, order, time):
    # tobytes also tells signed zeros apart, which np.array_equal does not
    spec = EvolutionSpec(decompose_hermitian(m), time, slices=3, order=order)
    assert slice_matrix(spec).tobytes() == dense_slice_matrix(spec).tobytes()


# each term's cosine at s = 1: negative, positive, negative, then runs of one
# sign; Z-only terms, whose nonzeros lie on the diagonal, sit after terms of
# either kind and of either sign
SIGN_CHANGING_TERMS = (
    (3.0, "XY"), (1.0, "ZI"), (2.5, "IZ"), (0.5, "XX"), (2.0, "YZ"), (1.9, "ZZ"),
    (0.25, "II"), (0.75, "ZZ"), (0.3, "XI"), (0.4, "YY"), (1.2, "IZ"),
)


@pytest.mark.parametrize(
    "terms, time, order",
    [
        (SIGN_CHANGING_TERMS, 1.0, 1),
        (SIGN_CHANGING_TERMS, 2.0, 2),
        # diagonal on one qubit, where the signs of the zeros reach the slice's bytes
        (((-2.0, "Z"), (2.0, "Z"), (-0.5, "I")), 2.0, 1),
        (((0.3, "I"), (2.5, "Z")), -2.0, 2),
    ],
    ids=["order-1", "order-2", "one-qubit-diagonal-order-1", "one-qubit-diagonal-order-2"],
)
def test_slice_rewrite_keeps_bytes_when_cosine_signs_change(terms, time, order):
    """slice_matrix rewrites only the diagonal and the last term's nonzeros
    while the cosine's sign holds, and the whole term when it flips."""
    s = time if order == 1 else time / 2
    signs = [math.cos(c * s) < 0 for c, _ in terms]
    assert any(a != b for a, b in zip(signs, signs[1:]))
    spec = EvolutionSpec(HermitianDecomposition(len(terms[0][1]), terms), time, slices=1, order=order)
    assert slice_matrix(spec).tobytes() == dense_slice_matrix(spec).tobytes()


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("time", [0.4, -2.6])
def test_slice_rewrite_keeps_bytes_of_a_z_only_term(order, time):
    """A Z-only term scatters onto the diagonal, the entries a term's
    cos(cs) I also writes, and a term after it must restore them."""
    terms = ((0.9, "ZZI"), (0.7, "XIY"), (0.5, "IZZ"), (0.5, "ZIZ"), (0.3, "YXI"), (0.2, "III"))
    spec = EvolutionSpec(HermitianDecomposition(3, terms), time, slices=2, order=order)
    assert slice_matrix(spec).tobytes() == dense_slice_matrix(spec).tobytes()


def test_decompose_has_no_qubit_cap():
    m = 0.5 * pauli_string_matrix("XIYZIIX") - 0.25 * pauli_string_matrix("ZZZZZZZ") + 0.125 * np.eye(128)
    dec = decompose_hermitian(m)
    assert dec.terms == ((0.5, "XIYZIIX"), (-0.25, "ZZZZZZZ"), (0.125, "IIIIIII"))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_production_system_bytes_equal_dense_reference(seed):
    """The hhl backend's own shape: the dilated 32x32 Schur system at the
    initial guess, as hhl_system builds it for lma_step (5 qubits, ~136
    terms, 50 slices, the builder's bound at 3 phase qubits)."""
    prob = generate_problem(seed)
    r, jac = residuals_and_jacobian(prob.initial, prob.initial.initial_params())
    problem, config = hhl_system(build_normal_equations(r, jac, 0.01, 0.01, m_c=12), HhlConfig(n_phase_qubits=3))
    matrix = problem.matrix
    dec = decompose_hermitian(matrix)
    assert dec.n_qubits == 5 and dec.terms == dense_decompose_terms(matrix)
    spec = EvolutionSpec(dec, -math.pi / config.lambda_bound, slices=config.slices, order=2)
    assert slice_matrix(spec).tobytes() == dense_slice_matrix(spec).tobytes()
    # the terms go through one reused buffer, never a (K, 32, 32) stack
    tracemalloc.start()
    try:
        slice_matrix(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * matrix.size * np.dtype(complex).itemsize
