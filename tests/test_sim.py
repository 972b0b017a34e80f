import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qlma.hhl import _readout_circuits
from qlma.sim import (
    Circuit,
    GateOp,
    SimulationError,
    StateVector,
    apply_circuit,
    apply_gate,
    cx,
    dagger,
    h,
    inverse_circuit,
    inverse_qft_circuit,
    measure_distribution,
    qft_circuit,
)

from reference import circuit_unitary, cry, cu, gate_counts, op_unitary, tensor_passes, u, u_adjoint, u_matrix

RNG = np.random.default_rng(12345)


def random_state(n):
    amps = RNG.normal(size=2**n) + 1j * RNG.normal(size=2**n)
    return StateVector(n, amps / np.linalg.norm(amps))


def test_h_on_zero_gives_plus():
    s = apply_gate(StateVector.zero(1), h(0))
    assert np.allclose(s.amplitudes, [1 / math.sqrt(2), 1 / math.sqrt(2)])


def test_cx_flips_target_when_control_set():
    # |10> = q1 set, q0 clear = index 2; CX(control=q1, target=q0) -> |11>
    s = StateVector.basis(2, 2)
    out = apply_gate(s, cx(1, 0))
    assert np.allclose(out.amplitudes, StateVector.basis(2, 3).amplitudes)


def test_cx_matrix_is_the_permutation():
    mat = op_unitary(cx(1, 0), 2)
    expected = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
    assert np.allclose(mat, expected)


def test_control_on_zero_polarity():
    s = StateVector.basis(2, 0)  # control q1 = 0 -> fires
    out = apply_gate(s, cx(1, 0, control_state=0))
    assert np.allclose(out.amplitudes, StateVector.basis(2, 1).amplitudes)
    s = StateVector.basis(2, 2)  # control q1 = 1 -> inert
    out = apply_gate(s, cx(1, 0, control_state=0))
    assert np.allclose(out.amplitudes, s.amplitudes)


@pytest.mark.parametrize("trial", range(20))
def test_gate_unitarity_random_angles(trial):
    rng = np.random.default_rng(100 + trial)
    th, ph, lam, gm = rng.uniform(-2 * math.pi, 2 * math.pi, size=4)
    ops = [
        cx(2, 0, control_state=0),
        h(0),
        u(0, th, ph, lam, gm),
        cx(1, 0),
        cu(1, 0, th, ph, lam, gm),
        cry(th, 0, (1, 2), (0, 1)),
    ]
    for op in ops:
        mat = op_unitary(op, 3)
        assert np.max(np.abs(mat @ mat.conj().T - np.eye(8))) < 1e-12


@pytest.mark.parametrize("trial", range(10))
def test_norm_preservation(trial):
    rng = np.random.default_rng(200 + trial)
    s = random_state(3)
    for op in (h(1), u(2, *rng.uniform(-3, 3, 4)), cx(0, 2), cry(rng.uniform(-3, 3), 1, (0,))):
        s = apply_gate(s, op)
        assert abs(np.linalg.norm(s.amplitudes) - 1.0) < 1e-12


def test_apply_circuit_empty_is_identity():
    s = random_state(2)
    out = apply_circuit(s, Circuit(2))
    assert np.allclose(out.amplitudes, s.amplitudes)


def test_apply_circuit_hh_is_identity():
    out = apply_circuit(StateVector.zero(1), Circuit(1, (h(0), h(0))))
    assert np.allclose(out.amplitudes, [1.0, 0.0], atol=1e-15)


def test_circuit_composition_associates():
    c1 = Circuit(2, (h(0), cx(0, 1)))
    c2 = Circuit(2, (u(1, 0.3, 0.1, -0.4), cx(1, 0)))
    s = random_state(2)
    joined = apply_circuit(s, Circuit(2, c1.ops + c2.ops))
    split = apply_circuit(apply_circuit(s, c1), c2)
    assert np.allclose(joined.amplitudes, split.amplitudes, atol=1e-12)


def test_measure_distribution_basis_state():
    assert measure_distribution(StateVector.zero(1), [0]) == {0: 1.0}


def test_measure_distribution_plus_state():
    dist = measure_distribution(apply_gate(StateVector.zero(1), h(0)), [0])
    assert dist[0] == pytest.approx(0.5)
    assert dist[1] == pytest.approx(0.5)


def test_measure_distribution_sums_to_one():
    s = random_state(4)
    for qubits in ([0], [2, 3], [0, 1, 2, 3]):
        dist = measure_distribution(s, qubits)
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)


def test_measure_distribution_rejects_repeated_qubit():
    with pytest.raises(SimulationError, match="repeated qubit"):
        measure_distribution(apply_gate(StateVector.zero(1), h(0)), [0, 0])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_state_vector_rejects_non_finite_amplitudes(bad):
    with pytest.raises(SimulationError, match="norm"):
        StateVector(1, [bad, 0.0])


def test_measure_distribution_marginal_order():
    # qubits[j] supplies bit j: measuring [1, 0] on |01> (q0=1) gives key 2
    s = StateVector.basis(2, 1)
    assert measure_distribution(s, [1, 0]) == {2: 1.0}


def test_gate_counts_empty():
    assert gate_counts(Circuit(1)) == (0, 0, {})


def test_gate_counts_partitions():
    c = Circuit(2, (h(0), cx(0, 1), cx(1, 0)))
    one, two, per = gate_counts(c)
    assert (one, two) == (1, 2)
    assert per == {"h": 1, "cx": 2}
    assert one + two == len(c.ops)


def test_gate_counts_multicontrol_is_two_qubit():
    c = Circuit(3, (cry(0.3, 2, (0, 1), (1, 0)),))
    one, two, per = gate_counts(c)
    assert (one, two, per) == (0, 1, {"cry": 1})


def test_dagger_inverts_each_kind():
    rng = np.random.default_rng(7)
    for op in (
        cx(1, 0, control_state=0),
        h(1),
        u(0, *rng.uniform(-3, 3, 4)),
        cx(2, 0),
        cu(1, 2, *rng.uniform(-3, 3, 4)),
        cry(rng.uniform(-3, 3), 0, (1,), (0,)),
    ):
        prod = op_unitary(dagger(op), 3) @ op_unitary(op, 3)
        assert np.max(np.abs(prod - np.eye(8))) < 1e-12


def test_inverse_circuit_round_trip():
    c = Circuit(2, (h(0), cu(0, 1, 0.5, 0.2, -0.3, 0.1), cx(1, 0)))
    prod = circuit_unitary(inverse_circuit(c)) @ circuit_unitary(c)
    assert np.max(np.abs(prod - np.eye(4))) < 1e-12


def test_gate_matrix_u_equals_expected_form():
    th, ph, lam = 0.7, -0.4, 1.1
    m = np.array(u(0, th, ph, lam).matrix)
    c, s = math.cos(th / 2), math.sin(th / 2)
    expected = np.array(
        [[c, -np.exp(1j * lam) * s], [np.exp(1j * ph) * s, np.exp(1j * (ph + lam)) * c]]
    )
    assert np.allclose(m, expected)


X = ((0, 1), (1, 0))


def test_invalid_ops_rejected():
    with pytest.raises(SimulationError):
        GateOp("cx", 0, controls=(0,), matrix=X)  # overlap
    with pytest.raises(SimulationError):
        GateOp("u", 0, matrix=((1.0,),))  # not a 2x2
    with pytest.raises(SimulationError):
        apply_gate(StateVector.zero(1), cx(1, 0))  # out of range


@pytest.mark.parametrize(
    "kind, kwargs, message",
    [
        ("cx", {"controls": (1,), "control_states": (1, 0), "matrix": X}, "^controls and control_states lengths differ$"),
        ("cx", {"controls": (1,), "control_states": (2,), "matrix": X}, "^control states must be 0 or 1$"),
        ("cry", {"controls": (1, 1), "matrix": X}, "^duplicate control qubits$"),
        ("u", {"matrix": ((1, 0, 0), (0, 1, 0))}, "^u matrix is not a finite 2x2$"),
        ("rz", {"matrix": ((1, 0), (0, complex(math.inf, 0)))}, "^rz matrix is not a finite 2x2$"),
        ("cu", {"controls": (1,), "matrix": ((1, math.nan), (0, 1))}, "^cu matrix is not a finite 2x2$"),
        ("phase", {"matrix": (("one", 0), (0, 1))}, "^phase matrix is not a finite 2x2$"),
        ("cx", {"controls": (1,), "matrix": ((1, 0), (0,))}, "^cx matrix is not a finite 2x2$"),
    ],
    ids=[
        "polarity-count",
        "polarity-value",
        "duplicate-control",
        "matrix-not-2x2",
        "matrix-infinite",
        "matrix-nan",
        "matrix-not-numbers",
        "matrix-ragged",
    ],
)
def test_gate_op_names_its_fault(kind, kwargs, message):
    with pytest.raises(SimulationError, match=message):
        GateOp(kind, 0, **kwargs)


def test_sizes_that_disagree_are_rejected():
    with pytest.raises(SimulationError, match="amplitude vector of length .* does not match 2 qubits"):
        StateVector(2, [1.0, 0.0])
    with pytest.raises(SimulationError, match="^circuit on 1 qubits applied to 2-qubit state$"):
        apply_circuit(StateVector.zero(2), Circuit(1, (h(0),)))
    with pytest.raises(SimulationError, match="^qubit 1 out of range$"):
        measure_distribution(StateVector.zero(1), [1])


# ---------------------------------------------------------------------------
# bit identity of the index-plan kernel with the mask-based kernel
# ---------------------------------------------------------------------------

def mask_kernel(amps, op):
    """Reference kernel without index plans: one mask pass per control over
    all amplitudes, then the same gather, arithmetic and scatter."""
    m = np.array(op.matrix)
    idx = np.arange(amps.size)
    mask = ((idx >> op.target) & 1) == 0
    for c, s in zip(op.controls, op.control_states):
        mask &= ((idx >> c) & 1) == s
    i0 = idx[mask]
    i1 = i0 | (1 << op.target)
    out = amps.copy()
    a0, a1 = amps[i0], amps[i1]
    out[i0] = m[0, 0] * a0 + m[0, 1] * a1
    out[i1] = m[1, 0] * a0 + m[1, 1] * a1
    return out


def seeded_state(n, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return StateVector(n, amps / np.linalg.norm(amps))


angles = st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False)


@st.composite
def gate_ops(draw):
    """Any label, a unitary U(theta, phi, lam) e^{i gamma} and 0..n-1 polarity
    controls: the simulator reads only the matrix and the controls."""
    n = draw(st.integers(1, 6))
    target = draw(st.integers(0, n - 1))
    others = draw(st.permutations([q for q in range(n) if q != target]))
    n_ctrl = draw(st.integers(0, len(others)))
    states = draw(st.lists(st.integers(0, 1), min_size=n_ctrl, max_size=n_ctrl))
    matrix = u_matrix(*draw(st.tuples(angles, angles, angles, angles)))
    return n, GateOp(draw(st.text(max_size=4)), target, tuple(others[:n_ctrl]), tuple(states), matrix=matrix)


@settings(max_examples=200, deadline=None)
@given(gate_ops())
def test_dagger_is_the_exact_adjoint(drawn):
    n, op = drawn
    assert dagger(dagger(op)) == op
    prod = op_unitary(dagger(op), n) @ op_unitary(op, n)
    assert np.max(np.abs(prod - np.eye(2**n))) < 1e-12


@pytest.mark.parametrize("op", [h(1), cx(0, 1), cx(1, 0, control_state=0)], ids=["h", "cx", "cx-open"])
def test_dagger_returns_a_self_adjoint_op_itself(op):
    # conjugating would flip the sign of h's zero imaginary parts
    assert dagger(op) is op


@settings(max_examples=300, deadline=None)
@given(gate_ops(), st.integers(0, 2**32 - 1))
# a single amplitude pair, where numpy scalars in place of arrays change bits
@example(drawn=(1, u(0, 1.0, 0.5, -0.5, 0.25)), seed=1)
@example(drawn=(2, cu(1, 0, 1.0, 0.5, -0.5, 0.25)), seed=0)
def test_apply_gate_bit_identical_to_mask_kernel(drawn, seed):
    n, op = drawn
    state = seeded_state(n, seed)
    assert apply_gate(state, op).amplitudes.tobytes() == mask_kernel(state.amplitudes, op).tobytes()


@settings(max_examples=150, deadline=None)
@given(
    st.integers(2, 6),
    st.data(),
    st.integers(0, 2**32 - 1),
)
def test_apply_circuit_bit_identical_on_rotation_runs(n, data, seed):
    """apply_circuit on runs of same-target multi-controlled rotations (the
    eigenvalue inversion's shape), with repeated control patterns, a shorter
    control tuple or a Hadamard in between, gives the bytes of the per-gate
    mask kernel."""
    target = data.draw(st.integers(0, n - 1))
    others = [q for q in range(n) if q != target]
    controls = tuple(data.draw(st.permutations(others))[: data.draw(st.integers(1, len(others)))])
    patterns = st.tuples(*[st.integers(0, 1)] * len(controls))
    ops = []
    for _ in range(data.draw(st.integers(1, 12))):
        choice = data.draw(st.sampled_from(["rotation", "rotation", "rotation", "other-controls", "hadamard"]))
        if choice == "rotation":
            ops.append(cry(data.draw(angles), target, controls, data.draw(patterns)))
        elif choice == "other-controls":
            ops.append(cry(data.draw(angles), target, controls[:-1], data.draw(patterns)[:-1]))
        else:
            ops.append(h(data.draw(st.sampled_from(range(n)))))
    state = seeded_state(n, seed)
    expected = state.amplitudes
    for op in ops:
        expected = mask_kernel(expected, op)
    assert apply_circuit(state, Circuit(n, tuple(ops))).amplitudes.tobytes() == expected.tobytes()


def test_circuit_passes_are_computed_once_and_read_only():
    ops = (h(0), cu(0, 2, 0.3, 0.1, -0.2, 0.4), cry(0.5, 1, (0, 2), (0, 1)), cry(0.7, 1, (0, 2), (1, 1)), cx(0, 2))
    circuit, state = Circuit(3, ops), seeded_state(3, 5)
    expected = state.amplitudes
    for op in ops:
        expected = mask_kernel(expected, op)
    first = apply_circuit(state, circuit).amplitudes
    passes = circuit._passes
    assert apply_circuit(state, circuit).amplitudes.tobytes() == first.tobytes() == expected.tobytes()
    assert circuit._passes is passes and len(passes) == 5  # one pass per op
    for op, (shape, i0, i1, rows) in zip(ops, passes):
        hash(rows)  # nested tuples of numbers and None only: nothing in a pass can be written
        # each row lists the matrix row's nonzero entries, None standing for exactly one
        dense = np.zeros((2, 2), dtype=complex)
        for r, terms in enumerate(rows):
            assert terms and all(c is None or (type(c) is complex and c not in (0, 1)) for _, c in terms)
            for j, c in terms:
                dense[r, j] = 1 if c is None else c
        assert np.array_equal(dense, op.matrix)
    assert passes[4][3] == (((1, None),), ((0, None),))  # a flip: each half is the other


def test_norm_change_in_any_pass_fails_the_final_check():
    # the norm is checked once per circuit; a later unitary pass keeps a lost norm lost
    circuit = Circuit(2, (h(0), h(1)))
    shape, i0, i1, rows = circuit._passes[0]
    scaled = tuple(tuple((j, 1.5 * (1 if c is None else c)) for j, c in terms) for terms in rows)
    circuit.__dict__["_passes"] = ((shape, i0, i1, scaled), circuit._passes[1])
    with pytest.raises(SimulationError, match="norm"):
        apply_circuit(StateVector.zero(2), circuit)


def test_repeated_control_pattern_is_applied_twice():
    rotations = [cry(0.3, 3, (0, 1, 2), (1, 0, 1)), cry(0.5, 3, (0, 1, 2), (0, 0, 1)), cry(0.7, 3, (0, 1, 2), (1, 0, 1))]
    state = seeded_state(4, 3)
    expected = state.amplitudes
    for op in rotations:
        expected = mask_kernel(expected, op)
    result = apply_circuit(state, Circuit(4, tuple(rotations))).amplitudes
    assert result.tobytes() == expected.tobytes()
    # the pattern (1, 0, 1) turned by 0.3 then 0.7: one rotation by 1.0
    assert np.allclose(result, apply_gate(apply_gate(state, rotations[1]), cry(1.0, 3, (0, 1, 2), (1, 0, 1))).amplitudes)


# ---------------------------------------------------------------------------
# the in-place pass kernel against the per-gate mask kernel
# ---------------------------------------------------------------------------

@st.composite
def circuit_ops(draw, n):
    """One op of any kind on n qubits, with the diagonal (theta = 0) rotations
    and the flips whose zero and unit coefficients the kernel skips."""
    kinds = ["h", "u", "diagonal-u", "cry"] + (["cx", "cu", "diagonal-cu"] if n > 1 else [])
    kind = draw(st.sampled_from(kinds))
    target = draw(st.integers(0, n - 1))
    others = draw(st.permutations([q for q in range(n) if q != target]))
    polarity = draw(st.integers(0, 1))
    phases = draw(st.tuples(angles, angles, st.sampled_from([0.0]) | angles))
    if kind == "h":
        return h(target)
    if kind == "u":
        return u(target, *draw(st.tuples(angles, angles, angles, angles)))
    if kind == "diagonal-u":
        return u(target, 0.0, *phases)
    if kind == "cx":
        return cx(others[0], target, polarity)
    if kind == "cu":
        return cu(others[0], target, *draw(st.tuples(angles, angles, angles, angles)), control_state=polarity)
    if kind == "diagonal-cu":
        return cu(others[0], target, 0.0, *phases, control_state=polarity)
    n_ctrl = draw(st.integers(0, len(others)))
    states = tuple(draw(st.lists(st.integers(0, 1), min_size=n_ctrl, max_size=n_ctrl)))
    return cry(draw(angles), target, tuple(others[:n_ctrl]), states)


@st.composite
def circuits(draw):
    n = draw(st.integers(1, 6))
    return Circuit(n, tuple(draw(st.lists(circuit_ops(n), min_size=1, max_size=15))))


def per_gate(amps, circuit):
    for op in circuit.ops:
        amps = mask_kernel(amps, op)
    return amps


@settings(max_examples=300, deadline=None)
@given(circuits(), st.integers(0, 2**32 - 1))
@example(circuit=Circuit(2, (cx(1, 0), cx(0, 1), cu(0, 1, 0.0, 0.0, 0.0, 0.7), u(1, 0.0, 0.0, 0.0, 0.0))), seed=0)
def test_apply_circuit_bit_identical_to_mask_kernel(circuit, seed):
    """On a state with no zero component, skipping a term whose coefficient is
    exactly zero, or a multiply by exactly one, changes no bit."""
    state = seeded_state(circuit.n_qubits, seed)
    expected = per_gate(state.amplitudes, circuit)
    assert apply_circuit(state, circuit).amplitudes.tobytes() == expected.tobytes()


@settings(max_examples=200, deadline=None)
@given(circuits(), st.integers(0, 2**32 - 1), st.data())
def test_apply_circuit_equals_mask_kernel_on_states_with_exact_zeros(circuit, seed, data):
    """On basis states and zero-extended states, where some components are
    exactly zero, the values agree but the sign of a zero may not: the dense
    arithmetic adds a signed zero product (0 * a, or the -0 of (1+0j) * a)
    that a skipped term never makes, so np.array_equal (where -0 == +0)
    stands in for the byte comparison."""
    n = circuit.n_qubits
    if data.draw(st.booleans()):
        state = StateVector.basis(n, data.draw(st.integers(0, 2**n - 1)))
    else:
        low = seeded_state(data.draw(st.integers(0, n)), seed)
        amps = np.zeros(2**n, dtype=complex)
        amps[: low.amplitudes.size] = low.amplitudes
        state = StateVector(n, amps)
    assert np.array_equal(apply_circuit(state, circuit).amplitudes, per_gate(state.amplitudes, circuit))


@st.composite
def wide_circuits(draw):
    """Circuits on 1 to 13 qubits: ops of circuit_ops, swaps as three flips,
    and dense gates under any number of controls of either polarity."""
    n = draw(st.integers(1, 13))
    ops = []
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(["op", "swap", "dense"] if n > 1 else ["op", "dense"]))
        if kind == "op":
            ops.append(draw(circuit_ops(n)))
        elif kind == "swap":
            a, b = draw(st.permutations(range(n)))[:2]
            ops.extend([cx(a, b), cx(b, a), cx(a, b)])
        else:
            target = draw(st.integers(0, n - 1))
            others = draw(st.permutations([q for q in range(n) if q != target]))
            n_ctrl = draw(st.integers(0, len(others)))
            states = tuple(draw(st.lists(st.integers(0, 1), min_size=n_ctrl, max_size=n_ctrl)))
            matrix = u_matrix(*draw(st.tuples(angles, angles, angles, angles)))
            ops.append(GateOp("u", target, tuple(others[:n_ctrl]), states, matrix=matrix))
    return Circuit(n, tuple(ops))


@settings(max_examples=200, deadline=None)
@given(wide_circuits(), st.integers(0, 2**32 - 1))
@example(
    circuit=Circuit(13, (cx(12, 0), cx(0, 12), cx(12, 0), GateOp("u", 6, (0, 12, 5), (1, 0, 1), matrix=u_matrix(1, 2, 3, 4)))),
    seed=0,
)
def test_coarse_view_passes_give_the_bytes_of_the_qubit_tensor(circuit, seed):
    """apply_circuit, which merges each run of qubits a pass leaves alone into
    one axis, gives the bytes of the same passes on the (2,)*n tensor, on
    states where a quarter of the real and imaginary parts are +0 or -0."""
    n = circuit.n_qubits
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    parts = amps.view(float)
    zeroed = rng.random(parts.size) < 0.25
    parts[zeroed] = np.where(rng.random(np.count_nonzero(zeroed)) < 0.5, 0.0, -0.0)
    parts *= 1.0 / np.linalg.norm(amps)  # a real scale keeps the signs of the zeros
    expected = amps.copy()
    tensor_passes(expected, circuit)
    assert apply_circuit(StateVector(n, amps), circuit).amplitudes.tobytes() == expected.tobytes()


def test_apply_gate_and_apply_circuit_leave_the_input_state_unwritten():
    ops = (h(0), cx(0, 1, 0), cx(0, 2), cu(1, 0, 0.0, 0.0, 0.4), u(2, 0.3, 0.1, -0.2, 0.4), cry(0.5, 1, (0, 2), (0, 1)))
    state = seeded_state(3, 9)
    before = state.amplitudes.tobytes()
    for op in ops:
        apply_gate(state, op)
    apply_circuit(state, Circuit(3, ops))
    assert state.amplitudes.tobytes() == before
    frozen = state.amplitudes.copy()
    frozen.flags.writeable = False
    read_only = StateVector(3, frozen)
    expected = per_gate(frozen, Circuit(3, ops))
    assert apply_circuit(read_only, Circuit(3, ops)).amplitudes.tobytes() == expected.tobytes()
    assert apply_gate(read_only, ops[2]).amplitudes.tobytes() == mask_kernel(frozen, ops[2]).tobytes()
    assert frozen.tobytes() == before


# ---------------------------------------------------------------------------
# the forward and inverse Fourier transforms
# ---------------------------------------------------------------------------

def dft_matrix(m):
    n = 2**m
    j, k = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return np.exp(2j * np.pi * j * k / n) / math.sqrt(n)


def test_iqft_single_qubit_is_hadamard():
    c = inverse_qft_circuit([0])
    assert len(c.ops) == 1 and c.ops[0].kind == "h"


def test_iqft_after_qft_is_identity():
    iqft = inverse_qft_circuit([0, 1])
    qft = inverse_circuit(iqft)
    prod = circuit_unitary(iqft) @ circuit_unitary(qft)
    assert np.max(np.abs(prod - np.eye(4))) < 1e-12


@pytest.mark.parametrize("m", [1, 2, 3])
def test_iqft_matrix_equals_conjugate_dft(m):
    got = circuit_unitary(inverse_qft_circuit(list(range(m))))
    assert np.max(np.abs(got - dft_matrix(m).conj().T)) < 1e-12


def test_iqft_unitary():
    got = circuit_unitary(inverse_qft_circuit([0, 1, 2]))
    assert np.max(np.abs(got @ got.conj().T - np.eye(8))) < 1e-12


def test_iqft_rejects_empty():
    # the inverse gets the forward builder's check through its call
    for build in (qft_circuit, inverse_qft_circuit):
        with pytest.raises(SimulationError, match="^empty qubit list$"):
            build([])


def reference_qft(qubits: list[int], inverse: bool = False) -> Circuit:
    """The Fourier transform with each controlled phase built as
    cu(control, target, 0, 0, pi/2**j); inverse=True reverses the ops and
    gives each cu the parameters of u_adjoint."""
    m = len(qubits)
    ops: list[GateOp] = []
    for i in range(m - 1, -1, -1):
        ops.append(h(qubits[i]))
        for off in range(1, i + 1):
            params = (0.0, 0.0, math.pi / 2**off, 0.0)
            ops.append(cu(qubits[i - off], qubits[i], *(u_adjoint(*params) if inverse else params)))
    for i in range(m // 2):
        a, b = qubits[i], qubits[m - 1 - i]
        ops.extend([cx(a, b), cx(b, a), cx(a, b)])
    return Circuit(max(qubits) + 1, tuple(reversed(ops)) if inverse else tuple(ops))


def test_fourier_transforms_keep_the_bytes_of_their_parameter_form():
    """Every pass of the forward and inverse transforms, and of the solver's
    readout circuits, equals that of the same circuit built from
    cu(..., 0, 0, angle) and, for the inverse, its negated parameters; repr
    shows the sign of a zero."""
    for m in range(1, 12):
        for k in range(1, 5):
            qubits, n = list(range(k, k + m)), k + m
            forward, inverse = reference_qft(qubits), reference_qft(qubits, inverse=True)
            assert repr(qft_circuit(qubits)._passes) == repr(forward._passes)
            assert repr(inverse_qft_circuit(qubits)._passes) == repr(inverse._passes)
            expected = (inverse, Circuit(n + 1, forward.ops), Circuit(n, tuple(h(q) for q in qubits)))
            for got, want in zip(_readout_circuits(k, m), expected):
                assert repr(got._passes) == repr(want._passes)
