import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qlma.sim import (
    Circuit,
    GateOp,
    SimulationError,
    StateVector,
    apply_circuit,
    apply_gate,
    circuit_unitary,
    cry,
    cu,
    cx,
    dagger,
    gate_counts,
    gate_matrix,
    h,
    inverse_circuit,
    measure_distribution,
    op_unitary,
    post_select,
    u,
    x,
)

RNG = np.random.default_rng(12345)


def random_state(n):
    amps = RNG.normal(size=2**n) + 1j * RNG.normal(size=2**n)
    return StateVector(n, amps / np.linalg.norm(amps))


def test_h_on_zero_gives_plus():
    s = apply_gate(StateVector.zero(1), h(0))
    assert np.allclose(s.amplitudes, [1 / math.sqrt(2), 1 / math.sqrt(2)])


def test_x_twice_is_identity():
    for n in (1, 3):
        s = random_state(n)
        out = apply_gate(apply_gate(s, x(n - 1)), x(n - 1))
        assert np.allclose(out.amplitudes, s.amplitudes, atol=1e-12)


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
        x(0),
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


def test_post_select_collapsed_qubit_probability_one():
    psi = np.array([0.6, 0.8])
    amps = np.kron(psi, np.array([0.0, 1.0]))  # qubit 0 = |1>, qubit 1 carries psi
    state = StateVector(2, amps)
    out, prob = post_select(state, 0, 1)
    assert prob == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(out.amplitudes, amps)


def test_post_select_plus_state():
    s = apply_gate(StateVector.zero(1), h(0))
    out, prob = post_select(s, 0, 0)
    assert prob == pytest.approx(0.5, abs=1e-12)
    assert np.allclose(out.amplitudes, [1.0, 0.0])


def test_post_select_zero_probability_raises():
    with pytest.raises(SimulationError):
        post_select(StateVector.zero(2), 1, 1)


def test_post_select_outcomes_reconstruct_probability():
    s = random_state(3)
    total = 0.0
    for outcome in (0, 1):
        _, prob = post_select(s, 1, outcome)
        total += prob
    assert total == pytest.approx(1.0, abs=1e-12)


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
        x(0),
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
    m = gate_matrix(u(0, th, ph, lam))
    c, s = math.cos(th / 2), math.sin(th / 2)
    expected = np.array(
        [[c, -np.exp(1j * lam) * s], [np.exp(1j * ph) * s, np.exp(1j * (ph + lam)) * c]]
    )
    assert np.allclose(m, expected)


def test_invalid_ops_rejected():
    with pytest.raises(SimulationError):
        GateOp("cx", 0, controls=(0,))  # overlap
    with pytest.raises(SimulationError):
        GateOp("h", 0, controls=(1,))  # h takes no controls
    with pytest.raises(SimulationError):
        GateOp("u", 0, params=(1.0,))  # wrong arity
    with pytest.raises(SimulationError):
        apply_gate(StateVector.zero(1), cx(1, 0))  # out of range


# ---------------------------------------------------------------------------
# bit identity of the index-plan kernel with the mask-based kernel
# ---------------------------------------------------------------------------

def mask_kernel(amps, op):
    """Reference kernel without index plans: one mask pass per control over
    all amplitudes, then the same gather, arithmetic and scatter."""
    m = gate_matrix(op)
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
N_PARAMS = {"x": 0, "h": 0, "u": 4, "cx": 0, "cu": 4, "cry": 1}


@st.composite
def gate_ops(draw):
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(sorted(N_PARAMS)))
    target = draw(st.integers(0, n - 1))
    others = draw(st.permutations([q for q in range(n) if q != target]))
    if kind in ("x", "h", "u"):
        n_ctrl = 0
    elif kind in ("cx", "cu"):
        assume(others)
        n_ctrl = 1
    else:
        n_ctrl = draw(st.integers(0, len(others)))
    states = draw(st.lists(st.integers(0, 1), min_size=n_ctrl, max_size=n_ctrl))
    params = draw(st.lists(angles, min_size=N_PARAMS[kind], max_size=N_PARAMS[kind]))
    return n, GateOp(kind, target, tuple(others[:n_ctrl]), tuple(states), tuple(params))


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
    """Runs of same-target rotations (the eigenvalue inversion) are applied in
    one pass; a repeated control pattern, another gate in between, or
    another control tuple must split the run without changing a bit."""
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
    ops = (h(0), cu(0, 2, 0.3, 0.1, -0.2, 0.4), cry(0.5, 1, (0, 2), (0, 1)), cry(0.7, 1, (0, 2), (1, 1)), x(2))
    circuit, state = Circuit(3, ops), seeded_state(3, 5)
    expected = state.amplitudes
    for op in ops:
        expected = mask_kernel(expected, op)
    first = apply_circuit(state, circuit).amplitudes
    passes = circuit._passes
    assert apply_circuit(state, circuit).amplitudes.tobytes() == first.tobytes() == expected.tobytes()
    assert circuit._passes is passes and len(passes) == 4  # the two rotations share a pass
    for i0, i1, coeffs in passes:
        assert not coeffs.flags.writeable
        with pytest.raises(ValueError):
            coeffs[..., 0, 0] = 0.0


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
