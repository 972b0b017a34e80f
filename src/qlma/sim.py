"""Dense statevector simulator for a small fixed gate set.

Qubit ordering convention, used everywhere in this package: qubit 0 is the
least-significant bit of the amplitude index, so the basis state
|q_{n-1} ... q_1 q_0> lives at index sum(q_k * 2**k).

Gate kinds:
    "x"    Pauli flip.
    "h"    Hadamard.
    "u"    general single-qubit rotation U(theta, phi, lam) with an extra
           explicit phase parameter gamma, so diagonal rotations such as
           e^{-i a Z/2} are representable exactly (not just up to phase).
    "cx"   singly-controlled flip; the control may trigger on |0> or |1>.
    "cu"   singly-controlled "u"; gamma becomes a relative phase.
    "cry"  Y-rotation with any number of polarity controls (zero controls is
           a plain RY).  Carries the eigenvalue-inversion rotations and
           amplitude encoding, where one rotation per register pattern is
           needed.

A controlled single-qubit gate counts as a two-qubit gate in gate tallies,
regardless of its number of controls.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

GATE_X = "x"
GATE_H = "h"
GATE_U = "u"
GATE_CX = "cx"
GATE_CU = "cu"
GATE_CRY = "cry"

_KINDS = (GATE_X, GATE_H, GATE_U, GATE_CX, GATE_CU, GATE_CRY)
_N_PARAMS = {GATE_X: 0, GATE_H: 0, GATE_U: 4, GATE_CX: 0, GATE_CU: 4, GATE_CRY: 1}

_SQRT2_INV = 1.0 / math.sqrt(2.0)
_H_MATRIX = np.array([[_SQRT2_INV, _SQRT2_INV], [_SQRT2_INV, -_SQRT2_INV]], dtype=complex)
_X_MATRIX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

NORM_TOL = 1e-9


class SimulationError(ValueError):
    """Raised for invalid gates, states, or impossible post-selections."""


@dataclass(frozen=True)
class GateOp:
    """One unitary operation: a 2x2 action on `target`, gated by `controls`.

    `control_states` gives the polarity of each control (1 = filled dot,
    0 = open circle).  Treat instances as immutable values.
    """

    kind: str
    target: int
    controls: tuple[int, ...] = ()
    control_states: tuple[int, ...] = ()
    params: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise SimulationError(f"unknown gate kind {self.kind!r}")
        if len(self.params) != _N_PARAMS[self.kind]:
            raise SimulationError(
                f"{self.kind} expects {_N_PARAMS[self.kind]} params, got {len(self.params)}"
            )
        if not self.control_states:
            object.__setattr__(self, "control_states", (1,) * len(self.controls))
        if len(self.control_states) != len(self.controls):
            raise SimulationError("controls and control_states lengths differ")
        if any(s not in (0, 1) for s in self.control_states):
            raise SimulationError("control states must be 0 or 1")
        n_ctrl = len(self.controls)
        if self.kind in (GATE_X, GATE_H, GATE_U) and n_ctrl:
            raise SimulationError(f"{self.kind} takes no controls")
        if self.kind in (GATE_CX, GATE_CU) and n_ctrl != 1:
            raise SimulationError(f"{self.kind} takes exactly one control")
        if self.target in self.controls:
            raise SimulationError("control and target qubits overlap")
        if len(set(self.controls)) != n_ctrl:
            raise SimulationError("duplicate control qubits")

    @property
    def qubits(self) -> tuple[int, ...]:
        return (self.target, *self.controls)


def u_matrix(theta: float, phi: float, lam: float, gamma: float = 0.0) -> np.ndarray:
    """Dense 2x2 of the general rotation, including the explicit phase."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    m = np.array(
        [[c, -np.exp(1j * lam) * s], [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c]],
        dtype=complex,
    )
    return np.exp(1j * gamma) * m


def ry_matrix(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def gate_matrix(op: GateOp) -> np.ndarray:
    """The 2x2 matrix applied to the target on the active control branch."""
    if op.kind == GATE_X or op.kind == GATE_CX:
        return _X_MATRIX
    if op.kind == GATE_H:
        return _H_MATRIX
    if op.kind in (GATE_U, GATE_CU):
        return u_matrix(*op.params)
    return ry_matrix(op.params[0])


# Constructors; these keep call sites terse.

def x(target: int) -> GateOp:
    return GateOp(GATE_X, target)


def h(target: int) -> GateOp:
    return GateOp(GATE_H, target)


def u(target: int, theta: float, phi: float, lam: float, gamma: float = 0.0) -> GateOp:
    return GateOp(GATE_U, target, params=(theta, phi, lam, gamma))


def cx(control: int, target: int, control_state: int = 1) -> GateOp:
    return GateOp(GATE_CX, target, controls=(control,), control_states=(control_state,))


def cu(
    control: int,
    target: int,
    theta: float,
    phi: float,
    lam: float,
    gamma: float = 0.0,
    control_state: int = 1,
) -> GateOp:
    return GateOp(
        GATE_CU,
        target,
        controls=(control,),
        control_states=(control_state,),
        params=(theta, phi, lam, gamma),
    )


def cry(
    theta: float,
    target: int,
    controls: tuple[int, ...] = (),
    control_states: tuple[int, ...] = (),
) -> GateOp:
    return GateOp(GATE_CRY, target, controls=tuple(controls), control_states=tuple(control_states), params=(theta,))


def dagger(op: GateOp) -> GateOp:
    """Inverse of a single gate op."""
    if op.kind in (GATE_X, GATE_H, GATE_CX):
        return op
    if op.kind in (GATE_U, GATE_CU):
        theta, phi, lam, gamma = op.params
        return GateOp(op.kind, op.target, op.controls, op.control_states, (-theta, -lam, -phi, -gamma))
    return GateOp(op.kind, op.target, op.controls, op.control_states, (-op.params[0],))


@dataclass(frozen=True)
class Circuit:
    """An ordered gate list on a fixed number of qubits."""

    n_qubits: int
    ops: tuple[GateOp, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "ops", tuple(self.ops))
        for op in self.ops:
            for q in op.qubits:
                if not 0 <= q < self.n_qubits:
                    raise SimulationError(f"qubit {q} out of range for {self.n_qubits}-qubit circuit")

    def __len__(self) -> int:
        return len(self.ops)

    @functools.cached_property
    def _passes(self) -> tuple[tuple, ...]:
        """apply_circuit's (i0, i1, read-only coefficients), computed once, per
        maximal run of ops on one target and controls with distinct control
        states.  A single op takes views (_pair_views); a longer run, such as
        the inversion's one rotation per register value, gathers its pairs."""
        passes, ops, start = [], self.ops, 0
        while start < len(ops):
            end, seen = start + 1, {ops[start].control_states}
            while end < len(ops) and ops[end].qubits == ops[start].qubits and ops[end].control_states not in seen:
                seen.add(ops[end].control_states)
                end += 1
            run = ops[start:end]
            coeffs = np.stack([gate_matrix(op) for op in run])[:, None]
            if len(run) == 1:
                (i0, i1), coeffs = _pair_views(self.n_qubits, run[0]), coeffs[0, 0]
            else:
                i0, i1 = _index_plan(self.n_qubits, run[0].target, run[0].controls)
                rows = [sum(s << j for j, s in enumerate(op.control_states)) for op in run]
                i0, i1 = i0[rows], i1[rows]
                i0.flags.writeable = i1.flags.writeable = False
            coeffs.flags.writeable = False
            passes.append((i0, i1, coeffs))
            start = end
        return tuple(passes)


def inverse_circuit(circuit: Circuit) -> Circuit:
    return Circuit(circuit.n_qubits, tuple(dagger(op) for op in reversed(circuit.ops)))


@dataclass(frozen=True)
class StateVector:
    """Complex amplitudes over n qubits; length 2**n, unit norm.

    Treated as immutable: every operation returns a fresh StateVector.
    """

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", amps)
        if amps.shape != (2**self.n_qubits,):
            raise SimulationError(
                f"amplitude vector of length {amps.shape} does not match {self.n_qubits} qubits"
            )
        norm = math.sqrt(np.vdot(amps, amps).real)
        if not abs(norm - 1.0) <= NORM_TOL:  # also rejects NaN
            raise SimulationError(f"state norm {norm} is not 1")

    @classmethod
    def zero(cls, n_qubits: int) -> "StateVector":
        return cls.basis(n_qubits, 0)

    @classmethod
    def basis(cls, n_qubits: int, index: int) -> "StateVector":
        amps = np.zeros(2**n_qubits, dtype=complex)
        amps[index] = 1.0
        return cls(n_qubits, amps)

    @property
    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def _index_plan(n_qubits: int, target: int, controls: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Amplitude index pairs of a gate on `target` under `controls`: row p
    of i0 holds the indices with target bit 0 whose control bits spell p
    (controls[j] gives bit j), and i1 = i0 with the target bit set."""
    idx = np.arange(2**n_qubits)
    i0 = idx[((idx >> target) & 1) == 0]
    pattern = np.zeros_like(i0)
    for j, c in enumerate(controls):
        pattern |= ((i0 >> c) & 1) << j
    i0 = i0[np.argsort(pattern, kind="stable")].reshape(2 ** len(controls), -1)
    return i0, i0 | (1 << target)


def _pair_views(n_qubits: int, op: GateOp) -> tuple[tuple[slice, ...], tuple[slice, ...]]:
    """Index tuples of the target's 0 and 1 halves, each control at its
    state, in the (2,)*n tensor of the amplitudes (qubit q is axis n-1-q).
    Slices, never integers, so that every view stays an array: numpy's
    scalar math rounds differently from its array loops."""
    sel = [slice(None)] * n_qubits
    for q, s in zip(op.qubits, (0, *op.control_states)):
        sel[n_qubits - 1 - q] = slice(s, s + 1)
    i0 = tuple(sel)
    sel[n_qubits - 1 - op.target] = slice(1, 2)
    return i0, tuple(sel)


def _apply_pass(amps: np.ndarray, n_qubits: int, i0, i1, coeffs: np.ndarray) -> np.ndarray:
    """new[i0] = m00*a0 + m01*a1 and new[i1] = m10*a0 + m11*a1 with a0, a1
    the amplitudes at i0, i1: views of the (2,)*n tensor with a (2, 2)
    matrix, or index arrays of R rows with (R, 1, 2, 2) coefficients."""
    out = amps.copy()
    shape = (2,) * n_qubits if isinstance(i0, tuple) else (-1,)
    src, dst = amps.reshape(shape), out.reshape(shape)
    a0, a1 = src[i0], src[i1]
    dst[i0] = coeffs[..., 0, 0] * a0 + coeffs[..., 0, 1] * a1
    dst[i1] = coeffs[..., 1, 0] * a0 + coeffs[..., 1, 1] * a1
    return out


def apply_gate(state: StateVector, op: GateOp) -> StateVector:
    """Apply one gate; returns the new state (norm preserved)."""
    n = state.n_qubits
    for q in op.qubits:
        if not 0 <= q < n:
            raise SimulationError(f"qubit {q} out of range for {n}-qubit state")
    return StateVector(n, _apply_pass(state.amplitudes, n, *_pair_views(n, op), gate_matrix(op)))


def apply_circuit(state: StateVector, circuit: Circuit) -> StateVector:
    """Apply the ops in order, one kernel pass per run (Circuit._passes)."""
    if circuit.n_qubits != state.n_qubits:
        raise SimulationError(
            f"circuit on {circuit.n_qubits} qubits applied to {state.n_qubits}-qubit state"
        )
    for i0, i1, coeffs in circuit._passes:
        state = StateVector(state.n_qubits, _apply_pass(state.amplitudes, state.n_qubits, i0, i1, coeffs))
    return state


def post_select(state: StateVector, qubit: int, outcome: int) -> tuple[StateVector, float]:
    """Condition on measuring `outcome` on `qubit`.

    Returns the renormalized conditional state (the qubit stays in the
    register, collapsed) and the probability of that outcome.
    """
    if not 0 <= qubit < state.n_qubits:
        raise SimulationError(f"qubit {qubit} out of range")
    if outcome not in (0, 1):
        raise SimulationError("outcome must be 0 or 1")
    idx = np.arange(state.amplitudes.size)
    keep = ((idx >> qubit) & 1) == outcome
    prob = float(np.sum(np.abs(state.amplitudes[keep]) ** 2))
    if prob < 1e-12:
        raise SimulationError(f"post-selection on qubit {qubit}={outcome} has probability {prob}")
    amps = np.where(keep, state.amplitudes, 0.0) / math.sqrt(prob)
    return StateVector(state.n_qubits, amps), prob


@functools.lru_cache(maxsize=64)
def _register_key(n_qubits: int, qubits: tuple[int, ...]) -> np.ndarray:
    """Each amplitude's register value over `qubits` (bit j from qubits[j])."""
    for q in qubits:
        if not 0 <= q < n_qubits:
            raise SimulationError(f"qubit {q} out of range")
    if len(set(qubits)) != len(qubits):
        raise SimulationError(f"repeated qubit in {list(qubits)}")
    idx = np.arange(2**n_qubits)
    key = np.zeros(2**n_qubits, dtype=np.int64)
    for j, q in enumerate(qubits):
        key |= ((idx >> q) & 1) << j
    key.flags.writeable = False  # shared by every caller
    return key


def measure_distribution(state: StateVector, qubits: list[int]) -> dict[int, float]:
    """Born-rule marginal over `qubits`; keys are the register values.

    qubits[j] contributes bit j of the outcome key.  Zero-probability
    outcomes are omitted.
    """
    key = _register_key(state.n_qubits, tuple(qubits))
    probs = np.bincount(key, weights=state.probabilities, minlength=2 ** len(qubits))
    return {int(v): float(p) for v, p in enumerate(probs) if p > 0.0}


def gate_counts(circuit: Circuit) -> tuple[int, int, dict[str, int]]:
    """(one-qubit total, two-qubit total, per-kind tally).

    Any gate with at least one control lands in the two-qubit bucket; the
    two totals always sum to len(circuit.ops).
    """
    per_kind: dict[str, int] = {}
    one_qubit = two_qubit = 0
    for op in circuit.ops:
        per_kind[op.kind] = per_kind.get(op.kind, 0) + 1
        if op.controls:
            two_qubit += 1
        else:
            one_qubit += 1
    return one_qubit, two_qubit, per_kind


def op_unitary(op: GateOp, n_qubits: int) -> np.ndarray:
    """Full 2**n x 2**n embedding of one gate."""
    dim = 2**n_qubits
    cols = []
    for b in range(dim):
        cols.append(apply_gate(StateVector.basis(n_qubits, b), op).amplitudes)
    return np.column_stack(cols)


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Dense unitary of the whole circuit (small circuits only)."""
    dim = 2**circuit.n_qubits
    mat = np.eye(dim, dtype=complex)
    for op in circuit.ops:
        mat = op_unitary(op, circuit.n_qubits) @ mat
    return mat
