"""Dense statevector simulator, and the gates the package builds: h, cx and
the forward and inverse Fourier transforms.

Qubit ordering convention, used everywhere in this package: qubit 0 is the
least-significant bit of the amplitude index, so the basis state
|q_{n-1} ... q_1 q_0> lives at index sum(q_k * 2**k).

An op carries its own 2x2 matrix, so the simulator tells no gate kinds
apart: an op's `kind` is a label that only the tests' gate tallies read.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

_SQRT2_INV = 1.0 / math.sqrt(2.0)
_H_MATRIX = ((_SQRT2_INV, _SQRT2_INV), (_SQRT2_INV, -_SQRT2_INV))
_X_MATRIX = ((0, 1), (1, 0))

NORM_TOL = 1e-9


class SimulationError(ValueError):
    """Raised for invalid gates, states, or impossible post-selections."""


@dataclass(frozen=True)
class GateOp:
    """One unitary operation: the 2x2 `matrix` on `target`, gated by `controls`.

    `kind` labels the op for gate tallies only.  `control_states` gives the
    polarity of each control (1 = filled dot, 0 = open circle).  The matrix
    is stored as nested tuples of complex, so ops compare and hash as values.
    """

    kind: str
    target: int
    controls: tuple[int, ...] = ()
    control_states: tuple[int, ...] = ()
    matrix: tuple[tuple[complex, complex], tuple[complex, complex]] = field(kw_only=True)

    def __post_init__(self):
        try:
            m = np.asarray(self.matrix, dtype=complex)
        except (TypeError, ValueError):
            m = None
        if m is None or m.shape != (2, 2) or not np.isfinite(m).all():
            raise SimulationError(f"{self.kind} matrix is not a finite 2x2")
        object.__setattr__(self, "matrix", tuple(map(tuple, m.tolist())))
        if not self.control_states:
            object.__setattr__(self, "control_states", (1,) * len(self.controls))
        if len(self.control_states) != len(self.controls):
            raise SimulationError("controls and control_states lengths differ")
        if any(s not in (0, 1) for s in self.control_states):
            raise SimulationError("control states must be 0 or 1")
        if self.target in self.controls:
            raise SimulationError("control and target qubits overlap")
        if len(set(self.controls)) != len(self.controls):
            raise SimulationError("duplicate control qubits")

    @property
    def qubits(self) -> tuple[int, ...]:
        return (self.target, *self.controls)


def h(target: int) -> GateOp:
    return GateOp("h", target, matrix=_H_MATRIX)


def cx(control: int, target: int, control_state: int = 1) -> GateOp:
    """The only flip: singly controlled, on |0> or |1> of the control."""
    return GateOp("cx", target, controls=(control,), control_states=(control_state,), matrix=_X_MATRIX)


def dagger(op: GateOp) -> GateOp:
    """Inverse of a single gate op: its matrix's conjugate transpose.  An op
    whose matrix equals its own adjoint comes back unchanged, so the signs
    of its zero imaginary parts are kept."""
    (a, b), (c, d) = op.matrix
    adjoint = ((a.conjugate(), c.conjugate()), (b.conjugate(), d.conjugate()))
    if adjoint == op.matrix:
        return op
    return GateOp(op.kind, op.target, op.controls, op.control_states, matrix=adjoint)


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

    @functools.cached_property
    def _passes(self) -> tuple[tuple, ...]:
        """apply_passes' (shape, i0, i1, rows) per op, computed once: an axis of 2
        per qubit of the op and one per run of other qubits, most significant first;
        slices (never integers, whose scalar math rounds differently) of the target's
        0 and 1 halves, each control at its state; and each output row's nonzero
        terms as (half, coefficient), with None for a coefficient of exactly one."""
        passes = []
        for op in self.ops:
            shape, i0, i1, above = [], [], [], self.n_qubits
            for q, state in sorted(zip(op.qubits, (0, *op.control_states)), reverse=True):
                shape += [2 ** (above - q - 1), 2]
                i0 += [slice(None), slice(state, state + 1)]
                i1 += [slice(None), slice(1, 2) if q == op.target else i0[-1]]
                above = q
            rows = tuple(tuple((j, None if c == 1 else c) for j, c in enumerate(r) if c != 0) for r in op.matrix)
            passes.append(((*shape, 2**above), (*i0, slice(None)), (*i1, slice(None)), rows))
        return tuple(passes)


def inverse_circuit(circuit: Circuit) -> Circuit:
    return Circuit(circuit.n_qubits, tuple(dagger(op) for op in reversed(circuit.ops)))


def qft_circuit(qubits: list[int]) -> Circuit:
    """Forward transform; qubits[0] is the least significant bit."""
    if not qubits:
        raise SimulationError("empty qubit list")
    m = len(qubits)
    ops: list[GateOp] = []
    for i in range(m - 1, -1, -1):
        ops.append(h(qubits[i]))
        for off in range(1, i + 1):
            phase = np.exp(1j * math.pi / 2**off)
            ops.append(GateOp("cu", qubits[i], (qubits[i - off],), matrix=((1, 0), (0, phase))))
    for i in range(m // 2):
        a, b = qubits[i], qubits[m - 1 - i]
        ops.extend([cx(a, b), cx(b, a), cx(a, b)])
    return Circuit(max(qubits) + 1, tuple(ops))


def inverse_qft_circuit(qubits: list[int]) -> Circuit:
    """Circuit whose dense matrix is the inverse DFT on 2**m amplitudes."""
    return inverse_circuit(qft_circuit(list(qubits)))


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


def apply_gate(state: StateVector, op: GateOp) -> StateVector:
    """Apply one gate: a one-op apply_circuit."""
    return apply_circuit(state, Circuit(state.n_qubits, (op,)))


def apply_passes(amps: np.ndarray, circuit: Circuit) -> None:
    """In place: the circuit's passes in order on a C-contiguous array of its
    2**n amplitudes, which may be a view into a larger buffer; checks no norm.
    A pass sets its op's halves i0 and i1 of the amplitudes in its shape to
    their rows' sums of coefficient * half, reading both halves before
    writing either.  Exactly zero terms are left out and exactly unit
    coefficients multiply nothing, so a controlled phase writes only m11*a1
    and a flip only swaps the halves; only the sign of an exactly zero
    component can differ from the dense arithmetic."""
    for shape, i0, i1, rows in circuit._passes:
        t = amps.reshape(shape)
        halves = t[i0], t[i1]
        new = []
        for terms in rows:
            parts = [halves[j] if c is None else c * halves[j] for j, c in terms]
            new.append(parts[0] + parts[1] if len(parts) == 2 else parts[0])
        if new[1] is halves[0]:  # a flip's second row views the half its first row overwrites
            new[1] = new[1].copy()
        for half, row in zip(halves, new):
            if row is not half:
                half[...] = row


def apply_circuit(state: StateVector, circuit: Circuit) -> StateVector:
    """Apply the ops in order with apply_passes on one copy of the
    amplitudes; the norm is checked once, on the final state."""
    n = state.n_qubits
    if circuit.n_qubits != n:
        raise SimulationError(f"circuit on {circuit.n_qubits} qubits applied to {n}-qubit state")
    amps = state.amplitudes.copy()
    apply_passes(amps, circuit)
    return StateVector(n, amps)


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
