"""Pauli decomposition, product-formula evolution, and phase estimation.

Evolution convention: a spec with matrix A and time t implements e^{-iAt}.
Phase estimation therefore reads the eigenphase of that operator, i.e.
theta = (-lambda * t / 2pi) mod 1 for an eigenvalue lambda of A.  Callers
that want theta = +lambda * |t| / 2pi (as the linear solver does) pass a
negative time.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .sim import (
    Circuit,
    GateOp,
    SimulationError,
    cu,
    cx,
    dagger,
    h,
    inverse_circuit,
    u,
)

PAULI_LABELS = "IXYZ"
HERMITIAN_TOL = 1e-10
COEFF_TOL = 1e-12


@functools.lru_cache(maxsize=8)
def _pauli_table(n_qubits: int) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """All 4**n Pauli strings as signed permutations.

    String a carries PAULI_LABELS[(a >> 2q) & 3] on qubit q.  Its matrix has
    one nonzero per row i, at column cols[a, i] = i ^ xmask, with value
    phases[a, i] = (-i)**#Y * (-1)**popcount(i & (ymask | zmask)).
    """
    kinds = (np.arange(4**n_qubits)[:, None] >> 2 * np.arange(n_qubits)) & 3  # (4**n, n): I X Y Z
    labels = tuple(map("".join, np.array(list(PAULI_LABELS))[kinds].tolist()))
    rows = np.arange(2**n_qubits)
    xmask = ((kinds == 1) | (kinds == 2)) @ (1 << np.arange(n_qubits))
    cols = rows ^ xmask[:, None]
    parity = ((kinds >= 2) @ ((rows >> np.arange(n_qubits)[:, None]) & 1)) & 1
    phases = np.array([1, -1j, -1, 1j])[np.sum(kinds == 2, axis=1) % 4, None] * (1 - 2 * parity)
    cols.flags.writeable = phases.flags.writeable = False  # shared by every caller
    return labels, cols, phases


@functools.lru_cache(maxsize=8)
def _pauli_index(n_qubits: int) -> dict[str, int]:
    """Row of each label in _pauli_table(n_qubits); read-only."""
    return {label: a for a, label in enumerate(_pauli_table(n_qubits)[0])}


@dataclass(frozen=True)
class HermitianDecomposition:
    """A Hermitian operator as sum_j coefficient_j * PauliString_j.

    Terms are ordered by descending |coefficient| (ties broken by label);
    this ordering is also the in-slice application order of the product
    formula, which fixes the otherwise arbitrary error constant.
    """

    n_qubits: int
    terms: tuple[tuple[float, str], ...]

    def __post_init__(self):
        for coef, label in self.terms:
            if not isinstance(label, str) or len(label) != self.n_qubits or label.strip(PAULI_LABELS):
                raise SimulationError(f"bad Pauli label {label!r} for {self.n_qubits} qubits")
            if type(coef) is not float and (isinstance(coef, bool) or not isinstance(coef, numbers.Real)):
                raise SimulationError(f"coefficient {coef!r} is not a real number")
            if not math.isfinite(coef):
                raise SimulationError("non-finite coefficient")


def decompose_hermitian(matrix: np.ndarray) -> HermitianDecomposition:
    """Expand a Hermitian matrix in the Pauli-string basis.

    Coefficients are tr(P @ M) / 2**k and come out real for Hermitian input;
    terms below 1e-12 are dropped.
    """
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise SimulationError("matrix must be square")
    dim = m.shape[0]
    n_qubits = dim.bit_length() - 1
    if 2**n_qubits != dim:
        raise SimulationError(f"matrix size {dim} is not a power of two")
    if not np.all(np.isfinite(m)):
        raise SimulationError("matrix has non-finite entries")
    scale = max(1.0, float(np.max(np.abs(m))))
    if np.max(np.abs(m - m.conj().T)) > HERMITIAN_TOL * scale:
        raise SimulationError("matrix is not Hermitian")
    labels, cols, phases = _pauli_table(n_qubits)
    # tr(P @ M) = sum_i P[i, i^x] * M[i^x, i].  Rows are added one at a time
    # in increasing order: the order fixes the coefficients' last bits, which
    # the term order and every trace depend on (tests/test_trotter.py).
    products = phases * m[cols, np.arange(dim)]
    coeffs = functools.reduce(np.add, products.T, np.zeros(4**n_qubits, dtype=complex)) / dim
    if np.max(np.abs(coeffs.imag)) > HERMITIAN_TOL * scale:
        raise SimulationError("non-real Pauli coefficients")
    kept = np.flatnonzero(np.abs(coeffs.real) > COEFF_TOL)
    terms = sorted(zip(coeffs.real[kept].tolist(), [labels[a] for a in kept]), key=lambda t: (-abs(t[0]), t[1]))
    return HermitianDecomposition(n_qubits, tuple(terms))


@dataclass(frozen=True)
class EvolutionSpec:
    """Parameters of one product-formula evolution e^{-iAt}."""

    decomposition: HermitianDecomposition
    time: float
    slices: int
    order: int = 2

    def __post_init__(self):
        if self.slices < 1:
            raise SimulationError("slices must be >= 1")
        if self.order not in (1, 2):
            raise SimulationError("order must be 1 or 2")
        if not math.isfinite(self.time):
            raise SimulationError("time must be finite")


# ---------------------------------------------------------------------------
# Matrix form of the evolution.  One slice is a short product of closed-form
# Pauli exponentials (P**2 = I gives e^{-icPs} = cos(cs) I - i sin(cs) P), and
# the full evolution is a matrix power of that slice, so the slice count is
# essentially free here.  Each slice computes its cos(cs) values, i sin(cs) P
# rows and flat scatter indices of P's nonzeros once, then writes every term
# into one reused buffer before the dense product.  The gate form below
# applies the same term sequence.
# ---------------------------------------------------------------------------

def _slice_sequence(n_terms: int, tau: float, order: int) -> tuple[list[int], float]:
    """Term indices of one slice's exponentials in application order, and
    their shared time: each term once at tau (order 1), or forward then
    reversed at tau / 2 (order 2)."""
    if order == 1:
        return list(range(n_terms)), tau
    return [*range(n_terms), *range(n_terms - 1, -1, -1)], tau / 2


def slice_matrix(spec: EvolutionSpec) -> np.ndarray:
    """Dense unitary of a single time slice (t / slices)."""
    n, terms = spec.decomposition.n_qubits, spec.decomposition.terms
    dim = 2**n
    sequence, s = _slice_sequence(len(terms), spec.time / spec.slices, spec.order)
    _, cols, phases = _pauli_table(n)
    index = _pauli_index(n)
    table_rows = [index[label] for _, label in terms]
    cosines = [math.cos(coef * s) for coef, _ in terms]
    sines = np.array([1j * math.sin(coef * s) for coef, _ in terms]).reshape(-1, 1) * phases[table_rows]
    scatter = np.arange(0, dim * dim, dim) + cols[table_rows]  # flat (row, col) of P's nonzeros
    eye = np.eye(dim, dtype=complex)
    term = np.empty_like(eye)
    flat = term.reshape(-1)
    out = eye
    for k in sequence:
        # cos(cs) I - i sin(cs) P, written only at P's nonzeros: subtracting
        # P's zeros would leave every entry of cos(cs) I bit for bit as it is.
        np.multiply(cosines[k], eye, out=term)
        flat[scatter[k]] -= sines[k]
        out = term @ out
    return out


def evolution_matrix(spec: EvolutionSpec) -> np.ndarray:
    """Dense unitary of the sliced evolution."""
    return np.linalg.matrix_power(slice_matrix(spec), spec.slices)


# ---------------------------------------------------------------------------
# Gate form.
# ---------------------------------------------------------------------------

def _rz(target: int, angle: float) -> GateOp:
    # diag(e^{-ia/2}, e^{+ia/2}), phase-exact via gamma
    return u(target, 0.0, 0.0, angle, -angle / 2.0)


def _crz(control: int, target: int, angle: float) -> GateOp:
    return cu(control, target, 0.0, 0.0, angle, -angle / 2.0)


def _term_gates(coef: float, label: str, tau: float, control: int | None) -> list[GateOp]:
    """Gates for e^{-i coef tau P}: basis changes, parity ladder, Z rotation.

    Only the central rotation is promoted when `control` is given; the
    conjugating gates cancel on the inactive branch by themselves.
    """
    qubits = [q for q, ch in enumerate(label) if ch != "I"]
    pre: list[GateOp] = []
    for q in qubits:
        ch = label[q]
        if ch == "X":
            pre.append(h(q))
        elif ch == "Y":
            pre.extend([u(q, 0.0, 0.0, -math.pi / 2.0), h(q)])
    post = [dagger(op) for op in reversed(pre)]
    ladder = [cx(qubits[i], qubits[i + 1]) for i in range(len(qubits) - 1)]
    angle = 2.0 * coef * tau
    pivot = qubits[-1]
    rot = _crz(control, pivot, angle) if control is not None else _rz(pivot, angle)
    return pre + ladder + [rot] + list(reversed(ladder)) + post


def trotter_circuit(spec: EvolutionSpec, controlled_by: tuple[int, int] | None = None) -> Circuit:
    """Product-formula circuit for e^{-iAt}.

    Each slice applies the term exponentials of _slice_sequence, the order
    slice_matrix multiplies them in.  With controlled_by=(qubit, j)
    the slice sequence is repeated slices * 2**j times with every rotation
    promoted onto the control, so the circuit is exactly the controlled
    2**j-th power of the uncontrolled evolution; identity terms become a
    single phase gate on the control.
    """
    dec = spec.decomposition
    control = None
    repeats = spec.slices
    n_qubits = dec.n_qubits
    if controlled_by is not None:
        control, power = controlled_by
        if control < dec.n_qubits:
            raise SimulationError("control qubit collides with the data register")
        repeats *= 2**power
        n_qubits = control + 1
    tau = spec.time / spec.slices
    identity_coef = sum(c for c, lbl in dec.terms if set(lbl) == {"I"})
    acting = [(c, lbl) for c, lbl in dec.terms if set(lbl) != {"I"}]

    slice_ops: list[GateOp] = []
    sequence, s = _slice_sequence(len(acting), tau, spec.order)
    for k in sequence:
        slice_ops.extend(_term_gates(*acting[k], s, control))

    ops = slice_ops * repeats
    if identity_coef:
        phase = -identity_coef * tau * repeats
        if control is not None:
            ops.append(u(control, 0.0, 0.0, phase))
        else:
            ops.append(u(0, 0.0, 0.0, 0.0, phase))
    return Circuit(n_qubits, tuple(ops))


# ---------------------------------------------------------------------------
# Fourier transform and phase estimation.
# ---------------------------------------------------------------------------

def _qft_circuit(qubits: list[int]) -> Circuit:
    """Forward transform; qubits[0] is the least significant bit."""
    m = len(qubits)
    ops: list[GateOp] = []
    for i in range(m - 1, -1, -1):
        ops.append(h(qubits[i]))
        for off in range(1, i + 1):
            angle = math.pi / 2**off
            ops.append(cu(qubits[i - off], qubits[i], 0.0, 0.0, angle))
    for i in range(m // 2):
        a, b = qubits[i], qubits[m - 1 - i]
        ops.extend([cx(a, b), cx(b, a), cx(a, b)])
    return Circuit(max(qubits) + 1, tuple(ops))


def inverse_qft_circuit(qubits: list[int]) -> Circuit:
    """Circuit whose dense matrix is the inverse DFT on 2**m amplitudes."""
    if not qubits:
        raise SimulationError("empty qubit list")
    return inverse_circuit(_qft_circuit(list(qubits)))

