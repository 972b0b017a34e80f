"""Pauli decomposition and the product-formula evolution as a dense matrix.

Evolution convention: a spec with matrix A and time t implements e^{-iAt}.
Phase estimation over it (the linear solver in qlma.hhl) therefore reads
the eigenphase of that operator, i.e. theta = (-lambda * t / 2pi) mod 1 for
an eigenvalue lambda of A.  Callers that want theta = +lambda * |t| / 2pi
(as the linear solver does) pass a negative time.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .sim import SimulationError

PAULI_LABELS = "IXYZ"
HERMITIAN_TOL = 1e-10
COEFF_TOL = 1e-12


@functools.lru_cache(maxsize=8)
def _pauli_table(n_qubits: int) -> tuple[tuple[str, ...], dict[str, int], np.ndarray, np.ndarray]:
    """All 4**n Pauli strings in label order, their columns by label, and
    the strings as signed permutations, one column per string.

    String a carries PAULI_LABELS[(a >> 2(n-1-q)) & 3] on qubit q.  Its matrix
    has one nonzero per row i, at column i ^ xmask, with value
    phases[i, a] = (-i)**#Y * (-1)**popcount(i & (ymask | zmask)), which
    tr(P @ M) multiplies by M.flat[gather[i, a]] = M[i ^ xmask, i].
    """
    kinds = (np.arange(4**n_qubits)[:, None] >> 2 * np.arange(n_qubits - 1, -1, -1)) & 3  # (4**n, n): I X Y Z
    labels = tuple(map("".join, np.array(list(PAULI_LABELS))[kinds].tolist()))
    rows = np.arange(2**n_qubits)[:, None]
    xmask = ((kinds == 1) | (kinds == 2)) @ (1 << np.arange(n_qubits))
    gather = (rows ^ xmask) << n_qubits | rows
    parity = (((rows >> np.arange(n_qubits)) & 1) @ (kinds >= 2).T) & 1
    phases = np.array([1, -1j, -1, 1j])[np.sum(kinds == 2, axis=1) % 4] * (1 - 2 * parity)
    gather.flags.writeable = phases.flags.writeable = False  # shared by every caller
    return labels, {label: a for a, label in enumerate(labels)}, gather, phases


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

    Coefficients are tr(P @ M) / 2**k, of which only the real parts are
    kept: P has one unit entry per row, so |Im c_P| = |tr(P (M - M^H))| / 2**(k+1)
    is at most half the asymmetry that the Hermitian check lets through.
    Terms below 1e-12 are dropped.
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
    labels, _, gather, phases = _pauli_table(n_qubits)
    # tr(P @ M) = sum_i P[i, i^x] * M[i^x, i].  Rows are added one at a time
    # in increasing order: the order fixes the coefficients' last bits, which
    # the term order and every trace depend on (tests/test_trotter.py).
    products = phases * m.reshape(-1)[gather]
    coeffs = functools.reduce(np.add, products, np.zeros(4**n_qubits, dtype=complex)) / dim
    kept = np.flatnonzero(np.abs(coeffs.real) > COEFF_TOL)
    kept = kept[np.lexsort((kept, -np.abs(coeffs.real[kept])))]  # columns are in label order
    return HermitianDecomposition(n_qubits, tuple(zip(coeffs.real[kept].tolist(), [labels[a] for a in kept.tolist()])))


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
# essentially free here.  Each slice computes each term's diagonal cos(cs) I
# and its entries at P's nonzeros with their flat indices once; it writes every
# term into one reused buffer and multiplies it into two others.  Subtracting P's
# zeros would leave every other entry of cos(cs) I bit for bit as it is.  The
# gate form in tests/reference.py applies the same term sequence.
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
    _, index, gather, phases = _pauli_table(n)
    columns = [index[label] for _, label in terms]
    cosines = [math.cos(coef * s) for coef, _ in terms]
    sines = np.array([1j * math.sin(coef * s) for coef, _ in terms]).reshape(-1, 1) * phases.T[columns]
    scatter = np.arange(0, dim * dim, dim) + (gather.T[columns] >> n)  # flat (row, col) of P's nonzeros
    eye = np.eye(dim, dtype=complex)
    cosine_column = np.reshape(cosines, (-1, 1))
    values = list(np.multiply(cosine_column, eye.take(scatter)) - sines)
    diagonals = list(np.multiply(cosine_column, eye.diagonal()))
    scatter, term, out, buf = list(scatter), np.empty_like(eye), eye.copy(), np.empty_like(eye)
    flat, diagonal = term.reshape(-1), term.reshape(-1)[:: dim + 1]
    negative = prev = None
    for k in sequence:
        # while the sign of the cosine, and so of cos(cs) I's zeros, holds,
        # only the last term's nonzeros, then the diagonal, change
        if (cosines[k] < 0) is not negative:
            np.multiply(cosines[k], eye, out=term)
            negative, zeros = cosines[k] < 0, np.full(dim, flat[dim - 1])  # off the diagonal unless dim is 1
        else:
            flat[scatter[prev]], diagonal[...] = zeros, diagonals[k]
        flat[scatter[k]] = values[k]
        out, buf, prev = term.dot(out, out=buf), out, k
    return out


def evolution_matrix(spec: EvolutionSpec) -> np.ndarray:
    """Dense unitary of the sliced evolution."""
    return np.linalg.matrix_power(slice_matrix(spec), spec.slices)
