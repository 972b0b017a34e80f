"""Dense reference forms the tests check the package against: gate and
circuit unitaries, Pauli-string matrices, the sum of a decomposition, and
a reader for trace files."""

from __future__ import annotations

import csv

import numpy as np

from qlma.optimizer import ConvergenceTrace, IterationRecord
from qlma.sim import Circuit, GateOp, StateVector, apply_gate
from qlma.trotter import HermitianDecomposition

_PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


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


def pauli_string_matrix(label: str) -> np.ndarray:
    """Dense matrix of a Pauli string; label[q] acts on qubit q."""
    m = np.array([[1.0]], dtype=complex)
    for q in range(len(label) - 1, -1, -1):
        m = np.kron(m, _PAULI_1Q[label[q]])
    return m


def reconstruct(decomposition: HermitianDecomposition) -> np.ndarray:
    dim = 2**decomposition.n_qubits
    out = np.zeros((dim, dim), dtype=complex)
    for coef, label in decomposition.terms:
        out += coef * pauli_string_matrix(label)
    return out


def read_trace_csv(path) -> ConvergenceTrace:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        records = []
        problem = ""
        for row in reader:
            problem = row["problem"]
            records.append(
                IterationRecord(
                    int(row["iteration"]),
                    float(row["cost"]),
                    float(row["lambda1"]),
                    float(row["omega"]),
                    float(row["step_norm"]),
                    bool(int(row["accepted"])),
                    row["backend"],
                    float(row["seconds"]),
                )
            )
    return ConvergenceTrace(problem, records)
