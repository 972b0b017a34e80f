"""Reference forms the tests check the package against: gate and circuit
unitaries, gate tallies, the general rotations (u, cu, cry, U's matrix and its
parameter-negating adjoint) the gate forms are built from, Pauli-string
matrices, the sum of a decomposition, a reader for trace files, the
amplitude encoding's gate form (the package computes the state it prepares
in closed form), the product formula's gate form (the package runs its
matrix form only), the phase-estimation circuit, the eigenvalue
inversion's gate form (the package computes its rotation matrices from
C/lam), the three-qubit textbook instance of the linear solver, the
simulator's passes on the (2,)*n tensor of the amplitudes (the package
reshapes them per pass to its qubits' coarsest axes), the per-component
jet seeding, quaternion helpers and pinhole projection (the package stacks
each quaternion and 3-vector on one component axis), and, for the pinned
digests, the name of the OpenBLAS kernel they are recorded per and a pin
to the one OpenBLAS thread they are recorded with."""

from __future__ import annotations

import contextlib
import csv
import ctypes
import glob
import math
import os

import numpy as np

from qlma import jets
from qlma.ba import SMALL_ANGLE_SQ, ProjectionError
from qlma.hhl import HhlError, bin_phase, ry_matrix
from qlma.optimizer import ConvergenceTrace, IterationRecord
from qlma.sim import Circuit, GateOp, SimulationError, StateVector, apply_gate, cx, dagger, h, inverse_qft_circuit
from qlma.trotter import EvolutionSpec, HermitianDecomposition, _slice_sequence


def _openblas() -> ctypes.CDLL | None:
    """numpy's bundled OpenBLAS, or None if numpy ships none."""
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs", "*openblas*"))
    return ctypes.CDLL(libs[0]) if libs else None


def openblas_core() -> str:
    """The kernel OpenBLAS picked at load time (SkylakeX, Haswell, ...), as it names it."""
    lib = _openblas()
    if lib is None:
        return "unknown (no OpenBLAS in numpy.libs)"
    corename = lib.scipy_openblas_get_corename64_
    corename.restype = ctypes.c_char_p
    return corename().decode()


@contextlib.contextmanager
def one_openblas_thread():
    """Run the block with OpenBLAS on one thread, the count the pinned
    digests are recorded with, and restore the previous count after it."""
    lib = _openblas()
    if lib is None:
        yield
        return
    previous = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(1)
    try:
        yield
    finally:
        lib.scipy_openblas_set_num_threads64_(previous)


# ---------------------------------------------------------------------------
# Quaternion helpers and projection, one component at a time, generic over floats, arrays and jets.
# ---------------------------------------------------------------------------

def component_variables(values) -> list[jets.Jet]:
    """Seed one jet per entry with identity partials; an array entry seeds an array jet."""
    eye = np.eye(len(values))
    return [
        jets.Jet(float(v) if np.ndim(v) == 0 else v, eye[i, :, None].repeat(np.size(v), 1)) for i, v in enumerate(values)
    ]


def quat_mul(a, b):
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    )


def quat_from_rotvec(w):
    """Unit quaternion of an axis-angle vector; series form near zero, chosen per element over arrays."""
    wx, wy, wz = w
    angle_sq = wx * wx + wy * wy + wz * wz
    small, sq = angle_sq < SMALL_ANGLE_SQ, angle_sq * angle_sq
    qw, half = 1.0 - angle_sq / 8.0 + sq / 384.0, 0.5 - angle_sq / 48.0 + sq / 3840.0
    if not np.all(small):  # the exact form divides by the angle, so it gets 1.0 where the series applies
        angle = jets.sqrt(jets.where(small, 1.0, angle_sq))
        qw, half = jets.where(small, qw, jets.cos(angle * 0.5)), jets.where(small, half, jets.sin(angle * 0.5) / angle)
    return (qw, wx * half, wy * half, wz * half)


def quat_normalize(q):
    qw, qx, qy, qz = q
    inv = 1.0 / jets.sqrt(qw * qw + qx * qx + qy * qy + qz * qz)
    return (qw * inv, qx * inv, qy * inv, qz * inv)


def rotate_by(w, q):
    """The rotation q followed by the axis-angle rotation w, R(w) * R(q), as a renormalized quaternion."""
    return quat_normalize(quat_mul(quat_from_rotvec(w), q))


def quat_rotate(q, v):
    """Rotate vector v by unit quaternion q (two cross products)."""
    qw, qx, qy, qz = q
    vx, vy, vz = v
    tx = 2.0 * (qy * vz - qz * vy)
    ty = 2.0 * (qz * vx - qx * vz)
    tz = 2.0 * (qx * vy - qy * vx)
    return (
        vx + qw * tx + (qy * tz - qz * ty),
        vy + qw * ty + (qz * tx - qx * tz),
        vz + qw * tz + (qx * ty - qy * tx),
    )


def project_generic(quaternion, position, focal, principal_point, point):
    """Pinhole projection, generic over floats, arrays and jets."""
    d = (point[0] - position[0], point[1] - position[1], point[2] - position[2])
    xc, yc, zc = quat_rotate(quaternion, d)
    if np.any(zc <= 0.0):
        raise ProjectionError("point is on or behind the camera plane")
    return (focal * xc / zc + principal_point[0], focal * yc / zc + principal_point[1])


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


def gate_counts(circuit: Circuit) -> tuple[int, int, dict[str, int]]:
    """(one-qubit total, two-qubit total, tally per kind label).

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


def pair_views(n_qubits: int, op: GateOp) -> tuple[tuple[slice, ...], tuple[slice, ...]]:
    """Index tuples of the target's 0 and 1 halves, each control at its
    state, in the (2,)*n tensor of the amplitudes (qubit q is axis n-1-q)."""
    sel = [slice(None)] * n_qubits
    for q, s in zip(op.qubits, (0, *op.control_states)):
        sel[n_qubits - 1 - q] = slice(s, s + 1)
    i0 = tuple(sel)
    sel[n_qubits - 1 - op.target] = slice(1, 2)
    return i0, tuple(sel)


def tensor_passes(amps: np.ndarray, circuit: Circuit) -> None:
    """In place: sim.apply_passes's arithmetic, each pass's rows on the
    halves of pair_views, where every qubit has an axis of its own."""
    t = amps.reshape((2,) * circuit.n_qubits)
    for op, (*_, rows) in zip(circuit.ops, circuit._passes):
        halves = tuple(t[i] for i in pair_views(circuit.n_qubits, op))
        new = []
        for terms in rows:
            parts = [halves[j] if c is None else c * halves[j] for j, c in terms]
            new.append(parts[0] + parts[1] if len(parts) == 2 else parts[0])
        if new[1] is halves[0]:
            new[1] = new[1].copy()
        for half, row in zip(halves, new):
            if row is not half:
                half[...] = row


# ---------------------------------------------------------------------------
# General rotations, the gate kinds of the reference gate forms.
# ---------------------------------------------------------------------------

def u_matrix(theta: float, phi: float, lam: float, gamma: float = 0.0) -> np.ndarray:
    """Dense 2x2 of U(theta, phi, lam) times the explicit phase e^{i gamma},
    so diagonal rotations such as e^{-i a Z/2} are exact, not just up to phase."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    m = np.array(
        [[c, -np.exp(1j * lam) * s], [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c]],
        dtype=complex,
    )
    return np.exp(1j * gamma) * m


def u_adjoint(theta: float, phi: float, lam: float, gamma: float = 0.0) -> tuple[float, float, float, float]:
    """The parameters of U's inverse: (-theta, -lam, -phi, -gamma)."""
    return -theta, -lam, -phi, -gamma


def u(target: int, theta: float, phi: float, lam: float, gamma: float = 0.0) -> GateOp:
    return GateOp("u", target, matrix=u_matrix(theta, phi, lam, gamma))


def cu(
    control: int, target: int, theta: float, phi: float, lam: float, gamma: float = 0.0, control_state: int = 1
) -> GateOp:
    """Singly controlled u; gamma becomes a relative phase."""
    return GateOp("cu", target, (control,), (control_state,), matrix=u_matrix(theta, phi, lam, gamma))


def cry(theta: float, target: int, controls: tuple[int, ...] = (), control_states: tuple[int, ...] = ()) -> GateOp:
    """Y rotation under any number of polarity controls (none is a plain RY)."""
    return GateOp("cry", target, tuple(controls), tuple(control_states), matrix=ry_matrix(theta))


def minimal_hhl_circuit() -> Circuit:
    """The three-qubit textbook instance of the full pipeline.

    Solves the bit-flip system on one data qubit: Hadamard encoding of the
    right-hand side, a one-qubit phase estimation (H, controlled flip, H),
    the eigenvalue inversion as an open-circle-controlled flip, and the
    estimation run backwards.  Data on qubit 0, phase on 1, ancilla on 2.
    """
    data, phase, anc = 0, 1, 2
    ops = (
        h(data),
        h(phase),
        cx(phase, data),
        h(phase),
        cx(phase, anc, control_state=0),
        h(phase),
        cx(phase, data),
        h(phase),
    )
    return Circuit(3, ops)


# ---------------------------------------------------------------------------
# Gate form of the amplitude encoding.
# ---------------------------------------------------------------------------

def state_preparation_circuit(rhs: np.ndarray) -> Circuit:
    """Exact amplitude encoding of a real unit vector of length 2**k on the
    data register, qubits 0..k-1.

    |0..0> maps to sum_i rhs_i |i> through a binary tree of
    polarity-controlled Y rotations.
    """
    v = np.asarray(rhs, dtype=float)
    k = v.size.bit_length() - 1
    if v.ndim != 1 or k < 1 or v.size != 2**k:
        raise HhlError(f"rhs length {v.size} is not a power of two of at least 2")
    if not abs(np.linalg.norm(v) - 1.0) <= 1e-9:  # also rejects NaN
        raise HhlError("rhs must be normalized")

    ops: list[GateOp] = []
    _encode_subtree(v, k - 1, [], ops)
    return Circuit(k, tuple(ops))


def _encode_subtree(sub: np.ndarray, qubit: int, controls: list[tuple[int, int]], ops: list[GateOp]) -> None:
    """Append the rotations that encode `sub` on qubits qubit..0 under the
    (qubit, state) `controls`, depth first with the left half first."""
    half = sub.size // 2
    left, right = sub[:half], sub[half:]
    if half == 1:
        angle = 2.0 * math.atan2(right[0], left[0])
    else:
        left_norm, right_norm = float(np.linalg.norm(left)), float(np.linalg.norm(right))
        angle = 2.0 * math.atan2(right_norm, left_norm)
    if abs(angle) > 1e-15:
        ctrl_qubits = tuple(c for c, _ in controls)
        ctrl_states = tuple(s for _, s in controls)
        ops.append(cry(angle, qubit, ctrl_qubits, ctrl_states))
    if half == 1:
        return
    if left_norm > 0.0:
        _encode_subtree(left, qubit - 1, controls + [(qubit, 0)], ops)
    if right_norm > 0.0:
        _encode_subtree(right, qubit - 1, controls + [(qubit, 1)], ops)


# ---------------------------------------------------------------------------
# Gate form of the product formula.
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


def qpe_circuit(spec: EvolutionSpec, phase_qubits: list[int]) -> Circuit:
    """Phase estimation: Hadamards, controlled powers, inverse transform.

    The data register is the operator's own qubits 0..k-1; phase_qubits
    must lie above it.  With an eigenvector on the data register whose
    eigenphase is an exact m-bit fraction K / 2**m, the phase register ends
    in |K> (phase_qubits[j] holds bit j of K).
    """
    ops: list[GateOp] = [h(q) for q in phase_qubits]
    for j, q in enumerate(phase_qubits):
        ops.extend(trotter_circuit(spec, controlled_by=(q, j)).ops)
    ops.extend(inverse_qft_circuit(list(phase_qubits)).ops)
    return Circuit(max(phase_qubits) + 1, tuple(ops))


# ---------------------------------------------------------------------------
# Gate form of the eigenvalue inversion.
# ---------------------------------------------------------------------------

def inversion_rotation_circuit(
    phase_qubits: list[int],
    ancilla: int,
    inversion_constant: float,
    bin_eigenvalues: list[float | None] | None = None,
) -> Circuit:
    """Per-register-value ancilla rotations encoding reciprocal eigenvalues.

    For each phase-register value v (phase_qubits[j] holds bit j of v) with
    eigenvalue lam, rotates the ancilla by 2*arcsin(C/lam), turning |0> into
    sqrt(1 - C^2/lam^2)|0> + (C/lam)|1>.  Register value 0 is never
    rotated.  bin_eigenvalues[v] = None skips a bin (the caller asserting it
    is unreachable); otherwise C/|lam| > 1 raises.  Default bins are the
    signed grid v/2**m.
    """
    m = len(phase_qubits)
    if bin_eigenvalues is None:
        bin_eigenvalues = [bin_phase(v, m) if v else None for v in range(2**m)]
    if len(bin_eigenvalues) != 2**m:
        raise HhlError("need one eigenvalue entry per register value")
    ops: list[GateOp] = []
    for value in range(1, 2**m):
        lam = bin_eigenvalues[value]
        if lam is None:
            continue
        ratio = inversion_constant / lam
        if abs(ratio) > 1.0 + 1e-12:
            raise HhlError(
                f"rotation undefined: C={inversion_constant} exceeds |eigenvalue| {abs(lam)} at register value {value}"
            )
        angle = 2.0 * math.asin(max(-1.0, min(1.0, ratio)))
        states = tuple((value >> j) & 1 for j in range(m))
        ops.append(cry(angle, ancilla, phase_qubits, states))
    return Circuit(max((ancilla, *phase_qubits)) + 1, tuple(ops))
