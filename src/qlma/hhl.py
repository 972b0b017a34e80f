"""Quantum linear solver: closed-form state preparation, phase estimation,
eigenvalue inversion, uncompute, post-selection.

Register layout for a 2**k system with m phase qubits: data on qubits
0..k-1 (amplitude-index low bits), phase register on k..k+m-1, inversion
ancilla on k+m.

Eigenvalue readout: with evolution time t = -pi / lambda_bound, a phase
register value v encodes the eigenvalue

    lam(v) = v / 2**m * 2 * lambda_bound          for v <= 2**(m-1)
    lam(v) = (v - 2**m) / 2**m * 2 * lambda_bound  otherwise,

i.e. the upper half of the register is read two's-complement style as the
negative spectrum produced by the Hermitian dilation.  The boundary value
v = 2**(m-1) is read as positive.  v = 0 is unresolvable and is never
rotated, so weight there is discarded by the post-selection.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .sim import (
    Circuit,
    SimulationError,
    StateVector,
    apply_circuit,
    apply_gate,  # unused here; perfbench's tracer hooks qlma.hhl.apply_gate
    apply_passes,
    h,
    inverse_qft_circuit,
    measure_distribution,
    qft_circuit,
)
from .trotter import (
    HERMITIAN_TOL,
    EvolutionSpec,
    decompose_hermitian,
    evolution_matrix,
)

REACHABLE_TOL = 1e-9  # register values with more weight are treated as reachable


class HhlError(SimulationError):
    """Solver-level failure (singular bin, failed post-selection, ...)."""


@dataclass(frozen=True)
class HermitianProblem:
    """A linear system after power-of-two embedding.

    `matrix` is the Hermitian operator actually simulated; `rhs` is stored
    normalized with its original norm in `rhs_norm`.  `original_dim` and
    `dilated` record how to project a solution of the embedded system back
    onto the input system.  `scale` is always 1.0: nothing sets it, and only
    perfbench's tracer still divides by it.
    """

    matrix: np.ndarray
    rhs: np.ndarray
    rhs_norm: float
    original_dim: int
    dilated: bool = False
    scale: float = 1.0

    def __post_init__(self):
        m, b = _real(self.matrix, "embedded matrix"), _real(self.rhs, "embedded rhs")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "rhs", b)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or 2 ** (m.shape[0].bit_length() - 1) != m.shape[0]:
            raise HhlError(f"embedded matrix of shape {m.shape} is not square with a power-of-two size")
        if not np.all(np.isfinite(m)):
            raise HhlError("embedded matrix has non-finite entries")
        if not np.all(np.isfinite(b)):
            raise HhlError("embedded rhs has non-finite entries")
        if b.shape != m.shape[:1]:
            raise HhlError(f"embedded rhs of shape {b.shape} does not match the {m.shape[0]}-row matrix")
        if np.max(np.abs(m - m.T)) > HERMITIAN_TOL * max(1.0, float(np.max(np.abs(m)))):
            raise HhlError("embedded matrix is not Hermitian")

    @property
    def n_data_qubits(self) -> int:
        return self.matrix.shape[0].bit_length() - 1


def _next_power_of_two(n: int) -> int:
    return 1 << max(n - 1, 0).bit_length()


def _real(value, name: str) -> np.ndarray:
    if np.iscomplexobj(value):  # the cast would drop the imaginary part with only a warning
        raise HhlError(f"{name} is complex")
    return np.asarray(value, dtype=float)


def embed_problem(matrix: np.ndarray, rhs: np.ndarray, force_dilation: bool = False) -> HermitianProblem:
    """Embed a real symmetric system into power-of-two Hermitian form.

    A matrix whose asymmetry exceeds HERMITIAN_TOL (relative to its largest
    entry, at least 1) is rejected; the rest is symmetrized once, as
    (M + M^T) / 2, to drop roundoff asymmetry.  Zero-pads to the next power
    of two with an identity diagonal on the padded block and zeros in the
    rhs.  force_dilation=True (the 12 -> 16 -> 32 expansion the optimizer's
    quantum backend always applies) then dilates to [[0, M], [M, 0]] with
    the rhs in the first block; the solution lives in the second block.
    """
    m, b = _real(matrix, "matrix"), _real(rhs, "rhs")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise HhlError("matrix must be square")
    if b.shape != (m.shape[0],):
        raise HhlError("rhs length does not match the matrix")
    if not np.all(np.isfinite(m)):
        raise HhlError("matrix has non-finite entries")
    if not np.all(np.isfinite(b)):
        raise HhlError("rhs has non-finite entries")
    norm = float(np.linalg.norm(b))
    if norm == 0.0:
        raise HhlError("rhs is zero")
    if np.max(np.abs(m - m.T)) > HERMITIAN_TOL * max(1.0, float(np.max(np.abs(m)))):
        raise HhlError("matrix is not symmetric")

    dim0 = m.shape[0]
    dim = _next_power_of_two(dim0)
    padded = np.eye(dim)
    padded[:dim0, :dim0] = (m + m.T) / 2.0
    b_pad = np.zeros(dim)
    b_pad[:dim0] = b
    if not force_dilation:
        return HermitianProblem(padded, b_pad / norm, norm, dim0)
    dilated = np.zeros((2 * dim, 2 * dim))
    dilated[:dim, dim:] = dilated[dim:, :dim] = padded
    return HermitianProblem(dilated, np.concatenate([b_pad, np.zeros(dim)]) / norm, norm, dim0, dilated=True)


def project_solution(problem: HermitianProblem, embedded: np.ndarray) -> np.ndarray:
    """Undo the embedding on a solution vector of the embedded system."""
    if problem.dilated:
        half = problem.matrix.shape[0] // 2
        embedded = embedded[half:]
    return embedded[: problem.original_dim]


@dataclass(frozen=True)
class HhlConfig:
    """Solver knobs.  lambda_bound bounds the largest |eigenvalue| and sets the evolution time
    -pi / lambda_bound.  None means the row-sum spectral_bound in hhl_solve; on the LM step,
    optimizer.hhl_system replaces None with the tighter eigvalsh bound."""

    n_phase_qubits: int = 3
    slices: int = 50
    lambda_bound: float | None = None

    def __post_init__(self):
        for name in ("n_phase_qubits", "slices"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise HhlError(f"{name} must be an integer, got {value!r}")
        if self.n_phase_qubits < 1:
            raise HhlError("need at least one phase qubit")
        if self.slices < 1:
            raise HhlError("need at least one time slice")
        bound = self.lambda_bound
        if bound is not None and (isinstance(bound, bool) or not isinstance(bound, numbers.Real) or not 0 < bound < math.inf):
            raise HhlError(f"lambda_bound must be None or a finite positive number, got {bound!r}")


@dataclass(frozen=True)
class HhlSolution:
    """De-normalized solution estimate plus run diagnostics.

    fidelity_proxy is the cosine between the post-selected state and its
    projection onto the cleanly uncomputed (phase register = 0) branch;
    1.0 means the phase register disentangled exactly.
    """

    solution: np.ndarray
    success_probability: float
    fidelity_proxy: float
    register_distribution: dict[int, float]


def spectral_bound(matrix: np.ndarray) -> float:
    """Row-sum (Gershgorin-type) bound on the largest |eigenvalue|."""
    return float(np.max(np.sum(np.abs(matrix), axis=1)))


def bin_phase(value: int, n_phase_qubits: int) -> float:
    """Signed eigenphase encoded by a phase-register value."""
    half = 2 ** (n_phase_qubits - 1)
    if value <= half:
        return value / 2**n_phase_qubits
    return (value - 2**n_phase_qubits) / 2**n_phase_qubits


def _hhl_lambda_bound(matrix: np.ndarray, n_phase_qubits: int) -> float:
    """Tight bound placing the largest |eigenvalue| on the next-to-top
    positive register bin, so the mirrored negative spectrum of the
    dilation stays distinguishable from it."""
    top = float(np.max(np.abs(np.linalg.eigvalsh(matrix))))
    half = 2 ** (n_phase_qubits - 1)
    factor = half / (half - 1) if half > 1 else 2.0
    return top * factor


def _encoding_rotations(rhs: np.ndarray) -> list[tuple[int, int, float]]:
    """Grover & Rudolph's encoding of a real unit vector of length 2**k as Y
    rotations (block start, half size, angle), parent first: each splits the
    amplitude at start into cos(angle/2) there and sin(angle/2) at start +
    half.  A half of norm 0 is not descended into; tests/reference.py has the gates."""
    v = np.asarray(rhs, dtype=float)
    k = v.size.bit_length() - 1
    if v.ndim != 1 or k < 1 or v.size != 2**k:
        raise HhlError(f"rhs length {v.size} is not a power of two of at least 2")
    if not abs(np.linalg.norm(v) - 1.0) <= 1e-9:  # also rejects NaN
        raise HhlError("rhs must be normalized")
    rotations, blocks = [], [(0, v)]
    while blocks:  # depth first with the left half first, as the gate form
        start, sub = blocks.pop()
        half = sub.size // 2
        left, right = sub[:half], sub[half:]
        if half == 1:
            angle = 2.0 * math.atan2(right[0], left[0])
        else:
            left_norm, right_norm = float(np.linalg.norm(left)), float(np.linalg.norm(right))
            angle = 2.0 * math.atan2(right_norm, left_norm)
            if right_norm > 0.0:
                blocks.append((start + half, right))
            if left_norm > 0.0:  # pushed last, so walked first
                blocks.append((start, left))
        if abs(angle) > 1e-15:
            rotations.append((start, half, angle))
    return rotations


def _estimation_input(rhs: np.ndarray, n_phase: int) -> np.ndarray:
    """|b> (x) |+>^m as the real products the encoding's gates and a Hadamard per
    phase qubit form, each on a state whose other half is +0.  A rotation skipped
    under a zero half leaves its block the product its parent wrote at its start."""
    data = np.zeros(np.size(rhs))
    data[0] = 1.0
    for start, half, angle in _encoding_rotations(rhs):
        a = data[start]
        data[start], data[start + half] = a * math.cos(angle / 2.0), a * math.sin(angle / 2.0)
    for _ in range(n_phase):
        data *= 1.0 / math.sqrt(2.0)  # the Hadamard's entry
    return np.tile(data, 2**n_phase)


def _nearest_unitary(matrix: np.ndarray) -> np.ndarray:
    """Polar projection; the exact operator is unitary, only roundoff is not."""
    u_, _, vt = np.linalg.svd(matrix)
    return u_ @ vt


def _apply_controlled_block(amps: np.ndarray, block: np.ndarray, n_data: int, control: int) -> None:
    """In place: apply a dense unitary on the (contiguous, low) data qubits
    when the control qubit is 1.  The control = 1 rows are copied out in
    index order and multiplied as one (rows, 2**n_data) array: one zgemm
    over all of them, as Haswell's zgemm rounds a row by the row count."""
    selected = amps.reshape(-1, 2, 2 ** (control - n_data), 2**n_data)[:, 1]
    selected[...] = (selected.reshape(-1, 2**n_data) @ block.T).reshape(selected.shape)


def _squaring_chain(matrix: np.ndarray, count: int) -> list[np.ndarray]:
    """matrix**(2**j) for j < count, each the square of the previous one
    (the products np.linalg.matrix_power makes for a power of two)."""
    powers = [matrix]
    for _ in range(count - 1):
        powers.append(powers[-1] @ powers[-1])
    return powers


def _renormalize(amps: np.ndarray) -> None:
    """In place: amps / ||amps|| as a real multiply by 1 / ||amps||.  numpy's
    complex division by a real r computes (re + im*0) * (1/r), so only the
    sign of an exact zero can differ from amps / r."""
    flat = amps.view(float)
    flat *= 1.0 / np.linalg.norm(amps)


@functools.lru_cache(maxsize=16)
def _readout_circuits(n_data: int, n_phase: int) -> tuple[Circuit, Circuit, Circuit]:
    """The inverse transform on the data and phase qubits, the forward
    transform with the ancilla too, and the Hadamards on the phase qubits."""
    phase_qubits, n = list(range(n_data, n_data + n_phase)), n_data + n_phase
    iqft = inverse_qft_circuit(phase_qubits)  # on qubits 0..n-1
    return iqft, Circuit(n + 1, qft_circuit(phase_qubits).ops), Circuit(n, tuple(h(q) for q in phase_qubits))


def ry_matrix(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


@functools.lru_cache(maxsize=16)
def _inversion_table(n_phase: int, constant: float) -> tuple[np.ndarray, np.ndarray]:
    """The register values v the inversion rotates for constant C, in
    increasing order, and their (R, 1, 2, 2) matrices RY(2 arcsin(C/lam(v))),
    read-only.  Value 0 and the bins where |C/lam| > 1 are skipped; C is
    always one of the 2**(m-1) positive bin phases.  tests/reference.py
    holds the same rotations as gates."""
    ratios = [(v, constant / bin_phase(v, n_phase)) for v in range(1, 2**n_phase)]
    rotated = [(v, ratio) for v, ratio in ratios if abs(ratio) <= 1.0 + 1e-12]
    values = np.array([v for v, _ in rotated])
    mats = np.stack([ry_matrix(2.0 * math.asin(max(-1.0, min(1.0, ratio)))) for _, ratio in rotated])[:, None]
    values.flags.writeable = mats.flags.writeable = False
    return values, mats


def _apply_inversion(amps: np.ndarray, n_data: int, n_phase: int, constant: float) -> np.ndarray:
    """The estimation register's amplitudes with the ancilla added in |0>,
    then the inversion rotations on the ancilla, one per rotated register
    value, as one gather on the (ancilla, phase, data) view."""
    values, mats = _inversion_table(n_phase, constant)
    out = np.zeros(2 * amps.size, dtype=complex)
    out[: amps.size] = amps
    t = out.reshape(2, 2**n_phase, 2**n_data)
    a0, a1 = t[0, values], t[1, values]  # gathers copy, so t can be written in place
    t[0, values] = mats[..., 0, 0] * a0 + mats[..., 0, 1] * a1
    t[1, values] = mats[..., 1, 0] * a0 + mats[..., 1, 1] * a1
    return out


def hhl_solve(problem: HermitianProblem, config: HhlConfig = HhlConfig()) -> HhlSolution:
    """Run the full pipeline and read the solution off the statevector.

    Builds |b>, runs phase estimation with the sliced product-formula
    evolution, applies the eigenvalue-inversion rotations on the reachable
    register values, uncomputes the estimation, and post-selects the
    ancilla on |1>.  Amplitudes are read exactly from the simulated state
    (no sampling); the estimate is block / C * ||b|| / (2 * lambda_bound),
    with the overall phase removed by the smallest rotation that makes the
    dominant entry real (sign-preserving).
    """
    k = problem.n_data_qubits
    m = config.n_phase_qubits
    n = k + m + 1
    phase_qubits = list(range(k, k + m))

    bound = config.lambda_bound if config.lambda_bound is not None else spectral_bound(problem.matrix)
    if bound <= 0.0:
        raise HhlError("spectral bound must be positive")
    time = -math.pi / bound
    spec = EvolutionSpec(decompose_hermitian(problem.matrix), time, config.slices)

    # The ancilla stays |0> until the inversion, so |b> (x) |+>^m (closed form),
    # the inverse transform and the readout run without it.  The powers keep its
    # zero rows: Haswell's zgemm rounds a row by the row count; one row is a gemv.
    iqft, qft, hadamards = _readout_circuits(k, m)
    amps = np.zeros(2**n, dtype=complex)
    amps[: 2 ** (k + m)] = _estimation_input(problem.rhs, m)
    step = _nearest_unitary(evolution_matrix(spec))
    for q, power in zip(phase_qubits, _squaring_chain(step, m)):
        _apply_controlled_block(amps, power, k, q)
        _renormalize(amps)  # absorb float drift of the powers
    state = apply_circuit(StateVector(k + m, amps[: 2 ** (k + m)]), iqft)

    # C is the smallest reachable nonzero |eigenphase|, which maximizes the
    # post-selection probability; |C/lam| <= 1 then holds on every reachable
    # bin, and the bins where it fails are unreachable and skipped.
    register = measure_distribution(state, phase_qubits)
    reachable_nonzero = [v for v, p in register.items() if v and p > REACHABLE_TOL]
    if not reachable_nonzero:
        raise HhlError("phase register resolves only the zero eigenvalue bin")
    constant = min(abs(bin_phase(v, m)) for v in reachable_nonzero)
    state = StateVector(n, _apply_inversion(state.amplitudes, k, m, constant))

    # The uncompute keeps all n qubits: each controlled power renormalizes by
    # the norm of both ancilla branches.  The last Hadamards run only on the
    # ancilla = 1 half, which the post-selection reads and is not unit-norm.
    amps = apply_circuit(state, qft).amplitudes
    for q, power in reversed(list(zip(phase_qubits, _squaring_chain(step.conj().T, m)))):
        _apply_controlled_block(amps, power, k, q)
        _renormalize(amps)
    selected = amps[2 ** (k + m) :]
    apply_passes(selected, hadamards)
    success = float(np.sum(np.abs(selected) ** 2))
    if success < 1e-12:
        raise HhlError(f"post-selection probability {success} below threshold")
    success = min(success, 1.0)

    block = selected[: 2**k]
    block_norm = float(np.linalg.norm(block))
    fidelity = block_norm / math.sqrt(success)

    # Smallest phase rotation making the dominant entry real; keeps the sign
    # of legitimately negative solutions intact.
    pivot = int(np.argmax(np.abs(block)))
    phase = float(np.angle(block[pivot])) if block_norm > 0 else 0.0
    if phase > math.pi / 2:
        phase -= math.pi
    elif phase < -math.pi / 2:
        phase += math.pi
    aligned = np.real(block * np.exp(-1j * phase))

    denorm = problem.rhs_norm / (constant * 2.0 * bound)
    solution = project_solution(problem, aligned * denorm)
    return HhlSolution(solution, success, min(fidelity, 1.0), register)


def hhl_gate_tally(problem: HermitianProblem, config: HhlConfig = HhlConfig()) -> tuple[int, int, dict[str, int]]:
    """Gate tally of the fully unrolled pipeline, computed compositionally in closed form.

    Counts the encoding's rotations, Hadamards, one controlled evolution per
    phase qubit (slice gates, counted from the Pauli labels, times
    slices * 2**j), the inverse transform, the inversion rotations (one per
    nonzero register value, counted from the register size), and the uncompute
    mirror, without materializing the (possibly huge) op list.
    """
    k = problem.n_data_qubits
    m = config.n_phase_qubits

    labels = [label for _, label in decompose_hermitian(problem.matrix).terms]
    # One visit of a term e^{-icsP} whose label has n_X X, n_Y Y and n_Z Z
    # factors is a basis change and its inverse (2(n_X + n_Y) h, 2 n_Y u),
    # a parity ladder and its mirror (2(n_X + n_Y + n_Z - 1) cx), and one
    # controlled Z rotation (cu).  tests/test_hhl.py checks this count against
    # the gate form in tests/reference.py.
    visits = {"h": 0, "u": 0, "cx": 0, "cu": 0}  # one visit of each non-identity term
    for label in labels:
        n_x, n_y, n_z = (label.count(p) for p in "XYZ")
        if n_x + n_y + n_z:
            visits["h"] += 2 * (n_x + n_y)
            visits["u"] += 2 * n_y
            visits["cx"] += 2 * (n_x + n_y + n_z - 1)
            visits["cu"] += 1
    powers = 2 * sum(2**j for j in range(m))  # estimation plus uncompute
    identity = 2 * m if "I" * k in labels else 0  # the identity term is one phase gate per controlled power
    encoding = [half == 2 ** (k - 1) for _, half, _ in _encoding_rotations(problem.rhs)]  # cry; uncontrolled at the root
    parts = [  # (one-qubit, two-qubit, per-kind) tallies, each with its multiplicity
        ((sum(encoding), len(encoding) - sum(encoding), {"cry": len(encoding)}), 1),
        ((2 * m, 0, {"h": 2 * m}), 1),
        # the order-2 formula that hhl_solve runs visits every term twice per slice
        ((visits["h"] + visits["u"], visits["cx"] + visits["cu"], visits), 2 * config.slices * powers),
        ((identity, 0, {"u": identity}), 1),
        # the inverse transform on m qubits: m h, m(m-1)/2 controlled phases, floor(m/2) swaps of three cx
        ((m, m * (m - 1) // 2 + 3 * (m // 2), {"h": m, "cu": m * (m - 1) // 2, "cx": 3 * (m // 2)}), 2),
        # with C = 2**-m every nonzero register value gets its one controlled rotation
        ((0, 2**m - 1, {"cry": 2**m - 1}), 1),
    ]
    per: dict[str, int] = {}
    for (_, _, kinds), factor in parts:
        for kind, count in kinds.items():
            if count:  # report no kind that never occurs
                per[kind] = per.get(kind, 0) + count * factor
    return sum(p[0] * f for p, f in parts), sum(p[1] * f for p, f in parts), per
