"""Quantum linear solver: state preparation, phase estimation, eigenvalue
inversion, uncompute, post-selection.

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
from dataclasses import dataclass, field

import numpy as np

from .sim import (
    Circuit,
    GateOp,
    SimulationError,
    StateVector,
    apply_circuit,
    apply_gate,  # unused here; perfbench's tracer hooks qlma.hhl.apply_gate
    cry,
    gate_counts,
    gate_matrix,
    h,
    inverse_circuit,
    measure_distribution,
)
from .trotter import (
    HERMITIAN_TOL,
    EvolutionSpec,
    HermitianDecomposition,
    decompose_hermitian,
    evolution_matrix,
    inverse_qft_circuit,
    trotter_circuit,
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
    onto the input system.  `scale` records any spectral rescaling applied
    to the matrix (1.0 means none).
    """

    matrix: np.ndarray
    rhs: np.ndarray
    rhs_norm: float
    original_dim: int
    dilated: bool = False
    scale: float = 1.0

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "rhs", np.asarray(self.rhs, dtype=float))
        if not np.all(np.isfinite(m)):
            raise HhlError("embedded matrix has non-finite entries")
        if np.max(np.abs(m - m.T)) > HERMITIAN_TOL * max(1.0, float(np.max(np.abs(m)))):
            raise HhlError("embedded matrix is not Hermitian")

    @property
    def n_data_qubits(self) -> int:
        return self.matrix.shape[0].bit_length() - 1


def _next_power_of_two(n: int) -> int:
    k = 1
    while k < n:
        k *= 2
    return k


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
    m = np.asarray(matrix, dtype=float)
    b = np.asarray(rhs, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise HhlError("matrix must be square")
    if b.shape != (m.shape[0],):
        raise HhlError("rhs length does not match the matrix")
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
    """Solver knobs.

    lambda_bound overrides the row-sum spectral bound (useful when the
    caller knows a tight bound).
    """

    n_phase_qubits: int = 3
    slices: int = 50
    lambda_bound: float | None = None

    def __post_init__(self):
        if self.n_phase_qubits < 1:
            raise HhlError("need at least one phase qubit")


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
    register_distribution: dict[int, float] = field(default_factory=dict)


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


def _nearest_unitary(matrix: np.ndarray) -> np.ndarray:
    """Polar projection; the exact operator is unitary, only roundoff is not."""
    u_, _, vt = np.linalg.svd(matrix)
    return u_ @ vt


def _apply_controlled_block(amps: np.ndarray, block: np.ndarray, n_data: int, control: int) -> None:
    """In place: apply a dense unitary on the (contiguous, low) data qubits
    when the control qubit is 1."""
    rows = amps.reshape(-1, 2**n_data)
    sel = (np.arange(rows.shape[0]) >> (control - n_data)) & 1 == 1
    rows[sel] = rows[sel] @ block.T


def _squaring_chain(matrix: np.ndarray, count: int) -> list[np.ndarray]:
    """matrix**(2**j) for j < count, each the square of the previous one
    (the products np.linalg.matrix_power makes for a power of two)."""
    powers = [matrix]
    for _ in range(count - 1):
        powers.append(powers[-1] @ powers[-1])
    return powers


def _zero_extend(state: StateVector, n_qubits: int) -> StateVector:
    """The state on n_qubits with the added high qubits in |0>."""
    amps = np.zeros(2**n_qubits, dtype=complex)
    amps[: state.amplitudes.size] = state.amplitudes
    return StateVector(n_qubits, amps)


@functools.lru_cache(maxsize=16)
def _readout_circuits(n_data: int, n_phase: int) -> tuple[Circuit, Circuit, Circuit, Circuit]:
    """The Hadamards on the phase qubits and the inverse transform on the
    estimation register (data and phase qubits), then the transform and the
    Hadamards on the full register with the ancilla."""
    phase_qubits, n = list(range(n_data, n_data + n_phase)), n_data + n_phase
    iqft, hadamards = inverse_qft_circuit(phase_qubits), tuple(h(q) for q in phase_qubits)
    return (
        Circuit(n, hadamards), Circuit(n, iqft.ops),
        Circuit(n + 1, inverse_circuit(iqft).ops), Circuit(n + 1, hadamards),
    )


@functools.lru_cache(maxsize=16)
def _inversion_table(n_phase: int, constant: float) -> tuple[np.ndarray, np.ndarray]:
    """The register values the inversion rotates for constant C and their
    (R, 1, 2, 2) rotation matrices, read-only, read off the ops of
    inversion_rotation_circuit; the bins where |C/lam| > 1 are skipped.  C is
    always one of the 2**(m-1) positive bin phases."""
    lams = [bin_phase(v, n_phase) for v in range(2**n_phase)]
    bins = [lam if v and abs(constant / lam) <= 1.0 + 1e-12 else None for v, lam in enumerate(lams)]
    ops = inversion_rotation_circuit(list(range(n_phase)), n_phase, constant, bins).ops
    values = np.array([sum(s << j for j, s in enumerate(op.control_states)) for op in ops])
    mats = np.stack([gate_matrix(op) for op in ops])[:, None]
    values.flags.writeable = mats.flags.writeable = False
    return values, mats


def _apply_inversion(amps: np.ndarray, n_data: int, n_phase: int, constant: float) -> np.ndarray:
    """The inversion rotations on the ancilla, one per rotated register
    value, as one gather on the (ancilla, phase, data) view of the amplitudes."""
    values, mats = _inversion_table(n_phase, constant)
    out = amps.copy()
    shape = (2, 2**n_phase, 2**n_data)
    src, dst = amps.reshape(shape), out.reshape(shape)
    a0, a1 = src[0, values], src[1, values]
    dst[0, values] = mats[..., 0, 0] * a0 + mats[..., 0, 1] * a1
    dst[1, values] = mats[..., 1, 0] * a0 + mats[..., 1, 1] * a1
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

    # The ancilla stays |0> until the inversion, so the state preparation,
    # the Hadamards, the inverse transform and the readout run without it.
    # The controlled powers keep all n qubits: on the k+m register a
    # one-phase-qubit power would multiply a single row, and numpy's
    # matrix-vector product rounds differently from its matrix product.
    hadamards, iqft, iqft_dag, hadamards_dag = _readout_circuits(k, m)
    state = apply_circuit(StateVector.zero(k), state_preparation_circuit(problem.rhs))
    state = apply_circuit(_zero_extend(state, k + m), hadamards)
    amps = _zero_extend(state, n).amplitudes
    step = _nearest_unitary(evolution_matrix(spec))
    for q, power in zip(phase_qubits, _squaring_chain(step, m)):
        _apply_controlled_block(amps, power, k, q)
        amps /= np.linalg.norm(amps)  # absorb float drift of the powers
    state = apply_circuit(StateVector(k + m, amps[: 2 ** (k + m)]), iqft)

    # C is the smallest reachable nonzero |eigenphase|, which maximizes the
    # post-selection probability; |C/lam| <= 1 then holds on every reachable
    # bin, and the bins where it fails are unreachable and skipped.
    register = measure_distribution(state, phase_qubits)
    reachable_nonzero = [v for v, p in register.items() if v and p > REACHABLE_TOL]
    if not reachable_nonzero:
        raise HhlError("phase register resolves only the zero eigenvalue bin")
    constant = min(abs(bin_phase(v, m)) for v in reachable_nonzero)
    state = StateVector(n, _apply_inversion(_zero_extend(state, n).amplitudes, k, m, constant))

    # The uncompute keeps all n qubits: each controlled power renormalizes
    # by the norm of both ancilla branches together.
    amps = apply_circuit(state, iqft_dag).amplitudes
    dag_powers = _squaring_chain(step.conj().T, m)
    for q, power in reversed(list(zip(phase_qubits, dag_powers))):
        _apply_controlled_block(amps, power, k, q)
        amps /= np.linalg.norm(amps)
    state = apply_circuit(StateVector(n, amps), hadamards_dag)

    selected = state.amplitudes[2 ** (k + m) :]
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

    denorm = problem.rhs_norm / (constant * 2.0 * bound) / problem.scale
    solution = project_solution(problem, aligned * denorm)
    return HhlSolution(solution, success, min(fidelity, 1.0), register)


def hhl_gate_tally(problem: HermitianProblem, config: HhlConfig = HhlConfig()) -> tuple[int, int, dict[str, int]]:
    """Gate tally of the fully unrolled pipeline, computed compositionally.

    Counts the state preparation, Hadamards, one controlled evolution per
    phase qubit (slice gates times slices * 2**j), the inverse transform,
    the inversion rotations, and the uncompute mirror, without materializing
    the (possibly huge) op list.
    """
    k = problem.n_data_qubits
    m = config.n_phase_qubits
    phase_qubits = list(range(k, k + m))

    dec = decompose_hermitian(problem.matrix)
    has_identity = any(set(lbl) == {"I"} for _, lbl in dec.terms)
    acting = HermitianDecomposition(dec.n_qubits, tuple(t for t in dec.terms if set(t[1]) != {"I"}))
    # the evolution time sets rotation angles only, never gate counts
    one_slice = trotter_circuit(EvolutionSpec(acting, 1.0, 1), controlled_by=(k, 0))
    powers = 2 * sum(2**j for j in range(m))  # estimation plus uncompute
    parts = [  # (one-qubit, two-qubit, per-kind) tallies, each with its multiplicity
        (gate_counts(state_preparation_circuit(problem.rhs)), 1),
        ((2 * m, 0, {"h": 2 * m}), 1),
        (gate_counts(one_slice), config.slices * powers),
        # the identity term collapses to one phase gate per controlled power
        ((2 * m, 0, {"u": 2 * m}) if has_identity else (0, 0, {}), 1),
        (gate_counts(inverse_qft_circuit(phase_qubits)), 2),
        (gate_counts(inversion_rotation_circuit(phase_qubits, k + m, 1.0 / 2**m)), 1),
    ]
    per: dict[str, int] = {}
    for (_, _, kinds), factor in parts:
        for kind, count in kinds.items():
            per[kind] = per.get(kind, 0) + count * factor
    return sum(p[0] * f for p, f in parts), sum(p[1] * f for p, f in parts), per
