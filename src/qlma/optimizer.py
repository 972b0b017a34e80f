"""Adjusted Levenberg-Marquardt loop with a pluggable linear-step backend.

The damping parameter lambda1 is driven by omega, the mean over parameters
of the elementwise product of the current gradient and the previously
applied step.  lambda2 enters both the damped matrix and the step mixing
theta' = theta + (1 - w) * step + w * previous_step with w = l2 / (1 + l2).
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .ba import (
    BaProblem,
    NormalEquations,
    ProjectionError,
    back_substitute,
    build_normal_equations,
    residuals_and_jacobian,
    schur_reduce,
    total_cost,
)
from .hhl import HermitianProblem, HhlConfig, _hhl_lambda_bound, embed_problem, hhl_solve
from .sim import SimulationError

ZERO_COST = 1e-12
MIN_STEP_NORM = 1e-12

TRACE_COLUMNS = ("problem", "iteration", "cost", "lambda1", "omega", "step_norm", "accepted", "backend", "seconds")


@dataclass(frozen=True)
class DampingConfig:
    """Initial damping, constant mixing damping, and update multipliers."""

    lambda1_init: float
    lambda2: float
    lambda_up: float
    lambda_down: float

    def __post_init__(self):
        if not (self.lambda_up > 1.0 > self.lambda_down > 0.0):
            raise ValueError("need lambda_up > 1 > lambda_down > 0")
        if self.lambda1_init <= 0.0 or self.lambda2 < 0.0:
            raise ValueError("initial damping values must be positive")


SETUPS = {
    1: DampingConfig(0.01, 0.01, 1.5, 0.7),
    2: DampingConfig(0.0001, 0.0001, 1.1, 0.9),
}

BACKEND_KINDS = ("classical-dense", "classical-schur", "hhl")


@dataclass(frozen=True)
class LinearBackend:
    """Which solver produces the damped step."""

    kind: str
    hhl: HhlConfig = field(default_factory=HhlConfig)

    def __post_init__(self):
        if self.kind not in BACKEND_KINDS:
            raise ValueError(f"backend kind must be one of {BACKEND_KINDS}")


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    cost: float
    lambda1: float
    omega: float
    step_norm: float
    accepted: bool
    backend: str
    seconds: float


@dataclass
class ConvergenceTrace:
    problem: str
    records: list[IterationRecord] = field(default_factory=list)

    def costs(self) -> np.ndarray:
        return np.array([r.cost for r in self.records])

    def final_cost(self) -> float:
        return self.records[-1].cost


def update_damping(lambda1: float, omega: float, dcost_sq: float, cfg: DampingConfig) -> float:
    """One multiplicative damping update.

    dcost_sq is the change (new - old) of the squared total cost.  Raise
    damping on a direction change (omega > 0) or a too-small reduction;
    lower it on a strong reduction; otherwise keep it.
    """
    if omega > 0.0 or dcost_sq > omega / 4.0:
        return lambda1 * cfg.lambda_up
    if dcost_sq < omega / 2.0:
        return lambda1 * cfg.lambda_down
    return lambda1


def hhl_system(ne: NormalEquations, config: HhlConfig) -> tuple[HermitianProblem, HhlConfig]:
    """The hhl step's system, the Schur-reduced camera system symmetrized (embed_problem rejects the
    reduction's roundoff asymmetry) and dilated, and its solver config: config, with a lambda_bound of
    None set to the eigvalsh bound that puts the top eigenvalue on the next-to-top bin (_hhl_lambda_bound)."""
    s, rhs = schur_reduce(ne)
    problem = embed_problem((s + s.T) / 2.0, -rhs, force_dilation=True)
    if config.lambda_bound is None:
        config = replace(config, lambda_bound=_hhl_lambda_bound(problem.matrix, config.n_phase_qubits))
    return problem, config


def lma_step(ne: NormalEquations, backend: LinearBackend) -> np.ndarray:
    """Solve the damped normal equations ne for the step with the given backend.

    The Schur backends reduce onto the camera block first; the hhl backend
    additionally routes the reduced system through the quantum solver and
    back-substitutes the point steps classically.
    """
    if backend.kind == "classical-dense":
        return np.linalg.solve(ne.full_matrix(), -ne.full_gradient())
    if backend.kind == "classical-schur":
        s, rhs = schur_reduce(ne)
        delta_cam = np.linalg.solve(s, -rhs)
    else:
        delta_cam = hhl_solve(*hhl_system(ne, backend.hhl)).solution
    return np.concatenate([delta_cam, back_substitute(ne, delta_cam)])


def optimize(
    problem: BaProblem,
    damping: DampingConfig,
    backend: LinearBackend,
    max_iters: int = 40,
) -> ConvergenceTrace:
    """Run the damped loop from the problem's initial guess.

    Every iteration is recorded, under the trace name str(problem.seed).
    Candidate steps are applied unconditionally, so the cost can move
    uphill and aggressive damping schedules can oscillate or diverge; a
    candidate is only rejected when it cannot be evaluated at all
    (projection failure, lost post-selection, singular system), which
    keeps the state and raises lambda1 through the regular damping
    update.  Camera quaternions are re-normalized on every applied step.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    scene = problem.initial
    trace = ConvergenceTrace(str(problem.seed))
    cost = total_cost(scene)
    if not math.isfinite(cost):
        raise ValueError(f"initial cost is not finite: {cost}")
    if cost <= ZERO_COST:
        trace.records.append(IterationRecord(0, cost, damping.lambda1_init, 0.0, 0.0, True, backend.kind, 0.0))
        return trace

    lam1 = damping.lambda1_init
    prev_step = np.zeros(scene.n_params)
    mix = damping.lambda2 / (1.0 + damping.lambda2)

    for iteration in range(1, max_iters + 1):
        started = time.perf_counter()
        r, jac = residuals_and_jacobian(scene, scene.initial_params())
        ne = build_normal_equations(r, jac, lam1, damping.lambda2, m_c=scene.n_camera_params)
        omega = float(ne.full_gradient() @ prev_step) / scene.n_params if iteration > 1 else 0.0
        lam_used = lam1
        try:
            raw_step = lma_step(ne, backend)
            step = (1.0 - mix) * raw_step + mix * prev_step
            candidate = scene.moved(step)
            cand_cost = total_cost(candidate)
        except (SimulationError, ProjectionError, np.linalg.LinAlgError):
            cand_cost = math.inf
            step = np.zeros(scene.n_params)
            candidate = scene
        accepted = math.isfinite(cand_cost)
        dcost_sq = cand_cost * cand_cost - cost * cost if accepted else math.inf
        lam1 = update_damping(lam1, omega, dcost_sq, damping)
        if accepted:
            scene = candidate
            cost = cand_cost
            prev_step = step
        step_norm = float(np.linalg.norm(step))
        trace.records.append(
            IterationRecord(
                iteration, cost, lam_used, omega, step_norm, accepted, backend.kind,
                time.perf_counter() - started,
            )
        )
        if accepted and (step_norm < MIN_STEP_NORM or cost <= ZERO_COST):
            break
    return trace


def write_trace_csv(trace: ConvergenceTrace, path, record_timing: bool = False) -> None:
    """Write one trace; timings are zeroed unless requested, keeping the
    file a pure function of the run configuration."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for r in trace.records:
            writer.writerow(
                [
                    trace.problem,
                    r.iteration,
                    repr(r.cost),
                    repr(r.lambda1),
                    repr(r.omega),
                    repr(r.step_norm),
                    int(r.accepted),
                    r.backend,
                    f"{r.seconds:.6f}" if record_timing else "0.000000",
                ]
            )
