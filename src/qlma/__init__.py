"""Hybrid quantum-classical Levenberg-Marquardt bundle adjustment testbed."""

from .ba import (
    BaProblem,
    Camera,
    NormalEquations,
    ProjectionError,
    Scene,
    back_substitute,
    build_normal_equations,
    generate_problem,
    load_problem,
    project,
    residuals_and_jacobian,
    save_problem,
    schur_reduce,
    total_cost,
)
from .hhl import (
    HermitianProblem,
    HhlConfig,
    HhlError,
    HhlSolution,
    embed_problem,
    hhl_gate_tally,
    hhl_solve,
)
from .jets import Jet
from .noise import ErrorRates, RATE_PRESETS, repeated_success, success_probability
from .optimizer import (
    SETUPS,
    ConvergenceTrace,
    DampingConfig,
    LinearBackend,
    lma_step,
    optimize,
    update_damping,
    write_trace_csv,
)
from .sim import SimulationError
from .trotter import (
    EvolutionSpec,
    HermitianDecomposition,
    decompose_hermitian,
)

__version__ = "0.1.0"
