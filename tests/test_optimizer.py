import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qlma.optimizer as opt
from qlma.ba import ProjectionError, build_normal_equations, generate_problem, residuals_and_jacobian, total_cost
from qlma.hhl import HERMITIAN_TOL, HhlConfig, HhlError, embed_problem
from qlma.optimizer import (
    BACKEND_KINDS,
    SETUPS,
    DampingConfig,
    LinearBackend,
    hhl_system,
    lma_step,
    optimize,
    update_damping,
    write_trace_csv,
)

from reference import read_trace_csv

SETUP1 = SETUPS[1]
SETUP2 = SETUPS[2]


# ---------------------------------------------------------------------------
# damping update
# ---------------------------------------------------------------------------

def test_table_setups():
    assert (SETUP1.lambda1_init, SETUP1.lambda2, SETUP1.lambda_up, SETUP1.lambda_down) == (
        0.01, 0.01, 1.5, 0.7,
    )
    assert (SETUP2.lambda1_init, SETUP2.lambda2, SETUP2.lambda_up, SETUP2.lambda_down) == (
        0.0001, 0.0001, 1.1, 0.9,
    )


def test_damping_increases_on_direction_change():
    assert update_damping(0.5, 1.0, -100.0, SETUP1) == pytest.approx(0.5 * 1.5)


def test_damping_decreases_on_strong_reduction():
    assert update_damping(0.5, -1.0, -0.9, SETUP1) == pytest.approx(0.5 * 0.7)


def test_damping_unchanged_between_thresholds():
    assert update_damping(0.5, -1.0, -0.3, SETUP1) == 0.5


def test_damping_increases_on_tiny_reduction():
    # reduction smaller than a quarter of |omega|
    assert update_damping(0.5, -1.0, -0.1, SETUP1) == pytest.approx(0.5 * 1.5)


def test_damping_is_pure():
    args = (0.123, -0.4, -0.15, SETUP2)
    assert update_damping(*args) == update_damping(*args)


@settings(max_examples=200, deadline=None)
@given(
    lam=st.floats(1e-8, 1e8),
    omega=st.floats(-1e6, 1e6),
    dcosts=st.lists(st.one_of(st.floats(-1e6, 1e6), st.just(math.inf)), min_size=2, max_size=6),
    setup=st.sampled_from([1, 2]),
)
def test_damping_update_never_falls_as_cost_change_grows(lam, omega, dcosts, setup):
    cfg = SETUPS[setup]
    results = [update_damping(lam, omega, d, cfg) for d in sorted(dcosts)]
    assert set(results) <= {lam * cfg.lambda_up, lam, lam * cfg.lambda_down}
    assert results == sorted(results)


def test_damping_config_validation():
    with pytest.raises(ValueError):
        DampingConfig(0.01, 0.01, 0.9, 0.7)
    with pytest.raises(ValueError):
        DampingConfig(-1.0, 0.01, 1.5, 0.7)


# ---------------------------------------------------------------------------
# linear step
# ---------------------------------------------------------------------------

def test_step_identity_jacobian_is_negative_residual():
    r = np.array([1.0, -2.0, 0.5])
    step = lma_step(build_normal_equations(r, np.eye(3), 0.0, 0.0), LinearBackend("classical-dense"))
    assert np.allclose(step, -r)


def test_step_large_damping_limits_to_scaled_gradient():
    rng = np.random.default_rng(0)
    jac = rng.normal(size=(12, 6))
    r = rng.normal(size=12)
    lam1 = 1e8
    step = lma_step(build_normal_equations(r, jac, lam1, 0.0), LinearBackend("classical-dense"))
    dtd = np.diag(jac.T @ jac)
    expected = -(jac.T @ r) / (lam1 * dtd)
    assert np.allclose(step, expected, rtol=1e-6)


def test_step_backends_match_on_bundle_problem():
    prob = generate_problem(1)
    r, jac = residuals_and_jacobian(prob.initial, prob.initial.initial_params())
    dense = lma_step(build_normal_equations(r, jac, 0.01, 0.01, m_c=12), LinearBackend("classical-dense"))
    schur = lma_step(build_normal_equations(r, jac, 0.01, 0.01, m_c=12), LinearBackend("classical-schur"))
    assert np.allclose(dense, schur, atol=1e-10)


def test_hhl_step_matches_classical_on_well_conditioned_system():
    prob = generate_problem(1)
    r, jac = residuals_and_jacobian(prob.initial, prob.initial.initial_params())
    lam2 = 1e4  # condition number about 1 + ||JtJ|| / lam2
    classical = lma_step(build_normal_equations(r, jac, 1.0, lam2, m_c=12), LinearBackend("classical-dense"))
    quantum = lma_step(build_normal_equations(r, jac, 1.0, lam2, m_c=12), LinearBackend("hhl"))
    assert np.linalg.norm(quantum - classical) / np.linalg.norm(classical) < 5e-2


def test_hhl_system_absorbs_roundoff_asymmetry():
    prob = generate_problem(1)
    r, jac = residuals_and_jacobian(prob.initial, prob.initial.initial_params())
    ne = build_normal_equations(r, jac, 0.01, 0.01, m_c=12)
    eps = 10 * HERMITIAN_TOL * np.max(np.abs(ne.camera_block))
    ne.camera_block[0, 1] += eps
    ne.camera_block[1, 0] -= eps
    s, rhs = opt.schur_reduce(ne)
    with pytest.raises(HhlError, match="not symmetric"):
        embed_problem(s, -rhs)
    problem = hhl_system(ne)
    expected = embed_problem((s + s.T) / 2.0, -rhs, force_dilation=True)
    assert problem.matrix.tobytes() == expected.matrix.tobytes()
    assert problem.rhs.tobytes() == expected.rhs.tobytes() and problem.rhs_norm == expected.rhs_norm
    assert problem.matrix[:12, 16:28].tobytes() == ((s + s.T) / 2.0).tobytes()  # the dilation's upper block


@pytest.mark.parametrize("kind", BACKEND_KINDS)
def test_normal_equations_are_assembled_once_per_iteration(monkeypatch, kind):
    assembled, solved = [], []
    build, step = opt.build_normal_equations, opt.lma_step
    monkeypatch.setattr(opt, "build_normal_equations", lambda *a, **k: assembled.append(build(*a, **k)) or assembled[-1])
    monkeypatch.setattr(opt, "lma_step", lambda ne, backend: solved.append(ne) or step(ne, backend))
    trace = optimize(generate_problem(1), SETUP1, LinearBackend(kind), 4)
    assert len(assembled) == len(solved) == len(trace.records) == 4
    assert all(a is s for a, s in zip(assembled, solved))


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="three phase qubits quantize eigenvalues to half-bin accuracy of "
    "at best 1/6 relative at the top bin, so the solver-grade step cannot "
    "track the classical step to 10% along realistic trajectories",
)
def test_backend_agreement_ten_percent_invariant():
    matched = total = 0
    for seed in range(1, 10):
        prob = generate_problem(seed)
        trace = optimize(prob, SETUP1, LinearBackend("classical-schur"), 40)
        scene = prob.initial
        r, jac = residuals_and_jacobian(scene, scene.initial_params())
        for record in trace.records:
            ne = build_normal_equations(r, jac, record.lambda1, 0.01, m_c=12)
            classical = lma_step(ne, LinearBackend("classical-schur"))
            quantum = lma_step(ne, LinearBackend("hhl"))
            total += 1
            if np.linalg.norm(quantum - classical) / np.linalg.norm(classical) < 0.10:
                matched += 1
    assert matched / total >= 0.80


# ---------------------------------------------------------------------------
# full optimization loop
# ---------------------------------------------------------------------------

def test_zero_noise_terminates_immediately():
    prob = generate_problem(1, point_noise=0, camera_position_noise=0, camera_rotation_noise=0)
    trace = optimize(prob, SETUP1, LinearBackend("classical-dense"))
    assert len(trace.records) == 1
    assert trace.records[0].cost == 0.0


def test_single_iteration_trace():
    prob = generate_problem(1)
    trace = optimize(prob, SETUP1, LinearBackend("classical-schur"), max_iters=1)
    assert len(trace.records) == 1
    assert trace.records[0].iteration == 1


def test_setup2_cost_strictly_decreases_initially():
    prob = generate_problem(3)
    trace = optimize(prob, SETUP2, LinearBackend("classical-schur"), 15)
    costs = [total_cost(prob.initial)] + list(trace.costs())
    accepted = [r.accepted for r in trace.records]
    for i in range(min(6, len(trace.records))):
        if accepted[i]:
            assert costs[i + 1] < costs[i]


def test_iterations_strictly_increasing_and_costs_finite():
    prob = generate_problem(2)
    trace = optimize(prob, SETUP1, LinearBackend("classical-schur"), 40)
    its = [r.iteration for r in trace.records]
    assert its == sorted(set(its))
    assert np.all(np.isfinite(trace.costs()))


def test_dense_and_schur_traces_identical():
    for seed in (1, 2):
        prob = generate_problem(seed)
        t_dense = optimize(prob, SETUP1, LinearBackend("classical-dense"), 40)
        t_schur = optimize(prob, SETUP1, LinearBackend("classical-schur"), 40)
        assert np.allclose(t_dense.costs(), t_schur.costs(), atol=1e-8)


def test_hhl_backend_improves_cost():
    for seed in (1, 4):
        prob = generate_problem(seed)
        trace = optimize(prob, SETUP1, LinearBackend("hhl"), 40)
        assert trace.final_cost() < total_cost(prob.initial)


def test_hhl_backend_uses_config():
    prob = generate_problem(1)
    backend = LinearBackend("hhl", HhlConfig(n_phase_qubits=4, slices=8))
    trace = optimize(prob, SETUP1, backend, 3)
    assert len(trace.records) == 3
    assert all(r.backend == "hhl" for r in trace.records)


def _failing(error, first_call=None):
    """A stand-in that raises `error`; the first call goes to `first_call` if given."""
    calls = []

    def stand_in(*args, **kwargs):
        calls.append(None)
        if first_call is not None and len(calls) == 1:
            return first_call(*args, **kwargs)
        raise error("injected failure")

    return stand_in


@pytest.mark.parametrize("failure", ["hhl_solve", "lma_step", "total_cost"])
def test_candidate_that_cannot_be_evaluated_becomes_rejected_iteration(monkeypatch, failure):
    # each error the loop catches keeps the state and cost and raises lambda1
    if failure == "hhl_solve":
        backend = LinearBackend("hhl")
        monkeypatch.setattr(opt, "hhl_solve", _failing(HhlError))
    elif failure == "lma_step":
        backend = LinearBackend("classical-schur")
        monkeypatch.setattr(opt, "lma_step", _failing(np.linalg.LinAlgError))
    else:
        backend = LinearBackend("classical-schur")
        # the initial cost is evaluated outside the loop's guard
        monkeypatch.setattr(opt, "total_cost", _failing(ProjectionError, first_call=opt.total_cost))
    linearized_at = []
    jacobian = opt.residuals_and_jacobian
    monkeypatch.setattr(
        opt, "residuals_and_jacobian", lambda scene, params: linearized_at.append(params) or jacobian(scene, params)
    )
    prob = generate_problem(1)
    trace = optimize(prob, SETUP1, backend, 5)
    assert len(trace.records) == 5
    assert all(not r.accepted and r.step_norm == 0.0 for r in trace.records)
    assert trace.costs().tolist() == [total_cost(prob.initial)] * 5
    assert len(linearized_at) == 5
    for params in linearized_at:
        assert np.array_equal(params, prob.initial.initial_params())
    lams = [r.lambda1 for r in trace.records]
    assert lams == pytest.approx([SETUP1.lambda1_init * SETUP1.lambda_up**i for i in range(5)])


def test_quaternions_stay_normalized_through_updates():
    prob = generate_problem(5)
    damping = SETUP2
    backend = LinearBackend("classical-schur")
    trace = optimize(prob, damping, backend, 10)
    assert len(trace.records) >= 1
    # run manually to inspect the final scene state
    scene = prob.initial
    rng = np.random.default_rng(0)
    for _ in range(5):
        scene = scene.moved(rng.normal(scale=0.01, size=scene.n_params))
        for cam in scene.cameras:
            assert abs(np.linalg.norm(cam.quaternion) - 1.0) < 1e-12


def test_non_finite_initial_cost_is_rejected():
    problem = generate_problem(1)
    problem.initial.keypoints[0, 0] = math.inf
    with pytest.raises(ValueError, match="initial cost is not finite: inf"):
        optimize(problem, SETUP1, LinearBackend("classical-schur"), max_iters=1)


def test_optimize_stops_once_the_cost_reaches_zero():
    # exact points and camera orientations: the positions converge to a
    # cost at or below ZERO_COST well before the iteration limit
    problem = generate_problem(4, point_noise=0, camera_position_noise=0.01, camera_rotation_noise=0.0)
    trace = optimize(problem, SETUP2, LinearBackend("classical-schur"), max_iters=40)
    last = trace.records[-1]
    assert len(trace.records) < 40
    assert last.accepted and last.cost <= opt.ZERO_COST


def test_invalid_backend_rejected():
    with pytest.raises(ValueError):
        LinearBackend("quantum-annealer")
    with pytest.raises(ValueError):
        optimize(generate_problem(1), SETUP1, LinearBackend("classical-dense"), max_iters=0)


# ---------------------------------------------------------------------------
# trace CSV
# ---------------------------------------------------------------------------

def test_trace_csv_round_trip(tmp_path):
    prob = generate_problem(1)
    trace = optimize(prob, SETUP1, LinearBackend("classical-schur"), 5)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    loaded = read_trace_csv(path)
    assert loaded.problem == trace.problem
    assert len(loaded.records) == len(trace.records)
    for a, b in zip(loaded.records, trace.records):
        assert a.iteration == b.iteration
        assert a.cost == b.cost
        assert a.lambda1 == b.lambda1
        assert a.accepted == b.accepted
        assert a.seconds == 0.0  # zeroed for reproducibility


def test_trace_csv_header(tmp_path):
    prob = generate_problem(1)
    trace = optimize(prob, SETUP1, LinearBackend("classical-schur"), 2)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    header = path.read_text().splitlines()[0]
    assert header == "problem,iteration,cost,lambda1,omega,step_norm,accepted,backend,seconds"


def test_trace_csv_timing_flag(tmp_path):
    prob = generate_problem(1)
    trace = optimize(prob, SETUP1, LinearBackend("classical-schur"), 2)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path, record_timing=True)
    loaded = read_trace_csv(path)
    assert any(r.seconds > 0.0 for r in loaded.records)
