import dataclasses
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlma import jets
from qlma.ba import (
    Camera,
    NormalEquations,
    ProjectionError,
    Scene,
    _project_generic,
    back_substitute,
    build_normal_equations,
    generate_problem,
    load_problem,
    project,
    quat_angle,
    quat_from_rotvec,
    quat_mul,
    quat_normalize,
    quat_rotate,
    residuals_and_jacobian,
    save_problem,
    schur_reduce,
    total_cost,
)


# ---------------------------------------------------------------------------
# jets
# ---------------------------------------------------------------------------

def test_jet_square_value_and_partial():
    (xj,) = jets.variables([3.0])
    y = xj * xj
    assert y.value == 9.0
    assert y.partials[0] == 6.0


def test_jet_chain_rule_through_composition():
    (xj,) = jets.variables([0.7])
    y = jets.sin(xj * xj) / (1.0 + jets.cos(xj))
    x = 0.7
    expected = (math.cos(x * x) * 2 * x * (1 + math.cos(x)) + math.sin(x * x) * math.sin(x)) / (
        1 + math.cos(x)
    ) ** 2
    assert y.partials[0] == pytest.approx(expected, rel=1e-12)


def test_jet_division_and_sqrt():
    a, b = jets.variables([2.0, 5.0])
    y = jets.sqrt(a / b)
    h = 1e-7
    fd_a = (math.sqrt((2 + h) / 5) - math.sqrt((2 - h) / 5)) / (2 * h)
    fd_b = (math.sqrt(2 / (5 + h)) - math.sqrt(2 / (5 - h))) / (2 * h)
    assert y.partials[0] == pytest.approx(fd_a, rel=1e-6)
    assert y.partials[1] == pytest.approx(fd_b, rel=1e-6)


def test_jet_comparisons_use_values():
    (xj,) = jets.variables([1.5])
    assert xj > 1.0 and xj <= 1.5 and not (xj < 0)


def test_jet_reflected_operators():
    (xj,) = jets.variables([4.0])
    y = 1.0 - xj
    assert (y.value, y.partials[0]) == (-3.0, -1.0)
    z = 2.0 / xj
    assert z.value == 0.5
    assert z.partials[0] == pytest.approx(-2.0 / 16.0)
    w = 3.0 + (-xj) * 2.0
    assert (w.value, w.partials[0]) == (-5.0, -2.0)


def test_array_jet_equals_per_element_scalar_jets():
    xs, ys = np.array([0.3, 1.7, -2.5]), np.array([4.0, 0.25, 9.0])

    def f(a, x, y):
        return jets.sqrt(a * y) + (x - a) / y - 2.0 / (x * x + 1.0) + 3.0 * a

    a, x, y = jets.variables([0.8, xs, ys])
    batched = f(a, x, y)
    assert batched.value.shape == (3,) and batched.partials.shape == (3, 3)
    for k in range(3):
        scalar = f(*jets.variables([0.8, xs[k], ys[k]]))
        assert batched.value[k] == scalar.value
        assert np.array_equal(batched.partials[:, k], scalar.partials[:, 0])


def test_array_jet_zero_divisor_raises():
    a, x = jets.variables([1.0, np.array([2.0, 0.0])])
    with pytest.raises(ZeroDivisionError):
        a / x
    with pytest.raises(ZeroDivisionError):
        jets.sqrt(x)


# ---------------------------------------------------------------------------
# quaternions
# ---------------------------------------------------------------------------

def test_rotvec_quaternion_matches_axis_angle():
    axis = np.array([0.0, 0.0, 1.0])
    angle = 0.8
    q = quat_from_rotvec(tuple(axis * angle))
    assert q[0] == pytest.approx(math.cos(angle / 2))
    assert q[3] == pytest.approx(math.sin(angle / 2))
    v = quat_rotate(q, (1.0, 0.0, 0.0))
    assert v[0] == pytest.approx(math.cos(angle))
    assert v[1] == pytest.approx(math.sin(angle))


def test_rotvec_series_branch_continuity():
    for eps in (0.0, 1e-7, 1e-4, 2e-4):
        q = quat_from_rotvec((eps, 0.0, 0.0))
        norm = math.sqrt(sum(c * c for c in q))
        assert norm == pytest.approx(1.0, abs=1e-12)
        assert q[1] == pytest.approx(math.sin(eps / 2), abs=1e-15)


def test_quat_mul_composes_rotations():
    qa = quat_from_rotvec((0.3, 0.0, 0.0))
    qb = quat_from_rotvec((0.0, 0.5, 0.0))
    v = (0.2, -0.7, 1.1)
    combined = quat_rotate(quat_mul(qa, qb), v)
    sequential = quat_rotate(qa, quat_rotate(qb, v))
    assert np.allclose(combined, sequential, atol=1e-14)


def test_quat_angle():
    q = quat_from_rotvec((0.0, 1.2, 0.0))
    assert quat_angle(q) == pytest.approx(1.2)


# ---------------------------------------------------------------------------
# projection and cost
# ---------------------------------------------------------------------------

def identity_camera():
    return Camera(np.array([1.0, 0.0, 0.0, 0.0]), np.zeros(3))


def test_camera_rejects_nan_quaternion():
    with pytest.raises(ValueError, match="unit norm"):
        Camera(np.array([math.nan, 0.0, 0.0, 0.0]), np.zeros(3))


def test_project_point_on_axis_hits_principal_point():
    cam = identity_camera()
    assert np.allclose(project(cam, np.array([0.0, 0.0, 5.0])), [0.0, 0.0])


def test_project_simple_division():
    cam = identity_camera()
    assert np.allclose(project(cam, np.array([1.0, 2.0, 2.0])), [0.5, 1.0])


def test_project_behind_camera_raises():
    with pytest.raises(ProjectionError):
        project(identity_camera(), np.array([0.0, 0.0, -1.0]))


def test_ground_truth_reprojects_exactly():
    prob = generate_problem(3)
    for (i, j), uv in prob.truth.observations.items():
        got = project(prob.truth.cameras[j], prob.observation_points[i])
        assert np.array_equal(got, uv)


def test_total_cost_zero_at_ground_truth_without_noise():
    prob = generate_problem(3, point_noise=0, camera_position_noise=0, camera_rotation_noise=0)
    assert total_cost(prob.initial) == 0.0


def test_total_cost_three_four_five():
    cam = identity_camera()
    pt = np.array([0.0, 0.0, 2.0])
    scene = Scene(pt[None, :], [cam], {(0, 0): project(cam, pt) + np.array([3.0, 4.0])})
    assert total_cost(scene) == pytest.approx(5.0)


def test_total_cost_nonnegative():
    prob = generate_problem(5)
    assert total_cost(prob.initial) >= 0.0
    assert total_cost(prob.truth) > 0.0  # observations carry keypoint noise


# ---------------------------------------------------------------------------
# residuals and jacobian
# ---------------------------------------------------------------------------

def finite_difference_jacobian(scene, theta, step=1e-6):
    r0, _ = residuals_and_jacobian(scene, theta)
    out = np.zeros((r0.size, theta.size))
    for k in range(theta.size):
        plus, minus = theta.copy(), theta.copy()
        plus[k] += step
        minus[k] -= step
        rp, _ = residuals_and_jacobian(scene, plus)
        rm, _ = residuals_and_jacobian(scene, minus)
        out[:, k] = (rp - rm) / (2 * step)
    return out


def test_jacobian_matches_finite_differences():
    prob = generate_problem(1)
    theta = prob.initial.initial_params()
    _, jac = residuals_and_jacobian(prob.initial, theta)
    fd = finite_difference_jacobian(prob.initial, theta)
    assert np.max(np.abs(jac - fd)) / np.max(np.abs(fd)) < 1e-5


def test_jacobian_away_from_zero_increment():
    prob = generate_problem(2)
    rng = np.random.default_rng(0)
    theta = prob.initial.initial_params()
    theta[:12] += rng.normal(scale=0.05, size=12)  # nonzero rotation increments
    _, jac = residuals_and_jacobian(prob.initial, theta)
    fd = finite_difference_jacobian(prob.initial, theta)
    assert np.max(np.abs(jac - fd)) / np.max(np.abs(fd)) < 1e-5


def per_observation_reference(scene, theta):
    """Residuals and Jacobian with one scalar-jet pass per observation."""
    keys = scene.observation_keys()
    nc = scene.n_camera_params
    r = np.zeros(2 * len(keys))
    jac = np.zeros((2 * len(keys), scene.n_params))
    for row, (i, j) in enumerate(keys):
        base = scene.cameras[j]
        cols = [*range(6 * j, 6 * j + 6), *range(nc + 3 * i, nc + 3 * i + 3)]
        local = jets.variables(theta[cols])
        quat = quat_normalize(quat_mul(quat_from_rotvec(local[0:3]), tuple(base.quaternion)))
        uv = _project_generic(quat, local[3:6], base.focal, tuple(base.principal_point), local[6:9])
        for comp, val in enumerate(uv):
            res = val - scene.observations[(i, j)][comp]
            r[2 * row + comp] = res.value
            jac[2 * row + comp, cols] = res.partials[:, 0]
    return r, jac


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 400),
    rotation=st.one_of(st.just((0.0,) * 6), st.tuples(*[st.floats(-0.05, 0.05)] * 6)),
    position=st.tuples(*[st.floats(-0.1, 0.1)] * 6),
)
def test_batched_jacobian_bit_identical_to_per_observation_reference(seed, rotation, position):
    scene = generate_problem(seed).initial
    theta = scene.initial_params()
    theta[[0, 1, 2, 6, 7, 8]] += rotation  # zero hits the series branch of quat_from_rotvec
    theta[[3, 4, 5, 9, 10, 11]] += position
    try:
        expected = per_observation_reference(scene, theta)
    except ProjectionError:
        with pytest.raises(ProjectionError):
            residuals_and_jacobian(scene, theta)
        return
    r, jac = residuals_and_jacobian(scene, theta)
    assert np.array_equal(r, expected[0]) and np.array_equal(jac, expected[1])


def test_residuals_zero_at_ground_truth_without_noise():
    prob = generate_problem(4, point_noise=0, camera_position_noise=0, camera_rotation_noise=0)
    r, _ = residuals_and_jacobian(prob.initial, prob.initial.initial_params())
    assert np.allclose(r, 0.0)


# ---------------------------------------------------------------------------
# normal equations and Schur reduction
# ---------------------------------------------------------------------------

def test_normal_equations_no_damping_is_gram_matrix():
    rng = np.random.default_rng(1)
    jac = rng.normal(size=(8, 5))
    r = rng.normal(size=8)
    ne = build_normal_equations(r, jac, 0.0, 0.0)
    assert np.allclose(ne.full_matrix(), jac.T @ jac)
    assert np.allclose(ne.full_gradient(), jac.T @ r)


def test_normal_equations_identity_jacobian():
    ne = build_normal_equations(np.ones(4), np.eye(4), 0.0, 1.0)
    assert np.allclose(ne.full_matrix(), 2.0 * np.eye(4))


def test_normal_equations_column_norm_scaling():
    rng = np.random.default_rng(2)
    jac = rng.normal(size=(10, 6))
    r = rng.normal(size=10)
    lam1, lam2 = 0.3, 0.05
    ne = build_normal_equations(r, jac, lam1, lam2)
    jtj = jac.T @ jac
    expected_diag = (1 + lam1) * np.diag(jtj) + lam2
    assert np.allclose(np.diag(ne.full_matrix()), expected_diag)


def test_schur_zero_coupling_reduces_to_camera_block():
    rng = np.random.default_rng(3)
    jac = np.zeros((12, 9))
    jac[:6, :6] = rng.normal(size=(6, 6))
    jac[6:, 6:] = rng.normal(size=(6, 3))
    ne = build_normal_equations(rng.normal(size=12), jac, 0.0, 0.5, m_c=6)
    s, _ = schur_reduce(ne)
    assert np.allclose(s, ne.camera_block)


def structured_jacobian(rng, n_obs=20, m_c=12, n_pts=2):
    # each residual row touches the camera block plus one point block
    jac = np.zeros((2 * n_obs, m_c + 3 * n_pts))
    for row in range(n_obs):
        pt = row % n_pts
        jac[2 * row : 2 * row + 2, :m_c] = rng.normal(size=(2, m_c))
        jac[2 * row : 2 * row + 2, m_c + 3 * pt : m_c + 3 * pt + 3] = rng.normal(size=(2, 3))
    return jac


def test_schur_matches_full_solve():
    rng = np.random.default_rng(4)
    jac = structured_jacobian(rng)
    r = rng.normal(size=jac.shape[0])
    ne = build_normal_equations(r, jac, 0.1, 1e-6, m_c=12)
    full = np.linalg.solve(ne.full_matrix(), -ne.full_gradient())
    s, rhs = schur_reduce(ne)
    cam = np.linalg.solve(s, -rhs)
    pts = back_substitute(ne, cam)
    assert np.allclose(np.concatenate([cam, pts]), full, atol=1e-10)


def test_schur_system_is_twelve_by_twelve():
    prob = generate_problem(1)
    r, jac = residuals_and_jacobian(prob.initial, prob.initial.initial_params())
    ne = build_normal_equations(r, jac, 0.01, 0.01, m_c=prob.initial.n_camera_params)
    s, _ = schur_reduce(ne)
    assert s.shape == (12, 12)
    assert len(ne.point_blocks) == 10


def test_large_damping_step_is_descent_direction():
    from qlma.optimizer import LinearBackend, _apply_increment, lma_step

    for seed in (1, 2, 3):
        prob = generate_problem(seed)
        scene = prob.initial
        cost = total_cost(scene)
        r, jac = residuals_and_jacobian(scene, scene.initial_params())
        step = lma_step(r, jac, 1e6, 1e-9, LinearBackend("classical-dense"), m_c=12)
        assert total_cost(_apply_increment(scene, step)) < cost


def test_point_blocks_are_block_diagonal():
    prob = generate_problem(2)
    r, jac = residuals_and_jacobian(prob.initial, prob.initial.initial_params())
    ne = build_normal_equations(r, jac, 0.0, 1e-8, m_c=12)
    full = ne.full_matrix()
    pts = full[12:, 12:]
    for i in range(10):
        for j in range(10):
            if i != j:
                assert np.allclose(pts[3 * i : 3 * i + 3, 3 * j : 3 * j + 3], 0.0)


def dense_normal_equations_reference(residuals, jacobian, lam1, lam2, m_c):
    """The dense assembly: full J^T J, damped, then sliced into blocks."""
    jtj = jacobian.T @ jacobian
    n = jtj.shape[0]
    dtd = np.maximum(np.diag(jtj), 1e-12)
    h = jtj + lam1 * np.diag(dtd) + lam2 * np.eye(n)
    g = jacobian.T @ residuals
    n_pts = (n - m_c) // 3
    blocks = np.zeros((n_pts, 3, 3))
    for i in range(n_pts):
        s = m_c + 3 * i
        blocks[i] = h[s : s + 3, s : s + 3]
    return NormalEquations(h[:m_c, :m_c], blocks, h[:m_c, m_c:], g[:m_c], g[m_c:], m_c)


def loop_schur_reference(ne):
    """Schur reduction one point block at a time."""
    s = ne.camera_block.copy()
    rhs = ne.grad_cam.copy()
    for i, blk in enumerate(ne.point_blocks):
        e_i = ne.coupling[:, 3 * i : 3 * i + 3]
        inv = np.linalg.inv(blk)
        s -= e_i @ inv @ e_i.T
        rhs -= e_i @ inv @ ne.grad_pts[3 * i : 3 * i + 3]
    return s, rhs


def loop_back_substitute_reference(ne, delta_cam):
    """Back-substitution one point block at a time."""
    out = np.zeros(3 * len(ne.point_blocks))
    for i, blk in enumerate(ne.point_blocks):
        e_i = ne.coupling[:, 3 * i : 3 * i + 3]
        out[3 * i : 3 * i + 3] = -np.linalg.solve(blk, ne.grad_pts[3 * i : 3 * i + 3] + e_i.T @ delta_cam)
    return out


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 400),
    perturb=st.one_of(st.none(), st.integers(0, 2**32 - 1)),
    lam1=st.floats(1e-4, 1e2),
    lam2=st.sampled_from([0.0, 1e-8, 1e-4, 0.01]),
)
def test_block_normal_equations_bit_identical_to_dense_reference(seed, perturb, lam1, lam2):
    scene = generate_problem(seed).initial
    theta = scene.initial_params()
    if perturb is not None:
        theta += np.random.default_rng(perturb).uniform(-0.02, 0.02, size=theta.size)
    try:
        r, jac = residuals_and_jacobian(scene, theta)
    except ProjectionError:
        return
    ne = build_normal_equations(r, jac, lam1, lam2, m_c=12)
    expected = dense_normal_equations_reference(r, jac, lam1, lam2, 12)
    for name in ("camera_block", "point_blocks", "coupling", "grad_cam", "grad_pts"):
        assert getattr(ne, name).tobytes() == getattr(expected, name).tobytes(), name
    s, rhs = schur_reduce(ne)
    s_ref, rhs_ref = loop_schur_reference(expected)
    assert s.tobytes() == s_ref.tobytes() and rhs.tobytes() == rhs_ref.tobytes()
    cam = np.linalg.solve(s, -rhs)
    assert back_substitute(ne, cam).tobytes() == loop_back_substitute_reference(expected, cam).tobytes()


def test_jacobian_row_touching_two_point_blocks_raises():
    jac = structured_jacobian(np.random.default_rng(5))
    jac[3, 12] = 1.0  # row 3 observes point 1 and now also touches point 0
    with pytest.raises(ValueError, match="not 3x3 block diagonal"):
        build_normal_equations(np.ones(jac.shape[0]), jac, 0.1, 0.0, m_c=12)


def test_singular_point_block_names_its_index():
    jac = structured_jacobian(np.random.default_rng(6), n_pts=3)
    jac[:, 12 + 3 * 2 :] = 0.0  # point 2 is never observed
    ne = build_normal_equations(np.ones(jac.shape[0]), jac, 0.0, 0.0, m_c=12)
    with pytest.raises(np.linalg.LinAlgError, match="singular 3x3 point block 2"):
        schur_reduce(ne)


def test_schur_without_points_returns_a_copy():
    jac = np.random.default_rng(7).normal(size=(8, 5))
    ne = build_normal_equations(np.ones(8), jac, 0.1, 0.0)
    s, rhs = schur_reduce(ne)
    assert np.array_equal(s, ne.camera_block) and not np.shares_memory(s, ne.camera_block)
    assert np.array_equal(rhs, ne.grad_cam) and not np.shares_memory(rhs, ne.grad_cam)


def test_singular_point_block_rejects_the_candidate(monkeypatch):
    from qlma import optimizer
    from qlma.optimizer import SETUPS, LinearBackend, optimize

    real = optimizer.build_normal_equations

    def unobserved_point(residuals, jacobian, lam1, lam2, m_c=None):
        ne = real(residuals, jacobian, lam1, lam2, m_c=m_c)
        ne.point_blocks[4] = 0.0
        return ne

    monkeypatch.setattr(optimizer, "build_normal_equations", unobserved_point)
    trace = optimize(generate_problem(1), SETUPS[1], LinearBackend("classical-schur"), max_iters=2)
    assert [rec.accepted for rec in trace.records] == [False, False]
    assert all(rec.step_norm == 0.0 for rec in trace.records)


# ---------------------------------------------------------------------------
# generation and serialization
# ---------------------------------------------------------------------------

def test_generation_deterministic():
    a, b = generate_problem(6), generate_problem(6)
    assert np.array_equal(a.truth.points, b.truth.points)
    assert np.array_equal(a.initial.cameras[0].quaternion, b.initial.cameras[0].quaternion)
    for key in a.truth.observations:
        assert np.array_equal(a.truth.observations[key], b.truth.observations[key])


@pytest.mark.parametrize("seed", [29, 100])
def test_generation_redraws_jitter_that_puts_a_point_behind_a_camera(seed):
    prob = generate_problem(seed)
    assert np.all(np.abs(prob.observation_points - prob.truth.points) <= 0.5)
    for (i, j), uv in prob.truth.observations.items():
        assert np.array_equal(project(prob.truth.cameras[j], prob.observation_points[i]), uv)


def test_generation_seeds_differ():
    assert not np.array_equal(generate_problem(1).truth.points, generate_problem(2).truth.points)


def test_point_coordinates_within_noise_bounds():
    for seed in range(1, 6):
        prob = generate_problem(seed)
        assert np.all(np.abs(prob.truth.points) <= 2.0)
        assert np.all(np.abs(prob.observation_points) <= 2.5)


def test_observation_indices_complete():
    prob = generate_problem(7)
    assert set(prob.truth.observations) == {(i, j) for i in range(10) for j in range(2)}


def test_camera_quaternions_unit_norm():
    prob = generate_problem(8)
    for cam in prob.truth.cameras + prob.initial.cameras:
        assert abs(np.linalg.norm(cam.quaternion) - 1.0) < 1e-12


def test_keypoint_noise_mode():
    prob = generate_problem(9, noise_on="keypoints")
    assert np.array_equal(prob.observation_points, prob.truth.points)
    clean = generate_problem(9, noise_on="keypoints", point_noise=0.0)
    assert total_cost(clean.truth) == 0.0


def test_saved_problem_replays_identically(tmp_path):
    from qlma.optimizer import SETUPS, LinearBackend, optimize

    prob = generate_problem(2)
    path = tmp_path / "problem.txt"
    save_problem(prob, path)
    replayed = load_problem(path)
    direct = optimize(prob, SETUPS[2], LinearBackend("classical-schur"), 10)
    again = optimize(replayed, SETUPS[2], LinearBackend("classical-schur"), 10)
    assert np.array_equal(direct.costs(), again.costs())


def test_load_problem_names_missing_record(tmp_path):
    path = tmp_path / "problem.txt"
    save_problem(generate_problem(5), path)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(line for line in lines if not line.startswith("init_camera")))
    with pytest.raises(ValueError, match="missing init_camera record 0"):
        load_problem(path)


def test_problem_round_trip(tmp_path):
    prob = generate_problem(5)
    path = tmp_path / "problem.txt"
    save_problem(prob, path)
    loaded = load_problem(path)
    assert loaded.seed == prob.seed
    assert np.array_equal(loaded.truth.points, prob.truth.points)
    assert np.array_equal(loaded.observation_points, prob.observation_points)
    for j in range(2):
        assert np.array_equal(loaded.truth.cameras[j].quaternion, prob.truth.cameras[j].quaternion)
        assert np.array_equal(loaded.initial.cameras[j].position, prob.initial.cameras[j].position)
    for key, uv in prob.truth.observations.items():
        assert np.array_equal(loaded.truth.observations[key], uv)
    assert total_cost(loaded.initial) == total_cost(prob.initial)


def _problem_fields(problem):
    """Every field of a problem, cameras and observations included, as
    (name, shape, bytes)."""
    def field(name, value):
        value = np.asarray(value)
        return name, value.shape, value.dtype, value.tobytes()

    out = [field("seed", problem.seed), field("observation_points", problem.observation_points)]
    for name, scene in (("truth", problem.truth), ("initial", problem.initial)):
        out.append(field(f"{name}.points", scene.points))
        for j, cam in enumerate(scene.cameras):
            for f in dataclasses.fields(cam):
                out.append(field(f"{name}.cameras[{j}].{f.name}", getattr(cam, f.name)))
        out.extend(field(f"{name}.observations[{key}]", uv) for key, uv in sorted(scene.observations.items()))
    return out


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 200), noise_on=st.sampled_from(["points3d", "keypoints"]))
def test_problem_round_trip_is_bit_equal(seed, noise_on):
    problem = generate_problem(seed, noise_on=noise_on)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "problem.txt")
        save_problem(problem, path)
        loaded = load_problem(path)
    assert _problem_fields(loaded) == _problem_fields(problem)


def _saved_lines(tmp_path):
    path = tmp_path / "problem.txt"
    save_problem(generate_problem(5), path)
    return path, path.read_text().splitlines()


def test_load_problem_names_line_of_malformed_number(tmp_path):
    path, lines = _saved_lines(tmp_path)
    number = next(i for i, line in enumerate(lines, 1) if line.startswith("point 3 "))
    lines[number - 1] = "point 3 1.0 abc 2.0"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"problem.txt:{number}: malformed point record: .*'abc'"):
        load_problem(path)


def test_load_problem_names_line_of_short_record(tmp_path):
    path, lines = _saved_lines(tmp_path)
    number = next(i for i, line in enumerate(lines, 1) if line.startswith("init_camera 1 "))
    lines[number - 1] = lines[number - 1].rsplit(" ", 1)[0]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"problem.txt:{number}: init_camera record needs 11 fields, got 10"):
        load_problem(path)
