import dataclasses
import decimal
import hashlib
import math
import operator
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference import (
    component_variables,
    project_generic,
    quat_from_rotvec,
    quat_mul,
    quat_normalize,
    quat_rotate,
    rotate_by,
)

from qlma import ba, jets
from qlma.ba import (
    Camera,
    NormalEquations,
    ProjectionError,
    Scene,
    _norm,
    back_substitute,
    build_normal_equations,
    generate_problem,
    load_problem,
    project,
    quat_angle,
    residuals_and_jacobian,
    save_problem,
    schur_reduce,
    total_cost,
)


# ---------------------------------------------------------------------------
# jets
# ---------------------------------------------------------------------------

def test_jet_square_value_and_partial():
    (xj,) = component_variables([3.0])
    y = xj * xj
    assert y.value == 9.0
    assert y.partials[0] == 6.0


def test_jet_chain_rule_through_composition():
    (xj,) = component_variables([0.7])
    y = jets.sin(xj * xj) / (1.0 + jets.cos(xj))
    x = 0.7
    expected = (math.cos(x * x) * 2 * x * (1 + math.cos(x)) + math.sin(x * x) * math.sin(x)) / (
        1 + math.cos(x)
    ) ** 2
    assert y.partials[0] == pytest.approx(expected, rel=1e-12)


def test_jet_division_and_sqrt():
    a, b = component_variables([2.0, 5.0])
    y = jets.sqrt(a / b)
    h = 1e-7
    fd_a = (math.sqrt((2 + h) / 5) - math.sqrt((2 - h) / 5)) / (2 * h)
    fd_b = (math.sqrt(2 / (5 + h)) - math.sqrt(2 / (5 - h))) / (2 * h)
    assert y.partials[0] == pytest.approx(fd_a, rel=1e-6)
    assert y.partials[1] == pytest.approx(fd_b, rel=1e-6)


def test_jet_comparisons_use_values():
    (xj,) = component_variables([1.5])
    assert xj > 1.0 and xj <= 1.5 and not (xj < 0)


def test_jet_reflected_operators():
    (xj,) = component_variables([4.0])
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

    a, x, y = component_variables([0.8, xs, ys])
    batched = f(a, x, y)
    assert batched.value.shape == (3,) and batched.partials.shape == (3, 3)
    for k in range(3):
        scalar = f(*component_variables([0.8, xs[k], ys[k]]))
        assert batched.value[k] == scalar.value
        assert np.array_equal(batched.partials[:, k], scalar.partials[:, 0])


def test_array_jet_zero_divisor_raises():
    a, x = component_variables([1.0, np.array([2.0, 0.0])])
    with pytest.raises(ZeroDivisionError):
        a / x
    with pytest.raises(ZeroDivisionError):
        jets.sqrt(x)


@pytest.mark.parametrize("function", ["sqrt", "sin", "cos"])
def test_jet_functions_map_a_plain_array_to_an_array_per_element(function):
    x = np.array([[0.0, -0.0, 4.0], [9.0, 1e-300, 2.25]])
    out = getattr(jets, function)(x)
    assert type(out) is np.ndarray and out.shape == x.shape
    assert out.tobytes() == np.array([[getattr(math, function)(v) for v in row] for row in x.tolist()]).tobytes()
    if function != "sqrt":  # a stacked jet's 2-D value takes the same per-element path (sqrt has no derivative at 0)
        assert getattr(jets, function)(jets.variables(x)).value.tobytes() == out.tobytes()


def test_where_without_a_jet_operand_gives_an_array():
    cond = np.array([[True, False], [False, True]])
    a, b = np.array([[1.0, -0.0], [2.0, -0.0]]), np.array([[0.0, -5.0], [-0.0, 0.0]])
    out = jets.where(cond, a, b)
    assert type(out) is np.ndarray and out.tobytes() == np.array([[1.0, -5.0], [-0.0, -0.0]]).tobytes()
    assert isinstance(jets.where(cond, a, jets.Jet(b, np.zeros((1, 2, 2)))), jets.Jet)


def test_stacked_jet_indexing_keeps_the_component_axis():
    local = jets.variables(np.vstack([np.arange(6.0).reshape(3, 2), np.ones((2, 2))]))
    w, p = local[0:3], local[3:5]
    assert w.partials.shape == (5, 3, 2) and p.partials.shape == (5, 2, 2)
    assert np.array_equal(w.partials[:, :, 1], np.eye(5)[:, 0:3])
    assert np.array_equal(p.partials[:, :, 0], np.eye(5)[:, 3:5])
    first, swapped = w[0:1], w.take(np.array([2, 0]), 0)
    assert first.value.shape == (1, 2) and first.partials.shape == (5, 1, 2)
    assert np.array_equal(swapped.value, w.value[[2, 0]]) and np.array_equal(swapped.partials, w.partials[:, [2, 0]])
    joined = jets.concatenate([first, swapped])
    assert joined.value.shape == (3, 2) and np.array_equal(joined.partials[:, 1:], swapped.partials)


def test_signed_negates_value_and_partials_exactly():
    # times -1.0, a jet's partials become value * 0 + (-1.0) * partials: +0.0 where the negation has -0.0
    jet = jets.Jet(np.array([2.0, -3.0]), np.array([[0.0, -0.0], [1.5, 0.0]]))
    out = jets.signed(jet, np.array([-1.0, 1.0]))
    assert out.value.tobytes() == np.array([-2.0, -3.0]).tobytes()
    assert out.partials.tobytes() == np.array([[-0.0, -0.0], [-1.5, 0.0]]).tobytes()
    assert (jet * -1.0).partials[0, 0].tobytes() == np.float64(0.0).tobytes()
    stacked = jets.variables(np.array([[1.0, -0.0], [2.0, 3.0]]))
    out = jets.signed(stacked, np.array([-1.0, 1.0]))  # signs broadcast over the trailing (B,) axis
    assert out.value.tobytes() == np.array([[-1.0, 0.0], [2.0, 3.0]]).tobytes()
    expected = np.concatenate([-stacked.partials[:, :1], stacked.partials[:, 1:]], axis=1)
    assert out.partials.tobytes() == expected.tobytes()


OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
# signed zeros, negatives and large magnitudes; bounded so no operation overflows or divides by a subnormal
finite = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(1e-30, 1e30), st.floats(-1e30, -1e-30))


def _outcome(op, left, right):
    try:
        out = OPERATORS[op](left, right)
    except ZeroDivisionError:
        return "ZeroDivisionError"
    value = np.asarray(out.value)
    return value.shape, value.tobytes(), out.partials.shape, out.partials.tobytes()


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    op=st.sampled_from(sorted(OPERATORS)),
    jet_first=st.booleans(),
    array_jet=st.booleans(),
    array_constant=st.booleans(),
)
def test_constant_operand_bytes_match_explicit_zero_partials_jet(data, op, jet_first, array_jet, array_constant):
    def draw(size):
        return np.array(data.draw(st.lists(finite, min_size=size, max_size=size))) if size else data.draw(finite)

    jet = jets.Jet(draw(3), draw(6).reshape(2, 3)) if array_jet else jets.Jet(draw(0), draw(2).reshape(2, 1))
    const = draw(3 if array_constant else 0)
    explicit = jets.Jet(const, np.zeros(np.broadcast_shapes(jet.partials.shape, np.shape(const))))
    pair, reference = ((jet, const), (jet, explicit)) if jet_first else ((const, jet), (explicit, jet))
    assert _outcome(op, *pair) == _outcome(op, *reference)


@pytest.mark.parametrize("op", sorted(OPERATORS))
@pytest.mark.parametrize("jet_first", [True, False], ids=["jet-first", "array-first"])
def test_array_constant_gives_elementwise_jet(op, jet_first):
    const = np.array([1.0, -2.0, 0.5])

    def apply(c, x):
        return OPERATORS[op](x, c) if jet_first else OPERATORS[op](c, x)

    out = apply(const, component_variables([3.0, 0.25])[0])
    assert isinstance(out, jets.Jet) and out.value.shape == (3,) and out.partials.shape == (2, 3)
    for k, c in enumerate(const):
        scalar = apply(float(c), component_variables([3.0, 0.25])[0])
        assert out.value[k] == scalar.value
        assert np.array_equal(out.partials[:, k], scalar.partials[:, 0])


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


def _jet_bytes(jet, k=None):
    """A jet's value and partials as bytes; with k, those of element k of an array jet."""
    if k is None:
        return np.float64(jet.value).tobytes(), jet.partials[:, 0].tobytes()
    return np.float64(jet.value[k]).tobytes(), jet.partials[:, k].tobytes()


series_component = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-5e-5, 5e-5))  # 3 of these: angle^2 < 1e-8
exact_component = st.floats(-2.0, 2.0)
rotation = st.one_of(st.tuples(*[series_component] * 3), st.tuples(*[exact_component] * 3))


@settings(max_examples=200, deadline=None)
@given(
    increments=st.lists(rotation, min_size=1, max_size=6),
    quaternion=st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(lambda q: sum(c * c for c in q) > 0.01),
)
def test_array_rotate_by_bytes_match_per_element_scalar_jets(increments, quaternion):
    # each element takes its own branch of quat_from_rotvec, as a scalar jet would: series, exact or mixed
    w = np.array(increments).T
    q = np.array([quaternion] * len(increments)).T * np.linspace(0.5, 1.5, len(increments))  # one per element
    batched = ba.rotate_by(jets.variables(w), q)
    for k in range(len(increments)):
        scalar = rotate_by(component_variables(w[:, k]), tuple(q[:, k]))
        assert [_jet_bytes(batched[c], k) for c in range(4)] == [_jet_bytes(c) for c in scalar]


STACKED_KINDS = ("float", "array", "float jet", "array jet")
signed_zero = st.sampled_from([0.0, -0.0])
quat_component = st.one_of(signed_zero, st.floats(-1.0, 1.0))
coordinate = st.one_of(signed_zero, st.floats(-2.0, 2.0))


def _kind_inputs(kind, blocks):
    """Per-component and stacked forms of (k, B) blocks as one kind of input: the float kinds take column 0,
    and the jet kinds seed every block's components together, so their partials span all of them."""
    blocks = [b[:, 0] for b in blocks] if kind.startswith("float") else blocks
    if not kind.endswith("jet"):
        return [tuple(b.tolist()) if kind == "float" else tuple(b) for b in blocks], blocks
    values, ends = np.concatenate(blocks), np.cumsum([len(b) for b in blocks])
    flat, stacked = component_variables(values), jets.variables(values)
    spans = [slice(end - len(b), end) for b, end in zip(blocks, ends)]
    return [tuple(flat[span]) for span in spans], [stacked[span] for span in spans]


def _component_bytes(components):
    """Value bytes, and partials bytes for a jet, of each component in turn."""
    return [
        (np.asarray(c.value).tobytes(), c.partials.tobytes()) if isinstance(c, jets.Jet) else np.asarray(c).tobytes()
        for c in components
    ]


def _assert_same_bytes(per_component, stacked):
    assert _component_bytes(per_component) == _component_bytes(stacked[k] for k in range(len(per_component)))


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(STACKED_KINDS), size=st.integers(1, 4), data=st.data())
def test_stacked_helpers_bytes_match_the_per_component_reference(kind, size, data):
    # floats, arrays, float jets and array jets; series, exact and (over arrays) mixed branches; signed zeros
    size = 1 if kind.startswith("float") else size

    def draw_columns(strategy):  # one drawn column per element: (components, size), or (size,) for a number
        return np.array(data.draw(st.lists(strategy, min_size=size, max_size=size))).T

    quaternion = st.tuples(*[quat_component] * 4).filter(lambda q: sum(c * c for c in q) > 0.01)
    vector = st.tuples(*[coordinate] * 3)
    w, position, point = (draw_columns(s) for s in (rotation, vector, vector))
    point[2] += 4.0  # mostly in front of the camera; a point behind it must raise in both forms
    q, focal, pp = (draw_columns(s) for s in (quaternion, st.floats(0.5, 2.0), st.tuples(coordinate, coordinate)))
    constant_kind = kind.split()[0]  # a jet kind's constants: floats or arrays
    (q_ref, pp_ref), (q_st, pp_st) = _kind_inputs(constant_kind, [q, pp])
    focal = float(focal[0]) if constant_kind == "float" else focal
    (w_ref, position_ref, point_ref), (w_st, position_st, point_st) = _kind_inputs(kind, [w, position, point])

    _assert_same_bytes(quat_from_rotvec(w_ref), ba.quat_from_rotvec(w_st))
    _assert_same_bytes(quat_normalize(q_ref), ba.quat_normalize(q_st))
    rotated_ref, rotated_st = rotate_by(w_ref, q_ref), ba.rotate_by(w_st, q_st)
    _assert_same_bytes(rotated_ref, rotated_st)
    _assert_same_bytes(quat_mul(rotated_ref, rotated_ref), ba.quat_mul(rotated_st, rotated_st))
    _assert_same_bytes(quat_rotate(rotated_ref, point_ref), ba.quat_rotate(rotated_st, point_st))
    try:
        uv_ref = project_generic(rotated_ref, position_ref, focal, pp_ref, point_ref)
    except ProjectionError:
        with pytest.raises(ProjectionError):
            ba._project_generic(rotated_st, position_st, focal, pp_st, point_st)
        return
    _assert_same_bytes(uv_ref, ba._project_generic(rotated_st, position_st, focal, pp_st, point_st))


@pytest.mark.parametrize("function", ["sin", "cos"])
def test_array_jet_sin_and_cos_are_libm_per_element(function):
    x = np.array([0.0, -0.0, 1e-300, 5e-5, 0.5, -1.25, 3.0, 1e5, -7.77e7])
    (jet,) = component_variables([x])
    out = getattr(jets, function)(jet)
    derivative = {"sin": math.cos, "cos": lambda v: -math.sin(v)}[function]
    assert out.value.tobytes() == np.array([getattr(math, function)(v) for v in x]).tobytes()
    assert out.partials.tobytes() == np.array([[derivative(v) for v in x]]).tobytes()


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


@pytest.mark.parametrize("seed", [1, 29, 100])
def test_project_of_point_array_equals_stacked_single_points(seed):
    prob = generate_problem(seed, n_points=25)
    for cam in prob.truth.cameras + prob.initial.cameras:
        for points in (prob.observation_points, prob.truth.points):
            uv = project(cam, points)
            assert uv.shape == (25, 2)
            assert uv.tobytes() == np.stack([project(cam, p) for p in points]).tobytes()
    assert project(identity_camera(), np.zeros((0, 3))).shape == (0, 2)


def test_point_behind_the_camera_inside_an_array_raises():
    cam = identity_camera()
    points = np.array([[0.0, 0.0, 2.0], [1.0, -1.0, -0.5], [1.0, 1.0, 3.0]])  # the middle one is behind
    with pytest.raises(ProjectionError):
        project(cam, points)
    scene = Scene(points, [cam], [(i, 0) for i in range(3)], np.zeros((3, 2)))
    with pytest.raises(ProjectionError):
        total_cost(scene)


def test_ground_truth_reprojects_exactly():
    prob = generate_problem(3)
    for (i, j), uv in zip(prob.truth.pairs, prob.truth.keypoints):
        got = project(prob.truth.cameras[j], prob.observation_points[i])
        assert np.array_equal(got, uv)


def test_total_cost_zero_at_ground_truth_without_noise():
    prob = generate_problem(3, point_noise=0, camera_position_noise=0, camera_rotation_noise=0)
    assert total_cost(prob.initial) == 0.0


@pytest.mark.parametrize(
    "pairs, keypoints, message",
    [
        ([(0, 0), (-1, 0)], np.zeros((2, 2)), r"^observation \(-1, 0\) references a missing point or camera$"),
        ([(0, 0), (0, -1)], np.zeros((2, 2)), r"^observation \(0, -1\) references a missing point or camera$"),
        ([(0, 0), (2, 0)], np.zeros((2, 2)), r"^observation \(2, 0\) references a missing point or camera$"),
        ([(1, 0), (0, 1)], np.zeros((2, 2)), r"^observation \(0, 1\) references a missing point or camera$"),
        ([(0, 0), (1, 0)], np.zeros((1, 2)), r"^2 observation pairs but 1 keypoints$"),
    ],
    ids=["negative-point", "negative-camera", "point-out-of-range", "camera-out-of-range", "keypoint-count"],
)
def test_scene_rejects_observations_it_cannot_hold(pairs, keypoints, message):
    points = np.array([[0.0, 0.0, 2.0], [1.0, 0.0, 3.0]])
    with pytest.raises(ValueError, match=message):
        Scene(points, [identity_camera()], pairs, keypoints)


def test_total_cost_three_four_five():
    cam = identity_camera()
    pt = np.array([0.0, 0.0, 2.0])
    scene = Scene(pt[None, :], [cam], [(0, 0)], [project(cam, pt) + np.array([3.0, 4.0])])
    assert total_cost(scene) == pytest.approx(5.0)


def per_observation_cost_reference(scene):
    """The cost one observation at a time, in observation order from 0.0, squaring by multiplication."""
    cost = 0.0
    for (i, j), uv in zip(scene.pairs, scene.keypoints):
        cam = scene.cameras[j]
        du, dv = project_generic(cam.quaternion, cam.position, cam.focal, cam.principal_point, scene.points[i])
        cost += math.sqrt((uv[0] - du) * (uv[0] - du) + (uv[1] - dv) * (uv[1] - dv))
    return cost


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 400),
    noise_on=st.sampled_from(["points3d", "keypoints"]),
    shift=st.tuples(*[st.floats(-0.3, 0.3)] * 3),
)
def test_total_cost_bit_identical_to_per_observation_reference(seed, noise_on, shift):
    prob = generate_problem(seed, noise_on=noise_on)
    moved = Scene(prob.initial.points + np.array(shift), prob.initial.cameras, prob.initial.pairs, prob.initial.keypoints)
    for scene in (prob.truth, prob.initial, moved):
        try:
            expected = per_observation_cost_reference(scene)
        except ProjectionError:
            with pytest.raises(ProjectionError):
                total_cost(scene)
            continue
        assert np.float64(total_cost(scene)).tobytes() == np.float64(expected).tobytes()


def test_total_cost_bytes_match_pinned_digests():
    # the cost of every scene is pinned: any change in the projection, the distance or the summation order shows here
    digest = hashlib.sha256()
    for noise_on in ("points3d", "keypoints"):
        for seed in range(1, 10):
            prob = generate_problem(seed, noise_on=noise_on)
            for scene in (prob.truth, prob.initial):
                digest.update(np.float64(total_cost(scene)).tobytes())
    assert digest.hexdigest() == "691cf4159f9c253112478ca27608e157f68290bfa71e40c43b5b90224b76aceb"


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
    keys = scene.pairs.tolist()
    nc = scene.n_camera_params
    r = np.zeros(2 * len(keys))
    jac = np.zeros((2 * len(keys), scene.n_params))
    for row, (i, j) in enumerate(keys):
        base = scene.cameras[j]
        cols = [*range(6 * j, 6 * j + 6), *range(nc + 3 * i, nc + 3 * i + 3)]
        local = component_variables(theta[cols])
        quat = quat_normalize(quat_mul(quat_from_rotvec(local[0:3]), tuple(base.quaternion)))
        uv = project_generic(quat, local[3:6], base.focal, tuple(base.principal_point), local[6:9])
        for comp, val in enumerate(uv):
            res = val - scene.keypoints[row][comp]
            r[2 * row + comp] = res.value
            jac[2 * row + comp, cols] = res.partials[:, 0]
    return r, jac


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 400),
    rotation=st.one_of(st.just((0.0,) * 6), st.just((-0.0,) * 6), st.tuples(*[st.floats(-0.05, 0.05)] * 6)),
    position=st.tuples(*[st.floats(-0.1, 0.1)] * 6),
    zeros=st.one_of(st.none(), st.tuples(*[st.sampled_from((0.0, -0.0))] * 4)),
)
@example(seed=3, rotation=(0.0, 0.0, 0.0, 0.01, -0.02, 0.03), position=(0.0,) * 6, zeros=None)  # camera 0 alone at +0.0
# -0.0 takes the constant jet too: the reference's increment value (1, -0.0, -0.0, -0.0) changes no byte
@example(seed=3, rotation=(-0.0,) * 6, position=(0.0,) * 6, zeros=None)
@example(seed=3, rotation=(-0.0,) * 6, position=(0.0,) * 6, zeros=(-0.0, 0.0, 0.0, -0.0))
@example(seed=5, rotation=(0.0, -0.0, 0.0, -0.0, 0.0, -0.0), position=(0.0,) * 6, zeros=(-0.0, -0.0, 0.0, 0.0))
def test_batched_jacobian_bit_identical_to_per_observation_reference(seed, rotation, position, zeros):
    """`zeros`, when drawn, are the y and z components of the two cameras' quaternions: each camera then turns
    about the x axis alone, as the generator's nearly do, so signed zeros meet the increment in quat_mul."""
    scene = generate_problem(seed).initial
    if zeros is not None:
        wx = [cam.quaternion[:2] / np.linalg.norm(cam.quaternion[:2]) for cam in scene.cameras]
        scene.cameras = [dataclasses.replace(cam, quaternion=[*wx[j], *zeros[2 * j : 2 * j + 2]])
                         for j, cam in enumerate(scene.cameras)]
    theta = scene.initial_params()
    theta[[0, 1, 2, 6, 7, 8]] = rotation  # set, not added, so that -0.0 stays; all +0.0 is LM's constant jet
    theta[[3, 4, 5, 9, 10, 11]] += position
    try:
        expected = per_observation_reference(scene, theta)
    except ProjectionError:
        with pytest.raises(ProjectionError):
            residuals_and_jacobian(scene, theta)
        return
    r, jac = residuals_and_jacobian(scene, theta)
    assert r.tobytes() == expected[0].tobytes() and jac.tobytes() == expected[1].tobytes()


@pytest.mark.parametrize("n_obs", [1, 2, 20, 37])
def test_zero_increment_is_quat_from_rotvec_at_positive_zero(n_obs):
    values = np.random.default_rng(n_obs).normal(size=(9, n_obs))
    values[0:3] = 0.0
    expected = ba.quat_from_rotvec(jets.variables(values)[0:3])
    constant = ba._zero_increment(n_obs)
    assert constant.value.tobytes() == expected.value.tobytes()
    assert constant.partials.tobytes() == expected.partials.tobytes()
    values[0:3] = -0.0  # the value differs here, (1, -0.0, -0.0, -0.0), but no r or J byte does (test above)
    assert ba.quat_from_rotvec(jets.variables(values)[0:3]).value.tobytes() != constant.value.tobytes()


def test_jacobian_and_step_evaluate_only_the_rotation_forms_they_take(monkeypatch):
    """A Jacobian at zero rotation increments, +0.0 or -0.0, builds their constant jet without quat_from_rotvec, and
    moving cameras that all turn by more than the series' range calls jets.where not at all."""
    calls = {"quat_from_rotvec": 0, "where": 0}

    def spy(module, name):
        def counting(*args, inner=getattr(module, name)):
            calls[name] += 1
            return inner(*args)

        monkeypatch.setattr(module, name, counting)

    scene = generate_problem(1).initial  # the generator's own rotations are not counted
    spy(ba, "quat_from_rotvec")
    spy(jets, "where")
    step = np.zeros(scene.n_params)
    step[[0, 1, 2, 6, 7, 8]] = [0.2, 0.0, 0.0, 0.0, -2e-4, 0.0]  # angles squared 4e-2 and 4e-8
    assert min(0.2**2, 2e-4**2) > ba.SMALL_ANGLE_SQ
    scene.moved(step)
    assert calls["where"] == 0
    step[7] = -1e-5  # camera 1 now on the series branch: a mixed array, merged per element
    scene.moved(step)
    assert calls["where"] == 3
    theta = scene.initial_params()
    residuals_and_jacobian(scene, theta)
    assert calls["quat_from_rotvec"] == 2  # still the two steps' calls: none at +0.0 increments
    theta[[1, 6, 8]] = -0.0
    residuals_and_jacobian(scene, theta)
    assert calls["quat_from_rotvec"] == 2  # nor at a mix of +0.0 and -0.0
    theta[6:9] = [0.01, -0.02, 0.03]
    residuals_and_jacobian(scene, theta)
    assert calls["quat_from_rotvec"] == 3


def test_rotations_of_no_cameras_or_observations_are_empty():
    assert ba.quat_from_rotvec(np.zeros((3, 0))).shape == (4, 0)
    scene = Scene(np.zeros((1, 3)), [], [], [])
    assert scene.moved(np.ones(3)).cameras == []
    r, jac = residuals_and_jacobian(scene, np.ones(3))
    assert r.shape == (0,) and jac.shape == (0, 3)


def test_jacobian_bytes_match_pinned_digests():
    # r and J bytes are pinned: any change in the jet arithmetic or the scatter order shows here
    digest = hashlib.sha256()
    for seed in range(1, 10):
        scene = generate_problem(seed).initial
        for array in residuals_and_jacobian(scene, scene.initial_params()):
            digest.update(array.tobytes())
    assert digest.hexdigest() == "a99a8ffe29844c57c63f3f894ba7097faca6e5ef9da59b4141c9084453839665"
    scene = generate_problem(2).initial
    theta = scene.initial_params()
    theta[[0, 1, 2]] += [0.01, -0.02, 0.03]  # camera 0 on the exact branch, camera 1 on the series branch
    r, jac = residuals_and_jacobian(scene, theta)
    assert hashlib.sha256(r.tobytes() + jac.tobytes()).hexdigest() == (
        "de1fd85bf48cc4b7600ddea1c7698556704ae683adee40f9d602c5787370cff6"
    )


def test_moved_camera_bytes_match_pinned_digest():
    # quaternions and positions after a step are pinned: both cameras series, one of each, both exact
    digest = hashlib.sha256()
    for seed in range(1, 10):
        scene = generate_problem(seed).initial
        rng = np.random.default_rng(seed)
        for rotation in (
            [0.0, -0.0, 0.0, 1e-5, -2e-5, -0.0],
            [0.01, -0.02, 0.03, -0.0, 4e-5, 0.0],
            [0.2, 0.1, -0.3, -0.05, 0.0, 0.07],
        ):
            step = rng.normal(scale=0.05, size=scene.n_params)
            step[[0, 1, 2, 6, 7, 8]] = rotation
            for cam in scene.moved(step).cameras:
                digest.update(cam.quaternion.tobytes() + cam.position.tobytes())
    assert digest.hexdigest() == "72572314a94a304ab0af39c1d0dc6a77a4af1b256330dd9a41f33b8c1c060549"


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
    from qlma.optimizer import LinearBackend, lma_step

    for seed in (1, 2, 3):
        prob = generate_problem(seed)
        scene = prob.initial
        cost = total_cost(scene)
        r, jac = residuals_and_jacobian(scene, scene.initial_params())
        step = lma_step(build_normal_equations(r, jac, 1e6, 1e-9, m_c=12), LinearBackend("classical-dense"))
        assert total_cost(scene.moved(step)) < cost


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


@pytest.mark.parametrize(
    "lam1, lam2, m_c, message",
    [
        (-0.1, 0.0, 12, "damping parameters must be nonnegative"),
        (0.1, -1e-9, 12, "damping parameters must be nonnegative"),
        (0.1, 0.0, 11, "point parameter count is not a multiple of three"),
    ],
    ids=["negative-lambda1", "negative-lambda2", "ragged-point-block"],
)
def test_normal_equations_reject_bad_damping_or_layout(lam1, lam2, m_c, message):
    jac = structured_jacobian(np.random.default_rng(5))
    with pytest.raises(ValueError, match=message):
        build_normal_equations(np.ones(jac.shape[0]), jac, lam1, lam2, m_c=m_c)


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

@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=4))
def test_generator_norm_rounds_each_fma_once(v):
    exact = decimal.Context(prec=decimal.MAX_PREC)  # products and sums of floats without rounding
    expected = v[0] * v[0]
    for x in map(decimal.Decimal, v[1:]):
        expected = float(exact.add(exact.multiply(x, x), decimal.Decimal(expected)))  # one rounding per fma
    assert _norm(v) == math.sqrt(expected)


def test_generation_deterministic():
    a, b = generate_problem(6), generate_problem(6)
    assert np.array_equal(a.truth.points, b.truth.points)
    assert np.array_equal(a.initial.cameras[0].quaternion, b.initial.cameras[0].quaternion)
    assert np.array_equal(a.truth.pairs, b.truth.pairs)
    assert np.array_equal(a.truth.keypoints, b.truth.keypoints)


@pytest.mark.parametrize("seed", [29, 100])
def test_generation_redraws_jitter_that_puts_a_point_behind_a_camera(seed):
    prob = generate_problem(seed)
    assert np.all(np.abs(prob.observation_points - prob.truth.points) <= 0.5)
    for (i, j), uv in zip(prob.truth.pairs, prob.truth.keypoints):
        assert np.array_equal(project(prob.truth.cameras[j], prob.observation_points[i]), uv)


def test_generation_seeds_differ():
    assert not np.array_equal(generate_problem(1).truth.points, generate_problem(2).truth.points)


def test_generation_rejects_an_unknown_noise_target():
    with pytest.raises(ValueError, match="noise_on must be 'points3d' or 'keypoints'"):
        generate_problem(1, noise_on="pixels")


@pytest.mark.parametrize("n_points", [0, -1, 2.5, 2.0, True, "3", None])
def test_generation_rejects_a_point_count_that_is_not_a_positive_integer(n_points):
    with pytest.raises(ValueError, match=rf"^n_points must be a positive integer, got {re.escape(repr(n_points))}$"):
        generate_problem(1, n_points=n_points)


def test_look_at_rotations_stay_far_from_a_half_turn():
    # _rotation_to_quat keeps only the trace formula, which needs w well above zero
    ws = [cam.quaternion[0] for seed in range(50) for n in (1, 2, 10) for cam in generate_problem(seed, n).truth.cameras]
    assert min(ws) > 0.13


def test_point_coordinates_within_noise_bounds():
    for seed in range(1, 6):
        prob = generate_problem(seed)
        assert np.all(np.abs(prob.truth.points) <= 2.0)
        assert np.all(np.abs(prob.observation_points) <= 2.5)


def test_observation_indices_complete():
    prob = generate_problem(7)
    assert set(map(tuple, prob.truth.pairs.tolist())) == {(i, j) for i in range(10) for j in range(2)}


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


def test_load_problem_without_point_records_names_the_file(tmp_path):
    path = tmp_path / "problem.txt"
    path.write_text("# qlma problem v1\nseed 4\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: no point records$"):
        load_problem(path)


def test_load_problem_names_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "problem.txt"
    save_problem(generate_problem(5), path)
    path.write_bytes(path.read_bytes() + b"# \xff\xfe\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: not UTF-8 text"):
        load_problem(path)


def test_obs_records_in_any_order_load_to_the_same_observations(tmp_path):
    saved, backwards = tmp_path / "saved.txt", tmp_path / "backwards.txt"
    save_problem(generate_problem(4), saved)
    lines = saved.read_text().splitlines(keepends=True)
    obs = [line for line in lines if line.startswith("obs ")]
    backwards.write_text("".join(line for line in lines if not line.startswith("obs ")) + "".join(reversed(obs)))
    a, b = load_problem(saved), load_problem(backwards)
    for scene_a, scene_b in ((a.truth, b.truth), (a.initial, b.initial)):
        assert scene_a.pairs.tobytes() == scene_b.pairs.tobytes()
        assert scene_a.keypoints.tobytes() == scene_b.keypoints.tobytes()
        assert np.float64(total_cost(scene_a)).tobytes() == np.float64(total_cost(scene_b)).tobytes()


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
    assert np.array_equal(loaded.truth.pairs, prob.truth.pairs)
    assert np.array_equal(loaded.truth.keypoints, prob.truth.keypoints)
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
        out += [field(f"{name}.pairs", scene.pairs), field(f"{name}.keypoints", scene.keypoints)]
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
def test_load_problem_names_line_of_unknown_record(tmp_path):
    path, lines = _saved_lines(tmp_path)
    path.write_text("\n".join(lines + ["pixel 0 1.0 2.0"]) + "\n")
    with pytest.raises(ValueError, match=f"problem.txt:{len(lines) + 1}: unknown record 'pixel'"):
        load_problem(path)


@pytest.mark.parametrize("prefix", ["seed ", "point 0 ", "obs 0 0 ", "init_camera 1 "])
def test_load_problem_rejects_repeated_record(tmp_path, prefix):
    path, lines = _saved_lines(tmp_path)
    first = next(i for i, line in enumerate(lines, 1) if line.startswith(prefix))
    path.write_text("\n".join(lines + [lines[first - 1]]) + "\n")
    name = re.escape(prefix.strip())
    with pytest.raises(ValueError, match=f"problem.txt:{len(lines) + 1}: repeated {name} record, first on line {first}"):
        load_problem(path)


@pytest.mark.parametrize(
    "tag, counted",
    [("obs_point", "point"), ("init_point", "point"), ("init_camera", "camera"), ("obs", "point"), ("obs", "camera")],
)
def test_load_problem_rejects_record_beyond_the_count(tmp_path, tag, counted):
    path, lines = _saved_lines(tmp_path)
    count = sum(line.startswith(f"{counted} ") for line in lines)
    fields = next(line for line in lines if line.startswith(f"{tag} 0 ")).split()
    fields[2 if (tag, counted) == ("obs", "camera") else 1] = str(count)
    name = " ".join(fields[1:3] if tag == "obs" else fields[1:2])
    path.write_text("\n".join(lines + [" ".join(fields)]) + "\n")
    with pytest.raises(
        ValueError, match=f"problem.txt:{len(lines) + 1}: {tag} record {name} is out of range for {count} {counted} records"
    ):
        load_problem(path)


@pytest.mark.parametrize("tag", ["point", "camera"])
def test_load_problem_rejects_negative_index(tmp_path, tag):
    path, lines = _saved_lines(tmp_path)
    fields = next(line for line in lines if line.startswith(f"{tag} 0 ")).split()
    path.write_text("\n".join(lines + [" ".join([tag, "-1", *fields[2:]])]) + "\n")
    with pytest.raises(ValueError, match=f"problem.txt:{len(lines) + 1}: negative index in {tag} -1 record"):
        load_problem(path)


@pytest.mark.parametrize("prefix", ["point 3 ", "camera 1 ", "obs 2 1 ", "init_point 0 "])
@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_load_problem_rejects_non_finite_number(tmp_path, prefix, bad):
    path, lines = _saved_lines(tmp_path)
    number = next(i for i, line in enumerate(lines, 1) if line.startswith(prefix))
    lines[number - 1] = lines[number - 1].rsplit(" ", 1)[0] + f" {bad}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"problem.txt:{number}: non-finite number in {prefix.split()[0]} record"):
        load_problem(path)


@pytest.mark.parametrize("tag", ["camera", "init_camera"])
def test_load_problem_names_line_of_non_unit_quaternion(tmp_path, tag):
    path, lines = _saved_lines(tmp_path)
    number = next(i for i, line in enumerate(lines, 1) if line.startswith(f"{tag} 1 "))
    fields = lines[number - 1].split()
    fields[2] = "2.0"  # the quaternion's real part
    lines[number - 1] = " ".join(fields)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"problem.txt:{number}: {tag} record 1: camera quaternion must be unit norm"):
        load_problem(path)
