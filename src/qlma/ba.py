"""Toy bundle adjustment: scene generation, pinhole projection, residuals,
jet-based Jacobians, and Schur reduction of the damped normal equations.

Parameter vector layout (theta), for c cameras and n points:

    [cam 0: rotation increment w (3), position (3)] ... [cam c-1: ...]
    [point 0: xyz] ... [point n-1: xyz]

The rotation increment composes onto the camera's stored quaternion
(R(w) * R(q)); quaternions themselves are state, not free parameters, so
the camera block stays at 6 parameters per camera.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import jets

SMALL_ANGLE_SQ = 1e-8
CAMERA_RADIUS = 2.8  # generated cameras sit on this circle around the origin
CAMERA_SEPARATION_DEG = 8.0  # angle between the two generated cameras, seen from the origin
NOISE_TARGETS = ("points3d", "keypoints")  # what generate_problem jitters


# ---------------------------------------------------------------------------
# Quaternion helpers, generic over floats, arrays and jets, each stacked on a leading component axis.
# ---------------------------------------------------------------------------

_MUL_SIGNS = np.array([[1.0, 1.0, 1.0, 1.0], [-1.0, 1.0, -1.0, 1.0], [-1.0, 1.0, 1.0, -1.0], [-1.0, -1.0, 1.0, 1.0]])
_MUL_PARTNER = np.arange(4)[:, None] ^ np.arange(4)
_CROSS = np.array([[1, 2, 0], [2, 0, 1]])  # a x b is a[1 2 0] * b[2 0 1] - a[2 0 1] * b[1 2 0]


def quat_mul(a, b):
    """Hamilton product of stacked quaternions: term t of component c is a[t] * b[t ^ c], all 16 in one product,
    signed exactly and summed left to right as the expanded formula reads (x - y is x + (-y) in IEEE 754)."""
    terms = jets.signed(a[:, None] * b.take(_MUL_PARTNER, 0), _MUL_SIGNS)
    return terms[0] + terms[1] + terms[2] + terms[3]


def quat_from_rotvec(w):
    """Unit quaternion of stacked axis-angle vectors: series form near zero, exact form elsewhere, each
    computed only if some element takes it, and merged per element with `jets.where` only over a mixed array."""
    sq3 = w * w
    angle_sq = sq3[0:1] + sq3[1:2] + sq3[2:3]
    small = angle_sq < SMALL_ANGLE_SQ
    n_small, n = np.count_nonzero(small), small.size
    if n_small or not n:  # an empty array takes the series, as every element of it is small
        sq = angle_sq * angle_sq
        qw, half = 1.0 - angle_sq / 8.0 + sq / 384.0, 0.5 - angle_sq / 48.0 + sq / 3840.0
    if n_small < n:  # the exact form divides by the angle, so it gets 1.0 where the series applies
        angle = jets.sqrt(jets.where(small, 1.0, angle_sq) if n_small else angle_sq)
        exact = jets.cos(angle * 0.5), jets.sin(angle * 0.5) / angle
        qw, half = (jets.where(small, qw, exact[0]), jets.where(small, half, exact[1])) if n_small else exact
    return jets.concatenate([qw, w * half])


def quat_normalize(q):
    sq = q * q
    return q * (1.0 / jets.sqrt(sq[0:1] + sq[1:2] + sq[2:3] + sq[3:4]))


def rotate_by(w, q):
    """The rotation q followed by the axis-angle rotation w, R(w) * R(q), as a renormalized quaternion."""
    return quat_normalize(quat_mul(quat_from_rotvec(w), q))


def _cross(a, b):
    products = a.take(_CROSS, 0) * b.take(_CROSS[::-1], 0)
    return products[0] - products[1]


def quat_rotate(q, v):
    """Rotate stacked vectors v by unit quaternions q (two cross products)."""
    t = 2.0 * _cross(q[1:4], v)
    return v + q[0:1] * t + _cross(q[1:4], t)


def quat_angle(q) -> float:
    """Rotation angle of a unit quaternion, in [0, pi]."""
    vec = math.sqrt(q[1] ** 2 + q[2] ** 2 + q[3] ** 2)
    return 2.0 * math.atan2(vec, abs(q[0]))


def _rotation_to_quat(r: np.ndarray) -> np.ndarray:
    # The trace formula alone suffices: _look_at's cameras sit at y = 2.8 sin(86°) > 2, beyond
    # any centroid of [-2, 2]^3, so f_y < 0, r_x > 0 and 1 + trace = (1 + f_z)(1 + r_x) > 0.07: w > 0.13.
    w = math.sqrt(1.0 + r[0, 0] + r[1, 1] + r[2, 2]) / 2.0
    q = np.array([w, (r[2, 1] - r[1, 2]) / (4 * w), (r[0, 2] - r[2, 0]) / (4 * w), (r[1, 0] - r[0, 1]) / (4 * w)])
    return q / _norm(q)


def _norm(v) -> float:
    """Euclidean norm as sqrt(fma(x3, x3, fma(x2, x2, fma(x1, x1, x0 * x0)))), each fma exact in fractions:
    the bits of OpenBLAS's AVX-512 ddot, whatever the BLAS kernel, so generated problems do not depend on it."""
    x0, *rest = map(float, v)
    return math.sqrt(functools.reduce(lambda acc, x: float(Fraction(x) * Fraction(x) + Fraction(acc)), rest, x0 * x0))


# ---------------------------------------------------------------------------
# Scene model.
# ---------------------------------------------------------------------------

class ProjectionError(ValueError):
    """Point at or behind the camera plane."""


@dataclass
class Camera:
    """World-to-camera rotation (unit quaternion), camera center, intrinsics."""

    quaternion: np.ndarray
    position: np.ndarray
    focal: float = 1.0
    principal_point: np.ndarray = field(default_factory=lambda: np.zeros(2))

    def __post_init__(self):
        self.quaternion = np.asarray(self.quaternion, dtype=float)
        self.position = np.asarray(self.position, dtype=float)
        self.principal_point = np.asarray(self.principal_point, dtype=float)
        if not abs(np.linalg.norm(self.quaternion) - 1.0) <= 1e-9:  # also rejects NaN
            raise ValueError("camera quaternion must be unit norm")

    @property
    def vector(self) -> np.ndarray:
        """The camera's 10 numbers: quaternion (4), position (3), focal length, principal point (2)."""
        return np.concatenate([self.quaternion, self.position, [self.focal], self.principal_point])

    @staticmethod
    def fields_of(vector):
        """Quaternion, position, focal length and principal point along the leading axis of `vector`."""
        return vector[0:4], vector[4:7], vector[7], vector[8:10]


@dataclass
class Scene:
    """Points, cameras, and the observations: point pairs[k, 0] seen by camera pairs[k, 1] at keypoints[k]."""

    points: np.ndarray
    cameras: list[Camera]
    pairs: np.ndarray  # (B, 2) int
    keypoints: np.ndarray  # (B, 2)

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        self.pairs = np.asarray(self.pairs, dtype=int).reshape(-1, 2)
        self.keypoints = np.asarray(self.keypoints, dtype=float).reshape(-1, 2)
        if len(self.pairs) != len(self.keypoints):
            raise ValueError(f"{len(self.pairs)} observation pairs but {len(self.keypoints)} keypoints")
        bad = (self.pairs < 0) | (self.pairs >= (len(self.points), len(self.cameras)))
        if bad.any():
            i, j = self.pairs[bad.any(axis=1)][0]
            raise ValueError(f"observation ({i}, {j}) references a missing point or camera")

    @property
    def n_camera_params(self) -> int:
        return 6 * len(self.cameras)

    @property
    def n_params(self) -> int:
        return self.n_camera_params + 3 * len(self.points)

    def initial_params(self) -> np.ndarray:
        theta = np.zeros(self.n_params)
        for j, cam in enumerate(self.cameras):
            theta[6 * j + 3 : 6 * j + 6] = cam.position
        theta[self.n_camera_params :] = self.points.ravel()
        return theta

    def moved(self, increment: np.ndarray) -> Scene:
        """The scene after a step laid out as theta: rotation increments compose onto the quaternions."""
        steps = increment[: self.n_camera_params].reshape(-1, 6)
        quats = rotate_by(steps[:, 0:3].T, np.array([c.quaternion for c in self.cameras]).reshape(-1, 4).T)
        cams = [Camera(q, c.position + s[3:6], c.focal, c.principal_point.copy())
                for c, q, s in zip(self.cameras, quats.T, steps)]
        points = self.points + increment[self.n_camera_params :].reshape(-1, 3)
        return Scene(points, cams, self.pairs, self.keypoints)


def _project_generic(quaternion, position, focal, principal_point, point):
    """Pinhole projection of stacked points to stacked (u, v), generic over floats, arrays and jets."""
    cam = quat_rotate(quaternion, point - position)
    if np.any(cam[2:3] <= 0.0):
        raise ProjectionError("point is on or behind the camera plane")
    return focal * cam[0:2] / cam[2:3] + principal_point


def project(camera: Camera, point) -> np.ndarray:
    """Project a world point (3,) or points (N, 3) to (2,) or (N, 2); raises behind the camera."""
    point = np.asarray(point, dtype=float).T
    return _project_generic(*Camera.fields_of(camera.vector.reshape(10, *[1] * (point.ndim - 1))), point).T


def _observing_cameras(scene: Scene):
    """Each observation's camera fields (`Camera.fields_of`, one column per observation)."""
    cameras = np.array([c.vector for c in scene.cameras]).reshape(-1, 10)
    return Camera.fields_of(cameras[scene.pairs[:, 1]].T)


def total_cost(scene: Scene) -> float:
    """Sum over observations of the Euclidean reprojection distance."""
    sq = (scene.keypoints.T - _project_generic(*_observing_cameras(scene), scene.points[scene.pairs[:, 0]].T)) ** 2
    dist = np.sqrt(sq[0] + sq[1])
    return sum(dist.tolist(), 0.0)  # one by one in observation order from 0.0; np.sum rounds differently


def _zero_increment(n_obs: int) -> jets.Jet:
    """`quat_from_rotvec`'s jet, bit for bit, at +0.0 increments seeded as partials 0-2 of 9 (every LM Jacobian's
    case): value (1, 0, 0, 0) per observation, partials 0.5 at rows 0-2 of components 1-3 and +0.0 elsewhere.
    The Jacobian takes it at -0.0 too: `quat_from_rotvec`'s value there, (1, -0.0, -0.0, -0.0), changes no r or J byte."""
    partials = np.zeros((9, 4, n_obs))
    partials[[0, 1, 2], [1, 2, 3]] = 0.5
    return jets.Jet(np.eye(4, 1).repeat(n_obs, 1), partials)


def residuals_and_jacobian(scene: Scene, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stacked 2-vector residuals (predicted - observed) and their Jacobian.

    Each observation only touches 6 camera + 3 point parameters, so the jets carry 9 partials which are
    scattered into the full Jacobian.  Every observation is rotated and projected in one pass of array jets.
    """
    nc = scene.n_camera_params
    pt, cam = scene.pairs.T
    quaternion, _, focal, principal_point = _observing_cameras(scene)
    local = jets.variables(np.vstack([theta[:nc].reshape(-1, 6)[cam].T, theta[nc:].reshape(-1, 3)[pt].T]))
    dq = quat_from_rotvec(local[0:3]) if local.value[0:3].any() else _zero_increment(len(cam))
    uv = _project_generic(quat_normalize(quat_mul(dq, quaternion)), local[3:6], focal, principal_point, local[6:9])
    r = (uv.value.T - scene.keypoints).ravel()
    cols = np.hstack([6 * cam[:, None] + np.arange(6), nc + 3 * pt[:, None] + np.arange(3)]).repeat(2, axis=0)
    jac = np.zeros((r.size, scene.n_params))
    jac[np.arange(r.size)[:, None], cols] = uv.partials.transpose(2, 1, 0).reshape(-1, 9)
    return r, jac


# ---------------------------------------------------------------------------
# Normal equations and Schur reduction.
# ---------------------------------------------------------------------------

@dataclass
class NormalEquations:
    """Damped normal equations in camera/point block form."""

    camera_block: np.ndarray
    point_blocks: np.ndarray  # (n_points, 3, 3)
    coupling: np.ndarray  # (m_c, 3 * n_points)
    grad_cam: np.ndarray
    grad_pts: np.ndarray
    m_c: int

    def full_matrix(self) -> np.ndarray:
        n = self.m_c + 3 * len(self.point_blocks)
        out = np.zeros((n, n))
        out[: self.m_c, : self.m_c] = self.camera_block
        out[: self.m_c, self.m_c :] = self.coupling
        out[self.m_c :, : self.m_c] = self.coupling.T
        for i, blk in enumerate(self.point_blocks):
            s = self.m_c + 3 * i
            out[s : s + 3, s : s + 3] = blk
        return out

    def full_gradient(self) -> np.ndarray:
        return np.concatenate([self.grad_cam, self.grad_pts])

    def point_coupling(self) -> np.ndarray:  # E_i as (n_points, m_c, 3)
        return self.coupling.reshape(self.m_c, len(self.point_blocks), 3).transpose(1, 0, 2)


def build_normal_equations(
    residuals: np.ndarray,
    jacobian: np.ndarray,
    lam1: float,
    lam2: float,
    m_c: int | None = None,
) -> NormalEquations:
    """Assemble J^T J + lam1 D^T D + lam2 I and the gradient J^T r in block form.

    D^T D is the diagonal of J^T J, floored at 1e-12.  m_c splits parameters
    into the camera block and the 3x3-block point part; None treats everything
    as the camera block.  Only the camera rows of J^T J and the 3x3 point
    blocks are formed, so no row of J may touch two point blocks.
    """
    if lam1 < 0 or lam2 < 0:
        raise ValueError("damping parameters must be nonnegative")
    rows, n = jacobian.shape
    m_c = n if m_c is None else m_c
    n_pts, rem = divmod(n - m_c, 3)
    if rem:
        raise ValueError("point parameter count is not a multiple of three")
    nz = jacobian[:, m_c:] != 0
    if np.any((nz[:, 0::3] | nz[:, 1::3] | nz[:, 2::3]).sum(axis=1) > 1):  # points per row
        raise ValueError("point block of the normal equations is not 3x3 block diagonal")
    slab = np.ascontiguousarray(jacobian.T[:m_c]) @ jacobian
    jp = jacobian[:, m_c:].reshape(rows, n_pts, 3).transpose(1, 0, 2)
    blocks = jp.transpose(0, 2, 1) @ jp
    for diag in (np.einsum("ii->i", slab[:, :m_c]), np.einsum("kii->ki", blocks)):  # writable views
        diag += lam1 * np.maximum(diag, 1e-12)
        diag += lam2
    g = jacobian.T @ residuals
    return NormalEquations(slab[:, :m_c], blocks, slab[:, m_c:], g[:m_c], g[m_c:], m_c)


def schur_reduce(ne: NormalEquations) -> tuple[np.ndarray, np.ndarray]:
    """Eliminate the point blocks: returns (S, rhs) with S dtheta_cam = -rhs."""
    try:
        inv = np.linalg.inv(ne.point_blocks)
    except np.linalg.LinAlgError as exc:  # name the first block whose LU has a zero pivot
        i = int(np.argmin(np.abs(np.linalg.slogdet(ne.point_blocks)[0])))
        raise np.linalg.LinAlgError(f"singular 3x3 point block {i}") from exc
    e = ne.point_coupling()
    e_inv = e @ inv
    # term by term in point order (a summed total rounds differently), onto copies: no points, no alias
    s = functools.reduce(np.subtract, e_inv @ e.transpose(0, 2, 1), ne.camera_block.copy())
    rhs = functools.reduce(np.subtract, (e_inv @ ne.grad_pts.reshape(-1, 3, 1))[..., 0], ne.grad_cam.copy())
    return s, rhs


def back_substitute(ne: NormalEquations, delta_cam: np.ndarray) -> np.ndarray:
    """Point steps from a camera step: dp_i = -C_i^{-1} (g_i + E_i^T dc)."""
    rhs = ne.grad_pts.reshape(-1, 3) + ne.point_coupling().transpose(0, 2, 1) @ delta_cam
    return -np.linalg.solve(ne.point_blocks, rhs[..., None]).reshape(-1)


# ---------------------------------------------------------------------------
# Problem generation.
# ---------------------------------------------------------------------------

@dataclass
class BaProblem:
    """A generated reconstruction problem.

    `truth` holds the exact scene; `initial` shares the points but carries
    the noisy camera guesses the optimization starts from.  Both share the
    same observation arrays.  `observation_points` are the jittered 3D
    positions the keypoints were projected from.
    """

    truth: Scene
    initial: Scene
    observation_points: np.ndarray
    seed: int


def _look_at(position: np.ndarray, target: np.ndarray) -> np.ndarray:
    forward = target - position
    forward = forward / _norm(forward)
    up = np.array([0.0, 0.0, 1.0])
    right = np.cross(up, forward)
    right = right / _norm(right)
    down = np.cross(forward, right)
    return _rotation_to_quat(np.vstack([right, down, forward]))


def _in_front(cameras, points) -> bool:
    """Whether every point projects through every camera."""
    try:
        for cam in cameras:
            project(cam, points)
    except ProjectionError:
        return False
    return True


def generate_problem(
    seed: int,
    n_points: int = 10,
    point_noise: float = 0.5,
    camera_position_noise: float = 0.5,
    camera_rotation_noise: float = 0.5,
    noise_on: str = "points3d",
) -> BaProblem:
    """Deterministic two-camera problem.

    Points are uniform in [-2, 2]^3; the cameras sit on a circle of radius
    CAMERA_RADIUS around the origin, CAMERA_SEPARATION_DEG apart, both
    aimed at the point centroid.  Keypoints are exact projections of the
    points jittered by +-point_noise (noise_on="keypoints" jitters the
    image keypoints directly instead).  The initial guess perturbs each
    camera position by a +-camera_position_noise relative factor per axis
    and its orientation by a random-axis rotation of up to
    +-camera_rotation_noise times the nominal view angle.
    """
    if noise_on not in NOISE_TARGETS:
        raise ValueError("noise_on must be 'points3d' or 'keypoints'")
    if isinstance(n_points, bool) or not isinstance(n_points, numbers.Integral) or n_points < 1:
        raise ValueError(f"n_points must be a positive integer, got {n_points!r}")
    rng = np.random.default_rng(seed)
    points = rng.uniform(-2.0, 2.0, size=(n_points, 3))
    centroid = points.mean(axis=0)

    half = math.radians(CAMERA_SEPARATION_DEG) / 2.0
    true_cams = []
    for angle in (math.pi / 2.0 - half, math.pi / 2.0 + half):
        pos = np.array([CAMERA_RADIUS * math.cos(angle), CAMERA_RADIUS * math.sin(angle), 0.0])
        true_cams.append(Camera(_look_at(pos, centroid), pos))

    jitter = rng.uniform(-point_noise, point_noise, size=(n_points, 3)) if point_noise else np.zeros((n_points, 3))
    obs_points = points + jitter if noise_on == "points3d" else points.copy()
    if not _in_front(true_cams, obs_points):
        for i in range(n_points):
            while not _in_front(true_cams, obs_points[i : i + 1]):  # redraw; deterministic per seed
                for cam in true_cams:
                    project(cam, points[i])  # a true point behind a camera cannot be helped
                obs_points[i] = points[i] + rng.uniform(-point_noise, point_noise, size=3)
    keypoints = [project(cam, obs_points) for cam in true_cams]
    if noise_on == "keypoints":
        keypoints = [uv + jitter[:, :2] for uv in keypoints]
    pairs = [(i, j) for i in range(n_points) for j in range(len(true_cams))]
    keypoints = np.stack(keypoints, axis=1)  # (point, camera, uv): the order of pairs

    noisy_cams = []
    for cam in true_cams:
        while True:  # redraw until every point projects; deterministic per seed
            axis = rng.normal(size=3)
            axis /= _norm(axis)
            dangle = rng.uniform(-camera_rotation_noise, camera_rotation_noise) * quat_angle(cam.quaternion)
            quat = rotate_by(axis * dangle, cam.quaternion)
            pos = cam.position * (1.0 + rng.uniform(-camera_position_noise, camera_position_noise, size=3))
            candidate = Camera(quat, pos, cam.focal, cam.principal_point.copy())
            if _in_front([candidate], points):
                noisy_cams.append(candidate)
                break

    truth = Scene(points, true_cams, pairs, keypoints)
    initial = Scene(points.copy(), noisy_cams, truth.pairs, truth.keypoints)
    return BaProblem(truth, initial, obs_points, seed)


# ---------------------------------------------------------------------------
# Line-oriented text serialization.
# ---------------------------------------------------------------------------

_HEADER = "# qlma problem v1"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def save_problem(problem: BaProblem, path) -> None:
    """One record per line: points, cameras, observations, initial guesses."""
    lines = [_HEADER, f"seed {problem.seed}"]
    for i, p in enumerate(problem.truth.points):
        lines.append(f"point {i} {' '.join(_fmt(v) for v in p)}")
    for j, c in enumerate(problem.truth.cameras):
        lines.append(f"camera {j} {' '.join(_fmt(v) for v in c.vector)}")
    for (i, j), uv in zip(problem.truth.pairs.tolist(), problem.truth.keypoints):
        lines.append(f"obs {i} {j} {_fmt(uv[0])} {_fmt(uv[1])}")
    for i, p in enumerate(problem.observation_points):
        lines.append(f"obs_point {i} {' '.join(_fmt(v) for v in p)}")
    for i, p in enumerate(problem.initial.points):
        lines.append(f"init_point {i} {' '.join(_fmt(v) for v in p)}")
    for j, c in enumerate(problem.initial.cameras):
        lines.append(f"init_camera {j} {' '.join(_fmt(v) for v in c.vector)}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# Fields after the tag of each record save_problem writes.
_RECORD_FIELDS = {"seed": 1, "point": 4, "camera": 11, "obs": 4, "obs_point": 4, "init_point": 4, "init_camera": 11}


def load_problem(path) -> BaProblem:
    records: dict[str, dict] = {
        "point": {}, "camera": {}, "obs": {}, "obs_point": {}, "init_point": {}, "init_camera": {},
    }
    seed = 0
    first_line: dict[tuple, int] = {}  # (tag, index) -> line number
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from None
    for number, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        tag = parts[0]
        where = f"{path}:{number}"
        if tag not in _RECORD_FIELDS:
            raise ValueError(f"{where}: unknown record {tag!r}")
        if len(parts) - 1 != _RECORD_FIELDS[tag]:
            raise ValueError(f"{where}: {tag} record needs {_RECORD_FIELDS[tag]} fields, got {len(parts) - 1}")
        try:
            if tag == "seed":
                index, value = None, int(parts[1])
            elif tag == "obs":
                index, value = (int(parts[1]), int(parts[2])), np.array([float(parts[3]), float(parts[4])])
            else:
                index, value = int(parts[1]), np.array([float(v) for v in parts[2:]])
        except ValueError as exc:
            raise ValueError(f"{where}: malformed {tag} record: {exc}") from None
        if tag != "seed" and not np.all(np.isfinite(value)):
            raise ValueError(f"{where}: non-finite number in {tag} record")
        if tag in ("camera", "init_camera"):
            try:
                value = Camera(*Camera.fields_of(value))
            except ValueError as exc:  # a quaternion that is not of unit norm
                raise ValueError(f"{where}: {tag} record {index}: {exc}") from None
        name = " ".join(parts[: 1 if index is None else 3 if tag == "obs" else 2])
        if index is not None and np.min(index) < 0:
            raise ValueError(f"{where}: negative index in {name} record")
        if (tag, index) in first_line:
            raise ValueError(f"{where}: repeated {name} record, first on line {first_line[tag, index]}")
        first_line[tag, index] = number
        if tag == "seed":
            seed = value
        else:
            records[tag][index] = value

    # each tag with the record types its indices count
    indexed = {"obs_point": ("point",), "init_point": ("point",), "init_camera": ("camera",), "obs": ("point", "camera")}
    for tag, counted_by in indexed.items():
        for index in records[tag]:
            indices = index if tag == "obs" else (index,)
            for value, counted in zip(indices, counted_by):
                count = len(records[counted])
                if value >= count:  # negative indices are rejected as each record is read
                    name = " ".join(map(str, indices))
                    raise ValueError(
                        f"{path}:{first_line[tag, index]}: {tag} record {name} is out of range for {count} {counted} records"
                    )

    def rows(tag: str, count: int) -> list:
        missing = [i for i in range(count) if i not in records[tag]]
        if missing:
            raise ValueError(f"{path}: missing {tag} record {missing[0]}")
        return [records[tag][i] for i in range(count)]

    n_pts, n_cams = len(records["point"]), len(records["camera"])
    if n_pts == 0:
        raise ValueError(f"{path}: no point records")
    pairs = sorted(records["obs"])  # the (point, camera) order generated problems have, whatever the file's order
    keypoints = [records["obs"][k] for k in pairs]
    truth = Scene(np.vstack(rows("point", n_pts)), rows("camera", n_cams), pairs, keypoints)
    initial = Scene(np.vstack(rows("init_point", n_pts)), rows("init_camera", n_cams), truth.pairs, truth.keypoints)
    return BaProblem(truth, initial, np.vstack(rows("obs_point", n_pts)), seed)
