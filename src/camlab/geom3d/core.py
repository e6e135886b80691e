"""Core 3D math: vectors, quaternion poses, pinhole cameras, least-squares fits.

Conventions
-----------
* points are float64 numpy arrays, shape (3,) for a single point or (n, 3)
  for clouds, in meters (world frame unless stated otherwise)
* quaternions are [w, x, y, z], unit norm
* camera frame: +x right, +y down, +z forward; pixel (u, v) maps to the ray
  direction ((u - cx) / fx, (v - cy) / fy, 1) so depth means camera-frame z
* fitted normals/directions follow a fixed sign convention: z-component >= 0,
  ties broken toward +x then +y, so fits are reproducible
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from camlab.errors import DegenerateGeometry

__all__ = [
    "vec3",
    "unit",
    "as_points",
    "angle_between",
    "quat_from_axis_angle",
    "quat_mul",
    "quat_conj",
    "quat_rotate",
    "quat_to_mat",
    "mat_to_quat",
    "quat_slerp",
    "cross",
    "Pose",
    "CameraModel",
    "look_at",
    "fit_plane",
    "fit_line",
    "canonical_sign",
]


def vec3(x: float, y: float, z: float) -> np.ndarray:
    return np.array([x, y, z], dtype=np.float64)


def unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    n = float(np.linalg.norm(v))
    if n < 1e-12:
        raise DegenerateGeometry("cannot normalize a zero-length vector")
    return v / n


def as_points(points) -> np.ndarray:
    """Coerce a point list / array into an (n, 3) float64 array."""
    arr = np.asarray(points, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, 3) if arr.size == 3 else arr.reshape(-1, 3)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError(f"expected (n, 3) points, got shape {arr.shape}")
    return arr


def angle_between(u, v) -> float:
    """Angle in [0, pi] between two nonzero vectors. Raises DegenerateGeometry
    for a zero vector, or when a non-finite component leaves the cosine
    undefined (a clamp would read a NaN cosine as angle 0)."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu < 1e-12 or nv < 1e-12:
        raise DegenerateGeometry("angle_between requires nonzero vectors")
    c = float(np.dot(u, v)) / (nu * nv)
    if not math.isfinite(c):
        raise DegenerateGeometry("angle_between: vectors are not finite")
    return math.acos(max(-1.0, min(1.0, c)))


# ---------------------------------------------------------------------------
# quaternions


def quat_from_axis_angle(axis, angle: float) -> np.ndarray:
    ax = unit(axis)
    h = 0.5 * angle
    s = math.sin(h)
    return np.array([math.cos(h), ax[0] * s, ax[1] * s, ax[2] * s])


def _floats(q) -> list:
    """The components of a vector as Python floats (float64 arithmetic on
    them rounds exactly as numpy's does, without numpy's scalar overhead)."""
    return np.asarray(q, dtype=np.float64).tolist()


def quat_mul(a, b) -> np.ndarray:
    aw, ax, ay, az = _floats(a)
    bw, bx, by, bz = _floats(b)
    return np.array(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ]
    )


def cross(a, b) -> np.ndarray:
    """np.cross of two 3-vectors, bit for bit: each component is the same
    difference of two rounded products, taken on Python floats."""
    ax, ay, az = _floats(a)
    bx, by, bz = _floats(b)
    return np.array([ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx])


def quat_conj(q) -> np.ndarray:
    return np.array([q[0], -q[1], -q[2], -q[3]])


def quat_to_mat(q) -> np.ndarray:
    w, x, y, z = _floats(q)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def mat_to_quat(m) -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    t = np.trace(m)
    if t > 0:
        s = math.sqrt(t + 1.0) * 2
        q = np.array(
            [0.25 * s, (m[2, 1] - m[1, 2]) / s, (m[0, 2] - m[2, 0]) / s, (m[1, 0] - m[0, 1]) / s]
        )
    elif m[0, 0] > m[1, 1] and m[0, 0] > m[2, 2]:
        s = math.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2]) * 2
        q = np.array(
            [(m[2, 1] - m[1, 2]) / s, 0.25 * s, (m[0, 1] + m[1, 0]) / s, (m[0, 2] + m[2, 0]) / s]
        )
    elif m[1, 1] > m[2, 2]:
        s = math.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2]) * 2
        q = np.array(
            [(m[0, 2] - m[2, 0]) / s, (m[0, 1] + m[1, 0]) / s, 0.25 * s, (m[1, 2] + m[2, 1]) / s]
        )
    else:
        s = math.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1]) * 2
        q = np.array(
            [(m[1, 0] - m[0, 1]) / s, (m[0, 2] + m[2, 0]) / s, (m[1, 2] + m[2, 1]) / s, 0.25 * s]
        )
    return q / np.linalg.norm(q)


def quat_rotate(q, points):
    """Rotate a point (3,) or cloud (n, 3) by quaternion q."""
    m = quat_to_mat(q)
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        return m @ pts
    return pts @ m.T


def quat_slerp(a, b, t: float) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    d = float(np.dot(a, b))
    if d < 0:
        b = -b
        d = -d
    if d > 0.9995:
        q = a + t * (b - a)
        return q / np.linalg.norm(q)
    th = math.acos(max(-1.0, min(1.0, d)))
    sa = math.sin((1 - t) * th) / math.sin(th)
    sb = math.sin(t * th) / math.sin(th)
    return sa * a + sb * b


@dataclass(frozen=True)
class Pose:
    """Rigid transform: x_world = R(q) @ x_local + t.

    q and t are read-only float64 arrays of shapes (4,) and (3,), q unit
    norm and t finite, so a Pose never changes after construction: moving
    something means giving it a new Pose. Ground-truth caches rely on this
    (an unchanged Pose object means unchanged points), and so does the Pose
    itself: its rotation matrix and its inverse are computed on first use
    and kept (the matrix read-only).

    Pose(q, t) copies its arguments. Code that has built q and t and never
    writes them again hands them over without a copy:
    Pose._own(q, t) takes both, and pose.translated(t) takes t and shares
    pose's q and rotation matrix."""

    q: np.ndarray = field(default_factory=lambda: np.array([1.0, 0.0, 0.0, 0.0]))
    t: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        q = np.array(self.q, dtype=np.float64)
        t = np.array(self.t, dtype=np.float64)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "t", t)
        self._seal()

    @classmethod
    def _own(cls, q: np.ndarray, t: np.ndarray) -> "Pose":
        """A Pose that takes over q and t, float64 arrays that nothing
        writes again: they are set read-only, not copied."""
        pose = object.__new__(cls)
        pose.__dict__.update(q=q, t=t)
        pose._seal()
        return pose

    def _seal(self):
        """Set q and t read-only and check them."""
        q, t = self.q, self.t
        q.setflags(write=False)
        t.setflags(write=False)
        if q.shape != (4,):
            raise ValueError(f"Pose quaternion must have shape (4,), got {q.shape}")
        # what np.linalg.norm computes, without its overhead; written so a NaN norm fails too
        if not abs(math.sqrt(q.dot(q)) - 1.0) <= 1e-9:
            raise ValueError("Pose quaternion must be unit norm")
        _check_translation(t)

    @staticmethod
    def identity() -> "Pose":
        return Pose()

    # rotation() and inverse() store their result in the instance __dict__
    # (which a frozen dataclass still allows) on first use

    def rotation(self) -> np.ndarray:
        """R(q), read-only."""
        r = self.__dict__.get("_rotation")
        if r is None:
            r = self.__dict__["_rotation"] = quat_to_mat(self.q)
            r.setflags(write=False)
        return r

    def translated(self, t: np.ndarray) -> "Pose":
        """This rotation with translation t, a float64 array the caller has
        just built (set read-only, not copied). The new Pose shares q and
        the rotation matrix, so caches keyed on the matrix's identity hit."""
        _check_translation(t)
        t.setflags(write=False)
        pose = object.__new__(Pose)
        pose.__dict__.update(q=self.q, t=t, _rotation=self.rotation())
        return pose

    def inverse(self) -> "Pose":
        inv = self.__dict__.get("_inverse")
        if inv is None:
            qi = quat_conj(self.q)
            inv = self.__dict__["_inverse"] = Pose._own(qi, -quat_rotate(qi, self.t))
        return inv

    def apply(self, points):
        r = self.rotation()
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim == 1:
            return r @ pts + self.t
        return pts @ r.T + self.t

    def compose(self, other: "Pose") -> "Pose":
        """self after other: (self @ other).apply(x) == self.apply(other.apply(x))."""
        return Pose._own(quat_mul(self.q, other.q), self.apply(other.t))


def _check_translation(t: np.ndarray):
    if t.shape != (3,):
        raise ValueError(f"Pose translation must have shape (3,), got {t.shape}")
    x, y, z = t.tolist()
    # x - x is 0.0 for a finite x and NaN for an infinite or NaN one
    if not (x - x) + (y - y) + (z - z) == 0.0:
        raise ValueError("Pose translation must be finite")


@dataclass(frozen=True)
class CameraModel:
    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int
    pose: Pose = field(default_factory=Pose.identity)  # camera-to-world

    def __post_init__(self):
        if not (self.fx > 0 and self.fy > 0):  # NaN fails too
            raise ValueError("focal lengths must be positive")
        if not (0 < self.cx < self.width and 0 < self.cy < self.height):
            raise ValueError("principal point must lie inside the image")


def look_at(eye, target, up=(0.0, 0.0, 1.0)) -> Pose:
    """Camera-to-world pose with +z looking from eye toward target, +y down."""
    eye = np.asarray(eye, dtype=np.float64)
    z = unit(np.asarray(target, dtype=np.float64) - eye)
    y_des = -unit(up)
    x = cross(y_des, z)
    if np.linalg.norm(x) < 1e-9:
        raise DegenerateGeometry("look_at: up is parallel to the view direction")
    x = unit(x)
    y = cross(z, x)
    m = np.column_stack([x, y, z])
    return Pose(mat_to_quat(m), eye)


# ---------------------------------------------------------------------------
# least-squares fits


def canonical_sign(v: np.ndarray) -> np.ndarray:
    """Flip v so its z-component is >= 0, ties toward +x then +y."""
    for i in (2, 0, 1):
        if v[i] > 0:
            return v
        if v[i] < 0:
            return -v
    return v


def _svd_centered(points: np.ndarray):
    """Raises DegenerateGeometry when the SVD does not converge, as on
    non-finite points."""
    centroid = points.mean(axis=0)
    try:
        _, svals, vt = np.linalg.svd(points - centroid, full_matrices=False)
    except np.linalg.LinAlgError as err:
        raise DegenerateGeometry(f"principal directions undefined: {err}") from err
    # pad so svals/vt always cover 3 principal directions (n == 2 gives 2)
    if len(svals) < 3:
        svals = np.concatenate([svals, np.zeros(3 - len(svals))])
        vt = np.vstack([vt, cross(vt[0], vt[1])[None, :] if len(vt) == 2 else np.eye(3)[len(vt):]])
    return centroid, svals, vt  # svals descending; vt rows are directions


def fit_plane(points):
    """Least-squares plane; returns (unit normal, centroid, rms residual).

    The normal is the smallest principal direction of the centered cloud
    (equivalently the smallest-eigenvector of the covariance). Raises
    DegenerateGeometry for < 3 points or (near-)collinear input: the two
    smallest singular values both below 1e-12 of the largest.
    """
    pts = as_points(points)
    if len(pts) < 3:
        raise DegenerateGeometry(f"fit_plane needs >= 3 points, got {len(pts)}")
    centroid, svals, vt = _svd_centered(pts)
    if svals[0] < 1e-12 or (svals[1] < 1e-12 * svals[0] and svals[2] < 1e-12 * svals[0]):
        raise DegenerateGeometry("fit_plane: points are collinear or coincident")
    normal = canonical_sign(vt[2].copy())
    rms = float(svals[2] / math.sqrt(len(pts)))
    return normal, centroid, rms


def fit_line(points):
    """Least-squares line; returns (unit direction, centroid, rms residual).

    The direction is the largest principal direction of the centered cloud.
    Raises DegenerateGeometry for < 2 points or coincident input.
    """
    pts = as_points(points)
    if len(pts) < 2:
        raise DegenerateGeometry(f"fit_line needs >= 2 points, got {len(pts)}")
    centroid, svals, vt = _svd_centered(pts)
    if svals[0] < 1e-12:
        raise DegenerateGeometry("fit_line: points are coincident")
    direction = canonical_sign(vt[0].copy())
    rms = float(math.sqrt((svals[1] ** 2 + svals[2] ** 2) / len(pts)))
    return direction, centroid, rms
