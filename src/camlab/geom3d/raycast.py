"""Analytic ray casting against posed boxes/cylinders, and pixel unprojection.

The renderer is the oracle stand-in for learned segmentation: each primitive
carries an instance id, and the nearest hit per pixel yields a depth image
plus an instance-id image. Parts are not rendered: a caller that needs one
tests the unprojected hit points against the part's sub-volume. Misses are
encoded in-band as depth 0.0 and id NONE_ID, which keeps the id image a plain
integer array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from camlab.errors import DimensionMismatch
from camlab.geom3d.core import CameraModel, Pose

__all__ = [
    "NONE_ID",
    "Box",
    "Cylinder",
    "raycast_depth",
    "unproject_pixels",
]

NONE_ID = -1

_EPS = 1e-9


@dataclass(frozen=True)
class Box:
    pose: Pose
    extents: np.ndarray  # full side lengths (x, y, z), meters
    instance_id: int = 0

    def __post_init__(self):
        object.__setattr__(self, "extents", np.asarray(self.extents, dtype=np.float64))
        if np.any(self.extents <= 0):
            raise ValueError("box extents must be positive")


@dataclass(frozen=True)
class Cylinder:
    pose: Pose
    radius: float
    height: float  # full height along local +z, centered on the pose origin
    instance_id: int = 0

    def __post_init__(self):
        if self.radius <= 0 or self.height <= 0:
            raise ValueError("cylinder radius and height must be positive")


_RAY_CACHE: dict = {}


def _pixel_rays(cam: CameraModel):
    key = (cam.fx, cam.fy, cam.cx, cam.cy, cam.width, cam.height)
    rays = _RAY_CACHE.get(key)
    if rays is None:
        u = np.arange(cam.width, dtype=np.float64)
        v = np.arange(cam.height, dtype=np.float64)
        uu, vv = np.meshgrid(u, v)  # (h, w)
        rays = np.stack(
            [(uu - cam.cx) / cam.fx, (vv - cam.cy) / cam.fy, np.ones_like(uu)], axis=-1
        ).reshape(-1, 3)  # camera frame, z component 1 -> t equals z-depth
        rays.setflags(write=False)
        _RAY_CACHE[key] = rays
    return rays


def _ray_box(o, d, half):
    """Slab intersection; o, d are (n, 3) in the box local frame.

    Returns t of the nearest surface hit with t > eps, +inf for misses.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / d
        t1 = (-half - o) * inv
        t2 = (half - o) * inv
    lo = np.minimum(t1, t2)
    hi = np.maximum(t1, t2)
    # axis-parallel rays: inside the slab -> (-inf, +inf), outside -> empty
    par = np.abs(d) < _EPS
    inside = np.abs(o) <= half
    lo = np.where(par, np.where(inside, -np.inf, np.inf), lo)
    hi = np.where(par, np.where(inside, np.inf, -np.inf), hi)
    tmin = lo.max(axis=1)
    tmax = hi.min(axis=1)
    t = np.where(tmin > _EPS, tmin, tmax)
    hit = (tmax >= np.maximum(tmin, _EPS)) & (t > _EPS)
    return np.where(hit, t, np.inf)


def _ray_cylinder(o, d, radius, half_h):
    """Nearest hit against a capped cylinder (axis = local z), +inf for misses."""
    a = d[:, 0] ** 2 + d[:, 1] ** 2
    b = 2.0 * (o[:, 0] * d[:, 0] + o[:, 1] * d[:, 1])
    c = o[:, 0] ** 2 + o[:, 1] ** 2 - radius**2
    disc = b * b - 4 * a * c
    best = np.full(len(o), np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        sq = np.sqrt(np.where(disc >= 0, disc, np.nan))
        for sign in (-1.0, 1.0):
            t = (-b + sign * sq) / (2 * a)
            z = o[:, 2] + t * d[:, 2]
            ok = (disc >= 0) & (a > _EPS) & (t > _EPS) & (np.abs(z) <= half_h)
            best = np.where(ok & (t < best), t, best)
        for cap_z in (-half_h, half_h):
            t = (cap_z - o[:, 2]) / d[:, 2]
            x = o[:, 0] + t * d[:, 0]
            y = o[:, 1] + t * d[:, 1]
            ok = (np.abs(d[:, 2]) > _EPS) & (t > _EPS) & (x**2 + y**2 <= radius**2)
            best = np.where(ok & (t < best), t, best)
    return best


def _bounding_radius(prim) -> float:
    if isinstance(prim, Box):
        return float(np.linalg.norm(prim.extents / 2.0))
    return math.hypot(prim.radius, prim.height / 2.0)


def _candidate_pixels(prim, cam: CameraModel):
    """Flat pixel indices whose rays can hit the primitive's bounding
    sphere; None means all pixels (sphere spans the camera)."""
    c = cam.pose.inverse().apply(prim.pose.t)
    rad = _bounding_radius(prim)
    z = float(c[2])
    if z + rad <= _EPS:
        return np.empty(0, dtype=np.int64)  # fully behind the camera
    near = z - rad
    if near <= _EPS:
        return None  # camera inside the bounding sphere
    u = c[0] / z * cam.fx + cam.cx
    v = c[1] / z * cam.fy + cam.cy
    du = rad / near * cam.fx + 2
    dv = rad / near * cam.fy + 2
    u0 = max(int(u - du), 0)
    u1 = min(int(u + du) + 1, cam.width)
    v0 = max(int(v - dv), 0)
    v1 = min(int(v + dv) + 1, cam.height)
    if u0 >= u1 or v0 >= v1:
        return np.empty(0, dtype=np.int64)
    if (u1 - u0) * (v1 - v0) >= cam.width * cam.height:
        return None
    rows = np.arange(v0, v1, dtype=np.int64) * cam.width
    cols = np.arange(u0, u1, dtype=np.int64)
    return (rows[:, None] + cols[None, :]).ravel()


def raycast_depth(primitives, cam: CameraModel):
    """Render (depth, instance_id) images for a primitive scene.

    Depth is camera-frame z of the nearest hit; 0.0 where nothing is hit,
    with NONE_ID in the id image. Rays are culled per primitive by its
    projected bounding sphere.
    """
    n = cam.width * cam.height
    dirs_cam = _pixel_rays(cam)
    r = cam.pose.rotation()
    dirs_w = dirs_cam @ r.T
    origin_w = cam.pose.t

    best_t = np.full(n, np.inf)
    inst = np.full(n, NONE_ID, dtype=np.int32)
    for prim in primitives:
        idx = _candidate_pixels(prim, cam)
        if idx is not None and len(idx) == 0:
            continue
        rays = dirs_w if idx is None else dirs_w[idx]
        inv = prim.pose.inverse()
        rot = inv.rotation()
        o_l = np.broadcast_to(inv.apply(origin_w), rays.shape)
        d_l = rays @ rot.T
        if isinstance(prim, Box):
            t = _ray_box(o_l, d_l, prim.extents / 2.0)
        elif isinstance(prim, Cylinder):
            t = _ray_cylinder(o_l, d_l, prim.radius, prim.height / 2.0)
        else:
            raise TypeError(f"unsupported primitive {type(prim).__name__}")
        if idx is None:
            closer = t < best_t
            best_t = np.where(closer, t, best_t)
            inst[closer] = prim.instance_id
        else:
            closer = t < best_t[idx]
            sub = idx[closer]
            best_t[sub] = t[closer]
            inst[sub] = prim.instance_id

    depth = np.where(np.isfinite(best_t), best_t, 0.0)
    shape = (cam.height, cam.width)
    return depth.reshape(shape), inst.reshape(shape)


def _check_image(what: str, image: np.ndarray, cam: CameraModel):
    expect = (cam.height, cam.width)
    if image.shape != expect:
        raise DimensionMismatch(what, expect, image.shape)


def unproject_pixels(depth, pixels, cam: CameraModel) -> np.ndarray:
    """World-frame points for the given flat pixel indices, in their order.

    Each pixel's camera-frame direction (x/z, y/z, 1) comes from the cached
    rays of the renderer and is scaled by its depth. The caller selects
    pixels with finite positive depth. Raises DimensionMismatch if the depth
    image does not match the camera resolution."""
    depth = np.asarray(depth, dtype=np.float64)
    _check_image("depth image shape", depth, cam)
    if len(pixels) == 0:
        return np.zeros((0, 3))
    pts_cam = _pixel_rays(cam)[pixels]
    pts_cam *= depth.ravel()[pixels][:, None]
    return cam.pose.apply(pts_cam)
