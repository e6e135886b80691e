"""The solids (boxes and cylinders), analytic ray casting against posed
solids, and pixel unprojection.

Box and Cylinder are the one model of each solid: the simulator settles
objects with their facts (half-extents under a rotation, bounding radius,
whether a vertical line meets the solid) and the renderer casts rays with
their hit kernels. The renderer is the oracle
stand-in for learned segmentation: each posed solid carries an instance id,
and the nearest hit per pixel yields a depth image plus an instance-id image.
Parts are not rendered: a caller that needs one tests the unprojected hit
points against the part's sub-volume. Misses are encoded in-band as depth
0.0 and id NONE_ID, which keeps the id image a plain integer array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


def _squares(x: np.ndarray) -> np.ndarray:
    """x**2 with the bits of a float's own power (C pow), one pow per run of
    equal values: numpy's array square is x * x, which rounds about one
    value in a thousand differently. x is 0-d or 1-d."""
    if x.ndim == 0:
        return np.float64(float(x) ** 2)
    start = np.flatnonzero(np.concatenate(([True], x[1:] != x[:-1])))
    runs = np.diff(np.append(start, len(x)))
    return np.repeat([v**2 for v in x[start].tolist()], runs)


@dataclass(frozen=True)
class Box:
    """A solid box centred on its pose origin: full side lengths (x, y, z)
    in meters, stored read-only, so the facts computed from them at
    construction cannot go stale."""

    extents: np.ndarray
    # the radius of the sphere about the centre that holds the solid
    bounding_radius: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ext = np.array(self.extents, dtype=np.float64)
        if ext.shape != (3,) or not np.all(np.isfinite(ext)) or np.any(ext <= 0):
            raise ValueError(f"box extents must be three finite positive lengths, got {self.extents!r}")
        ext.setflags(write=False)
        object.__setattr__(self, "extents", ext)
        object.__setattr__(self, "bounding_radius", float(np.linalg.norm(self.half_extents())))

    def half_extents(self) -> np.ndarray:
        return self.extents / 2.0

    def world_half_z(self, r: np.ndarray) -> float:
        """Half the world-frame z-extent under rotation matrix r."""
        return float(np.abs(r[2]) @ self.half_extents())

    def lateral_half_extent(self, r: np.ndarray) -> float:
        """Largest world-frame x or y half-extent under rotation matrix r."""
        h = self.half_extents()
        return float(max(np.abs(r[0]) @ h, np.abs(r[1]) @ h))

    def meets_line(self, o, v) -> bool:
        """True if the line o + s v (local frame, 3-sequences of Python
        floats) meets the box: the slab test of hit, over every s."""
        lo, hi = -math.inf, math.inf
        for oi, vi, ext in zip(o, v, self.extents.tolist()):
            half = ext / 2.0
            if abs(vi) < _EPS:  # parallel to the slab: inside it or never
                if abs(oi) > half:
                    return False
                continue
            t1, t2 = (-half - oi) / vi, (half - oi) / vi
            if t1 > t2:
                t1, t2 = t2, t1
            if t1 > lo:
                lo = t1
            if t2 < hi:
                hi = t2
        return hi >= lo

    @staticmethod
    def hit(o, d, half):
        """Slab intersection; o, d are (n, 3) in the box local frame, and
        half is the box's half_extents(), one row for every ray or (n, 3),
        one row per ray.

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


@dataclass(frozen=True)
class Cylinder:
    """A solid capped cylinder along local z, centred on its pose origin:
    radius and full height in meters."""

    radius: float
    height: float
    bounding_radius: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (0.0 < self.radius < math.inf and 0.0 < self.height < math.inf):
            raise ValueError(f"cylinder radius and height must be finite and positive, got {self.radius}, {self.height}")
        object.__setattr__(self, "bounding_radius", math.hypot(self.radius, self.height / 2.0))

    def half_extents(self) -> np.ndarray:
        return np.array([self.radius, self.radius, self.height / 2.0])

    def world_half_z(self, r: np.ndarray) -> float:
        """Half the world-frame z-extent under rotation matrix r: the axis
        half-height and the rim radius, each projected onto z."""
        ax = abs(r[2, 2])
        lat = math.sqrt(max(1.0 - ax * ax, 0.0))
        return ax * self.height / 2.0 + lat * self.radius

    def lateral_half_extent(self, r: np.ndarray) -> float:
        """A bound on the world-frame x and y half-extents under rotation
        matrix r, exact when the axis is upright."""
        ax = abs(r[2, 2])
        lat = math.sqrt(max(1.0 - ax * ax, 0.0))
        return lat * self.height / 2.0 + self.radius

    def meets_line(self, o, v) -> bool:
        """True if the line o + s v (local frame, 3-sequences of Python
        floats) meets the capped cylinder: the stretch of the line within
        the radius overlaps the stretch between the caps."""
        (ox, oy, oz), (vx, vy, vz) = o, v
        half_h = self.height / 2.0
        r2 = self.radius**2
        a = vx * vx + vy * vy
        if a < _EPS:  # along the axis: the disk test
            return ox**2 + oy**2 <= r2
        b = 2.0 * (ox * vx + oy * vy)
        c = ox**2 + oy**2 - r2
        disc = b * b - 4.0 * a * c
        if disc < 0.0:
            return False
        sq = math.sqrt(disc)
        lo, hi = (-b - sq) / (2.0 * a), (-b + sq) / (2.0 * a)
        if abs(vz) < _EPS:
            return abs(oz) <= half_h
        t1, t2 = (-half_h - oz) / vz, (half_h - oz) / vz
        return min(hi, max(t1, t2)) >= max(lo, min(t1, t2))

    @staticmethod
    def hit(o, d, half):
        """Nearest hit against the capped cylinder; o, d are (n, 3) in its
        local frame, and half is its half_extents() (radius, radius, half
        height), one row for every ray or (n, 3), one row per ray. +inf
        for misses."""
        radius, half_h = half[..., 0], half[..., 2]
        r2 = _squares(radius)
        a = d[:, 0] ** 2 + d[:, 1] ** 2
        b = 2.0 * (o[:, 0] * d[:, 0] + o[:, 1] * d[:, 1])
        c = o[:, 0] ** 2 + o[:, 1] ** 2 - r2
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
                ok = (np.abs(d[:, 2]) > _EPS) & (t > _EPS) & (x**2 + y**2 <= r2)
                best = np.where(ok & (t < best), t, best)
        return best


_RAY_CACHE: dict = {}
_GRID_CACHE: dict = {}
_NO_PIXELS = np.empty(0, dtype=np.int64)


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


def _pixel_grid(cam: CameraModel):
    """The (height, width) image of flat pixel indices, read-only."""
    key = (cam.width, cam.height)
    grid = _GRID_CACHE.get(key)
    if grid is None:
        grid = _GRID_CACHE[key] = np.arange(cam.width * cam.height, dtype=np.int64).reshape(cam.height, cam.width)
        grid.setflags(write=False)
    return grid


def _candidate_pixels(pose: Pose, solid, cam: CameraModel):
    """Flat pixel indices, in raster order, whose rays can hit the posed
    solid's bounding sphere; None means all pixels (sphere spans the
    camera)."""
    x, y, z = cam.pose.inverse().apply(pose.t).tolist()
    rad = solid.bounding_radius
    if z + rad <= _EPS:
        return _NO_PIXELS  # fully behind the camera
    near = z - rad
    if near <= _EPS:
        return None  # camera inside the bounding sphere
    u = x / z * cam.fx + cam.cx
    v = y / z * cam.fy + cam.cy
    du = rad / near * cam.fx + 2
    dv = rad / near * cam.fy + 2
    u0 = max(int(u - du), 0)
    u1 = min(int(u + du) + 1, cam.width)
    v0 = max(int(v - dv), 0)
    v1 = min(int(v + dv) + 1, cam.height)
    if u0 >= u1 or v0 >= v1:
        return _NO_PIXELS
    if (u1 - u0) * (v1 - v0) >= cam.width * cam.height:
        return None
    return _pixel_grid(cam)[v0:v1, u0:u1].ravel()


def raycast_depth(solids, cam: CameraModel):
    """Render (depth, instance_id) images for a scene of (pose, solid,
    instance_id) triples, each solid a Box or a Cylinder.

    Depth is camera-frame z of the nearest hit; 0.0 where nothing is hit,
    with NONE_ID in the id image. Rays are culled per solid by its
    projected bounding sphere. The windowed rows of every solid of one
    class run through its kernel in one call, with one row of sizes per
    ray; a solid whose window is the whole image runs alone. Each solid
    still rotates its own rays (a BLAS product is not row-subset
    invariant), and the merge walks the solids in order with a strict <,
    so a tie goes to the earlier solid."""
    n = cam.width * cam.height
    dirs_w = _pixel_rays(cam) @ cam.pose.rotation().T
    origin_w = cam.pose.t

    casts = []  # [pixels or None, t, instance id], in solid order
    rows = {}  # solid class -> (origins, local rays, sizes, casts) of its windowed solids
    for pose, solid, instance_id in solids:
        idx = _candidate_pixels(pose, solid, cam)
        if idx is not None and len(idx) == 0:
            continue
        inv = pose.inverse()
        o_l = inv.apply(origin_w)
        d_l = (dirs_w if idx is None else dirs_w[idx]) @ inv.rotation().T
        cast = [idx, None, instance_id]
        casts.append(cast)
        if idx is None:
            cast[1] = solid.hit(np.broadcast_to(o_l, d_l.shape), d_l, solid.half_extents())
            continue
        origins, local, sizes, members = rows.setdefault(type(solid), ([], [], [], []))
        origins.append(o_l)
        local.append(d_l)
        sizes.append(solid.half_extents())
        members.append(cast)

    for kind, (origins, local, sizes, members) in rows.items():
        counts = [len(cast[0]) for cast in members]
        t = kind.hit(np.repeat(origins, counts, axis=0), np.concatenate(local), np.repeat(sizes, counts, axis=0))
        for cast, part in zip(members, np.split(t, np.cumsum(counts[:-1]))):
            cast[1] = part

    best_t = np.full(n, np.inf)
    inst = np.full(n, NONE_ID, dtype=np.int32)
    for idx, t, instance_id in casts:
        if idx is None:
            closer = t < best_t
            best_t = np.where(closer, t, best_t)
            inst[closer] = instance_id
        else:
            closer = t < best_t[idx]
            sub = idx[closer]
            best_t[sub] = t[closer]
            inst[sub] = instance_id

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
