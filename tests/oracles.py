"""Geometry references that only tests use: pixel unprojection written with
the per-call divmod arithmetic, mask unprojection, projection, the distance
from a point to a solid's surface, a voxel grid's frame, and the
settling loop that tests every object.

Test modules import this file by name (pytest puts tests/ on sys.path)."""

from __future__ import annotations

import math

import numpy as np

from camlab.errors import DimensionMismatch
from camlab.geom3d import Box, CameraModel, Cylinder, unproject_pixels


def unproject_pixels_divmod(depth, pixels, cam: CameraModel) -> np.ndarray:
    """unproject_pixels before it read the cached pixel rays: each pixel's
    (u, v) by divmod, scaled through the intrinsics on every call."""
    depth = np.asarray(depth, dtype=np.float64)
    if len(pixels) == 0:
        return np.zeros((0, 3))
    d = depth.ravel()[pixels]
    vv, uu = np.divmod(pixels, cam.width)
    x = (uu - cam.cx) / cam.fx * d
    y = (vv - cam.cy) / cam.fy * d
    return cam.pose.apply(np.stack([x, y, d], axis=-1))


def unproject(depth, mask, cam: CameraModel) -> np.ndarray:
    """World-frame points for every true mask pixel with finite positive
    depth, in raster order, through camlab's unproject_pixels (which raises
    DimensionMismatch for a depth image of the wrong shape)."""
    depth = np.asarray(depth, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != depth.shape:
        raise DimensionMismatch("mask shape", depth.shape, mask.shape)
    return unproject_pixels(depth, np.flatnonzero(mask & (depth > 0) & np.isfinite(depth)), cam)


def project(points, cam: CameraModel):
    """Project world points; returns ((n, 2) pixel coords, in-front mask)."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    local = cam.pose.inverse().apply(pts)
    z = local[:, 2]
    in_front = z > 1e-6
    with np.errstate(divide="ignore", invalid="ignore"):
        u = local[:, 0] / z * cam.fx + cam.cx
        v = local[:, 1] / z * cam.fy + cam.cy
    return np.stack([u, v], axis=-1), in_front


def surface_distance(point, pose, solid) -> float:
    """Unsigned distance from a point to the surface of the solid at pose."""
    p = pose.inverse().apply(np.asarray(point, dtype=np.float64))
    if isinstance(solid, Box):
        q = np.abs(p) - solid.extents / 2.0
        outside = float(np.linalg.norm(np.clip(q, 0.0, None)))
        inside = float(min(np.max(q), 0.0))
        return abs(outside + inside)
    if isinstance(solid, Cylinder):
        dr = math.hypot(p[0], p[1]) - solid.radius
        dz = abs(p[2]) - solid.height / 2.0
        if dr <= 0 and dz <= 0:
            return abs(max(dr, dz))
        return math.hypot(max(dr, 0.0), max(dz, 0.0))
    raise TypeError(f"unsupported solid {type(solid).__name__}")


def voxel_frame(points, cells_per_axis):
    """(origin, cell size) of voxelize's grid over points: the bounding-box
    minimum, and the extent inflated by 1e-6 m split into the cells (1e-6 m
    for an axis of zero extent)."""
    n = np.asarray(cells_per_axis, dtype=np.int64)
    lo = points.min(axis=0)
    extent = points.max(axis=0) - lo
    return lo, np.where(extent > 0, (extent + 1e-6) / n, 1e-6)


def settle_reference(state, oid):
    """(rest z, in_bore) of Simulation.drop_to_support(oid) on `state`, from
    the loop it ran before its vectorised pass: every other object that is
    not held, in state order, through the per-object tests."""
    obj = state.objects[oid]
    xy = obj.pose.t[:2]
    bottom = obj.pose.t[2] - obj.world_half_z()
    best = 0.0
    inside_bore = False
    for other in state.objects.values():
        if other.oid == oid or other.oid in state.held:
            continue
        if other.in_bore_xy(xy) and obj.lateral_half_extent() <= other.bore_radius:
            floor = float(other.pose.t[2]) + other.bore_floor_z
            if floor <= bottom + 1e-6:
                best = max(best, floor)
                inside_bore = True
            continue
        if other.supports_xy(xy):
            top = other.top_z()
            if top <= bottom + 1e-6:
                best = max(best, top)
    return best + obj.world_half_z(), inside_bore
