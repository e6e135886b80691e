"""References that only tests use: the DSL's canonical printer, the point
ring's padded centroid gather, pixel unprojection written with the per-call
divmod arithmetic, mask unprojection, projection, rendering one solid at a
time with the per-solid ray kernels, the distance from a point to a solid's
surface, a voxel grid's frame, brute-force DBSCAN, a solid's xy footprint
as a convex hull and the settling loop that tests every object against it,
the planner that resolved a failure from the failed sid and an episode-long
kind map, extraction of one already-filtered cloud through the batched
path, extraction one bundle, one cloud and one cell at a time, as it
ran before it batched them, and the run-log reader that re-serialises each
decoded record to check its checksum.

Test modules import this file by name (pytest puts tests/ on sys.path)."""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from camlab import elementizer
from camlab.camctl import _canonical
from camlab.conlang import MonitorProgram
from camlab.conlang.ast import CANONICAL_UNIT, _print
from camlab.elementizer import (
    DBSCAN_MIN_PTS,
    EPS_FACTOR,
    LONE_POINT_GAP,
    MAX_CLOUD_POINTS,
    OUTLIER_K,
    OUTLIER_STD_RATIO,
    POINT,
    SURFACE,
    ConstraintElement,
    fuse_views,
)
from camlab.errors import DimensionMismatch, IrreducibleCloud, LogChecksumError, TruncatedLog
from camlab.geom3d import (
    NOISE,
    ROW_BLOCK,
    Box,
    NONE_ID,
    CameraModel,
    Cylinder,
    Pose,
    as_points,
    dbscan,
    fit_plane,
    squared_distances,
    unproject_pixels,
    voxelize,
)
from camlab.monitor import INTERNAL_ERROR_REASON
from camlab.taskgen import _BUILDERS, _GRASP_SID, _ORIENT_SID, _RELEVEL_PROGRAM, _ProgramFactory
from camlab.taskgen import ElementSpec, Subgoal, TaskAbort, TaskDone, load_default_rules


def _quote(text: str) -> str:
    """text as a DSL string literal: `\\` and `"` escaped, `\\` first."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def pretty(program: MonitorProgram) -> str:
    """Canonical source form; parse(pretty(p)) is structurally equal to p."""
    lines = [f"constraint {_quote(program.name)} mode {program.mode.value}"]
    for t in program.tolerances:
        lines.append(f"tol {t.name} = {repr(t.value)} {CANONICAL_UNIT.get(t.dim, t.dim)}")
    lines.append("{ " + _print(program.body, 0) + " }")
    lines.append(f"fail {_quote(program.reason_template)}")
    return "\n".join(lines)


def padded_centroids(ring, eids, back: int) -> np.ndarray:
    """(len(eids), 3) centroids of the elements `eids` on a PointRing, `back`
    entries before the newest, as the ring computed them for every span
    layout before it read contiguous ones in place: each element's points
    gathered into one row padded with the ring's -0.0 column to the longest
    span, summed along the row and divided by the point counts."""
    spans = [ring.spans[eid] for eid in eids]
    index = np.full((len(spans), max((hi - lo for lo, hi in spans), default=0)), ring.n_points)
    for row, (lo, hi) in zip(index, spans):
        row[: hi - lo] = np.arange(lo, hi)
    counts = np.array([hi - lo for lo, hi in spans], dtype=np.float64).reshape(-1, 1)
    return ring.points[ring.slot(back)][index].sum(axis=1) / counts


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


# ---------------------------------------------------------------------------
# rendering one solid at a time

_EPS = 1e-9


def ray_box(half, o, d):
    """Slab intersection for a box of half extents half; o, d are (n, 3)
    in the box local frame. t of the nearest surface hit with t > eps,
    +inf for misses."""
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


def ray_cylinder(radius, height, o, d):
    """Nearest hit against a capped cylinder along local z; o, d are (n, 3)
    in its local frame. +inf for misses."""
    half_h = height / 2.0
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


def solid_hit(solid, o, d):
    if isinstance(solid, Box):
        return ray_box(solid.half_extents(), o, d)
    return ray_cylinder(solid.radius, solid.height, o, d)


def pixel_rays(cam: CameraModel):
    """Camera-frame rays (x/z, y/z, 1) of every pixel in raster order."""
    uu, vv = np.meshgrid(np.arange(cam.width, dtype=np.float64), np.arange(cam.height, dtype=np.float64))
    return np.stack([(uu - cam.cx) / cam.fx, (vv - cam.cy) / cam.fy, np.ones_like(uu)], axis=-1).reshape(-1, 3)


def candidate_pixels(pose: Pose, solid, cam: CameraModel):
    """Flat pixel indices whose rays can hit the posed solid's bounding
    sphere; None means all pixels (sphere spans the camera)."""
    c = cam.pose.inverse().apply(pose.t)
    rad = solid.bounding_radius
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


def raycast_depth_per_solid(solids, cam: CameraModel):
    """raycast_depth as it ran before it batched its kernels: one kernel
    call per solid on that solid's candidate rays, merged in solid order
    with a strict <."""
    n = cam.width * cam.height
    dirs_cam = pixel_rays(cam)
    r = cam.pose.rotation()
    dirs_w = dirs_cam @ r.T
    origin_w = cam.pose.t

    best_t = np.full(n, np.inf)
    inst = np.full(n, NONE_ID, dtype=np.int32)
    for pose, solid, instance_id in solids:
        idx = candidate_pixels(pose, solid, cam)
        if idx is not None and len(idx) == 0:
            continue
        rays = dirs_w if idx is None else dirs_w[idx]
        inv = pose.inverse()
        rot = inv.rotation()
        o_l = np.broadcast_to(inv.apply(origin_w), rays.shape)
        t = solid_hit(solid, o_l, rays @ rot.T)
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


def oracle_dbscan(pts: np.ndarray, eps: float, min_pts: int) -> np.ndarray:
    """Independent oracle: transitive closure over the eps-neighbor graph
    restricted to core points; border joins the lowest-id cluster with a core
    neighbor (clusters ordered by minimum core index)."""
    n = len(pts)
    d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
    nb = d <= eps
    core = nb.sum(axis=1) >= min_pts
    labels = np.full(n, NOISE, dtype=np.int64)
    cluster = 0
    for i in range(n):
        if not core[i] or labels[i] != NOISE:
            continue
        # BFS over core-core edges
        comp = {i}
        frontier = [i]
        while frontier:
            j = frontier.pop()
            for k in np.nonzero(nb[j] & core)[0]:
                if k not in comp:
                    comp.add(int(k))
                    frontier.append(int(k))
        for j in sorted(comp):
            labels[j] = cluster
        cluster += 1
    for i in range(n):
        if labels[i] != NOISE or core[i]:
            continue
        reach = [labels[j] for j in np.nonzero(nb[i])[0] if core[j]]
        if reach:
            labels[i] = min(reach)
    return labels


# rim samples per circle of a cylinder's footprint hull: the hull of the
# samples lies inside the true footprint by at most radius * (1 - cos(pi / n))
RIM_SAMPLES = 1024
# hull margins within this of zero, or of the rim's chord error, are
# ambiguous: rounding may put the center on either side of the boundary
HULL_SLACK = 1e-9


def _exact(x: float) -> int:
    """x * 2**1074 as an int: exact for every finite double."""
    num, den = x.as_integer_ratio()
    return num << (1074 - den.bit_length() + 1)


def convex_hull(points: np.ndarray) -> np.ndarray:
    """Vertices of the 2-D convex hull of points, counter-clockwise
    (Andrew's monotone chain). The turn tests are exact, on the points
    scaled to integers: a float test can keep a vertex that rounding put a
    hair off a straight run of samples, such as a rim seen edge-on, and
    the hull is then not convex there."""
    pts = sorted(set(map(tuple, np.asarray(points, dtype=np.float64).tolist())))
    exact = {p: (_exact(p[0]), _exact(p[1])) for p in pts}

    def half(seq):
        out: list = []
        for p in seq:
            (px, py) = exact[p]
            while len(out) >= 2:
                (ax, ay), (bx, by) = exact[out[-2]], exact[out[-1]]
                if (bx - ax) * (py - ay) - (by - ay) * (px - ax) > 0:
                    break
                out.pop()
            out.append(p)
        return out

    lower, upper = half(pts), half(reversed(pts))
    return np.array(lower[:-1] + upper[:-1])


def hull_margin(hull: np.ndarray, d) -> float:
    """Signed distance from d to the boundary of a counter-clockwise convex
    polygon: positive inside, negative outside (to the nearest edge line,
    which bounds the outside distance from below)."""
    a, b = hull, np.roll(hull, -1, axis=0)
    edge = b - a
    cross = edge[:, 0] * (d[1] - a[:, 1]) - edge[:, 1] * (d[0] - a[:, 0])
    return float(np.min(cross / np.hypot(edge[:, 0], edge[:, 1])))


def footprint_hull(shape, r: np.ndarray):
    """(hull, chord) of the xy footprint of a solid under rotation matrix r,
    about its centre: the convex hull of a box's 8 rotated corners (chord
    0), or of RIM_SAMPLES points on each of a cylinder's two rotated rims
    (chord the most the samples' hull falls short of the footprint)."""
    if isinstance(shape, Box):
        signs = np.array([[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)], dtype=np.float64)
        return convex_hull((signs * shape.half_extents() @ r.T)[:, :2]), 0.0
    ang = np.linspace(0.0, 2.0 * math.pi, RIM_SAMPLES, endpoint=False)
    ring = np.stack([shape.radius * np.cos(ang), shape.radius * np.sin(ang)], axis=1)
    rims = [np.column_stack([ring, np.full(len(ang), z)]) for z in (-shape.height / 2.0, shape.height / 2.0)]
    chord = shape.radius * (1.0 - math.cos(math.pi / RIM_SAMPLES))
    return convex_hull((np.vstack(rims) @ r.T)[:, :2]), chord


_HULLS: dict = {}  # (id(shape), r bytes) -> (shape, hull, chord); the shape pins its id


def footprint_holds(shape, r: np.ndarray, d):
    """True, False or None (too close to call) for whether the xy footprint
    hull of shape under rotation matrix r holds the xy offset d from its
    centre."""
    key = (id(shape), r.tobytes())
    if key not in _HULLS:
        if len(_HULLS) > 256:
            _HULLS.clear()
        _HULLS[key] = (shape, *footprint_hull(shape, r))
    _, hull, chord = _HULLS[key]
    margin = hull_margin(hull, np.asarray(d, dtype=np.float64))
    if margin > HULL_SLACK:
        return True
    if margin < -(chord + HULL_SLACK):
        return False
    return None


def settle_reference(state, oid):
    """(lowest rest z, highest rest z, in_bore) of
    Simulation.drop_to_support(oid) on `state`, from the loop it ran before
    its vectorised pass: every other object that is not held, in state
    order. A support is found from the object's own footprint hull
    (footprint_hull), not from supports_xy. An object whose hull boundary
    lies within rounding of the center may count or not, and the two rest
    heights bound those choices; they are equal when none does."""
    obj = state.objects[oid]
    xy = obj.pose.t[:2]
    bottom = obj.pose.t[2] - obj.world_half_z()
    sure = maybe = 0.0
    inside_bore = False
    for other in state.objects.values():
        if other.oid == oid or other.oid in state.held:
            continue
        if other.in_bore_xy(xy) and obj.lateral_half_extent() <= other.bore_radius:
            floor = float(other.pose.t[2]) + other.bore_floor_z
            if floor <= bottom + 1e-6:
                sure = max(sure, floor)
                maybe = max(maybe, floor)
                inside_bore = True
            continue
        holds = footprint_holds(other.shape, other.pose.rotation(), xy - other.pose.t[:2])
        if holds is not False:
            top = other.top_z()
            if top <= bottom + 1e-6:
                maybe = max(maybe, top)
                if holds:
                    sure = max(sure, top)
    return sure + obj.world_half_z(), maybe + obj.world_half_z(), inside_bore


class ReferencePlanner:
    """taskgen.Planner as it was before it resolved a failure from the
    subgoal it handed out: the failed sid comes in as `l_pre` and its base
    is split off at "#", a failed program's kind is looked up in a map of
    every program built in the episode, and recoveries wait in a pending
    queue in front of a nominal list and its index. Its KB is an argument."""

    def __init__(self, template: str, kb, scene_meta: dict, max_retries: int):
        self.template = template
        self.kb = kb
        self.rules = load_default_rules()
        self.max_retries = max_retries
        self._nominal = _BUILDERS[template](scene_meta)
        self._by_sid = dict(self._nominal)
        self._idx = 0
        self._pending: list = []  # (base sid, builder) queued recoveries
        self._retries: dict = {}
        self._dispatch_count: dict = {}
        self.kinds: dict = {}  # cid -> constraint kind
        self.current = None

    def _build(self, base_sid, builder, scene, relax=1.0):
        n = self._dispatch_count.get(base_sid, 0)
        self._dispatch_count[base_sid] = n + 1
        sid = base_sid if n == 0 else f"{base_sid}#r{n}"
        sg = builder(scene, _ProgramFactory(self.template, self.kb, relax), sid)
        for spec in sg.during + sg.completion:
            self.kinds[spec.cid] = spec.kind
        self.current = sg
        self._current_builder = (base_sid, builder)
        return sg

    def rebuild_relaxed(self, scene, relax=2.0):
        base, builder = self._current_builder
        return self._build(base, builder, scene, relax=relax)

    def kind_of(self, cid, reason=""):
        if reason == INTERNAL_ERROR_REASON:
            return "internal"
        return self.kinds.get(cid, "internal")

    def plan_next(self, scene, l_pre=None, f_pre=None):
        if f_pre is not None:
            outcome = self._handle_failure(l_pre, f_pre)
            if outcome is not None:
                return outcome
        if self._pending:
            base, builder = self._pending.pop(0)
            return self._build(base, builder, scene)
        if self._idx < len(self._nominal):
            base, builder = self._nominal[self._idx]
            self._idx += 1
            return self._build(base, builder, scene)
        return TaskDone()

    def _handle_failure(self, l_pre, f_pre):
        base = l_pre.split("#", 1)[0]
        self._retries[base] = self._retries.get(base, 0) + 1
        if self._retries[base] > self.max_retries:
            return TaskAbort(f"subgoal '{base}' failed {self._retries[base]} times: {f_pre.reason}")
        kind = self.kind_of(f_pre.cid, f_pre.reason)
        action = self.rules.lookup(self.template, kind, f_pre.mode)
        if action is None or action == "abort":
            return TaskAbort(f"no recovery for {self.template}.{kind}.{f_pre.mode.value}: {f_pre.reason}")
        failed_builder = self._by_sid.get(base)
        if failed_builder is None:
            return TaskAbort(f"cannot rebuild unknown subgoal '{base}'")
        queue: list = []
        if action in ("repick_then_retry", "repick_orient_then_retry"):
            oid = self.current.script_params.get("oid", "") if self.current else ""
            grasp_base = _GRASP_SID[self.template].format(oid=oid)
            queue.append((grasp_base, self._by_sid[grasp_base]))
            if action == "repick_orient_then_retry":
                orient_base = _ORIENT_SID[self.template]
                queue.append((orient_base, self._by_sid[orient_base]))
        elif action == "relevel_then_retry":
            queue.append(("relevel", self._relevel_builder()))
        queue.append((base, failed_builder))
        self._pending = queue + self._pending
        return None

    def _relevel_builder(self):
        program, (oid, part, etype) = _RELEVEL_PROGRAM[self.template]

        def relevel(scene, pf, sid, program=program, oid=oid, part=part, etype=etype):
            return Subgoal(
                sid, "re-level the held object", "relevel", {"oid": oid},
                (ElementSpec(oid, "body", POINT), ElementSpec(oid, part, etype)),
                during=(),
                completion=(program(pf, sid, 2, "on_completion"),),
            )

        return relevel


# ---------------------------------------------------------------------------
# extraction one bundle, one cloud and one cell at a time


def per_cloud_pairwise_sq(pts: np.ndarray) -> np.ndarray:
    """One cloud's (n, n) squared distances as max((|a|^2 + |b|^2) - 2 a.b,
    0), built in place ROW_BLOCK rows at a time."""
    sq = np.sum(pts * pts, axis=1)
    d = pts @ pts.T
    d *= 2.0
    for lo in range(0, len(pts), ROW_BLOCK):
        blk = d[lo : lo + ROW_BLOCK]
        np.subtract(np.add.outer(sq[lo : lo + ROW_BLOCK], sq), blk, out=blk)
    return np.clip(d, 0.0, None, out=d)


def per_cloud_outlier_stat(pts: np.ndarray, k: int, std_ratio: float):
    """One cloud's per-point mean distance to its k nearest neighbors, and
    its threshold mean + std_ratio * std of those."""
    d2 = per_cloud_pairwise_sq(pts)
    d2.partition(k, axis=1)
    near = np.sqrt(d2[:, : k + 1])
    near.sort(axis=1)
    stat = near[:, 1:].mean(axis=1)
    return stat, stat.mean() + std_ratio * stat.std()


def per_cloud_filter_outliers(points, k: int = OUTLIER_K, std_ratio: float = OUTLIER_STD_RATIO) -> np.ndarray:
    """Statistical outlier removal on one cloud: drop points whose mean
    distance to their k nearest neighbors exceeds mean + std_ratio * std of
    that statistic. Returns the input unchanged when n <= k."""
    pts = as_points(points)
    if len(pts) <= k:
        return pts
    stat, thresh = per_cloud_outlier_stat(pts, k, std_ratio)
    return pts[stat <= thresh]


def p90_one(values: np.ndarray) -> float:
    """np.percentile(values, 90) to the bit for one 1-D array of at least
    two values, none NaN, in Python floats."""
    at = (len(values) - 1) * 0.9
    k = math.floor(at)
    t = at - k
    lo, hi = np.sort(values)[k : k + 2].tolist()
    if t >= 0.5:
        return hi - (hi - lo) * (1 - t)
    return lo + (hi - lo) * t


def per_cell_representative(members: np.ndarray) -> np.ndarray:
    """One cell's representative: the centroid of its largest DBSCAN cluster
    (ties: lowest label), or of the whole cell if every member is noise."""
    d2 = squared_distances(members)
    np.fill_diagonal(d2, np.inf)
    gap = p90_one(np.sqrt(d2.min(axis=1))) if len(members) > 1 else LONE_POINT_GAP
    labels = dbscan(members, eps=max(EPS_FACTOR * gap, 1e-9), min_pts=DBSCAN_MIN_PTS, d2=d2)
    if labels.max() == NOISE:
        return members.mean(axis=0)
    best = np.argmax(np.bincount(labels + 1)[1:])
    return members[labels == best].mean(axis=0)


def element_from_cloud(cloud, etype, entity="", part="", constraint="") -> ConstraintElement:
    """One already-fused, already-filtered cloud through the batched
    extraction path (a batch of one)."""
    return elementizer._elements_from_clouds([cloud], [(etype, entity, part, constraint)])[0]


def per_cloud_element(cloud, etype, entity="", part="", constraint="") -> ConstraintElement:
    """One cloud's element, each cell's representative taken alone."""
    cloud = as_points(cloud)
    target = etype.target_points
    if len(cloud) < target:
        raise IrreducibleCloud(f"{entity}/{part}: {len(cloud)} points cannot yield {target}")
    if etype is POINT:
        eye = np.eye(3)
        reps = per_cell_representative(cloud @ eye.T).reshape(1, 3) @ eye
    else:
        rot = elementizer._canonical_rotation(cloud, etype)
        local = cloud @ rot.T
        bins = [local[idx] for idx in voxelize(local, etype.cells).values()]
        while len(bins) < target:
            order = sorted(range(len(bins)), key=lambda i: (-len(bins[i]), i))
            for i in order:
                halves = elementizer._split_bin(bins[i])
                if halves is not None:
                    bins[i : i + 1] = [halves[0], halves[1]]
                    break
            else:
                raise IrreducibleCloud(f"{entity}/{part}: cloud collapsed below {target} separable cells")
        reps = np.vstack([per_cell_representative(b) for b in bins]) @ rot
    pts, edges = elementizer._order_and_connect(reps, etype)
    element = ConstraintElement(-1, etype, pts, edges, entity, part, constraint)
    if etype is SURFACE:
        fit_plane(element.points)
    return element


def per_bundle_extract(bundle, depths, cams) -> ConstraintElement:
    """extract_element on one bundle, its cloud subsampled through
    np.unique and filtered and reduced alone."""
    cloud = fuse_views(bundle, depths, cams)
    if len(cloud) > MAX_CLOUD_POINTS:
        cloud = cloud[np.unique(np.linspace(0, len(cloud) - 1, MAX_CLOUD_POINTS).astype(np.int64))]
    cloud = per_cloud_filter_outliers(cloud)
    return per_cloud_element(cloud, bundle.element_type, bundle.entity, bundle.part, bundle.constraint)


def read_log_reference(path) -> list:
    """camctl.read_log as it checked each line before it hashed the line's
    own bytes: decode, pop the checksum, hash prev + _canonical(rest)."""
    records = []
    prev = ""
    with open(path, encoding="utf-8", errors="replace") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except (ValueError, RecursionError) as err:
                raise TruncatedLog(f"{path}:{lineno}: undecodable line ({err})") from None
            if not isinstance(rec, dict):
                raise LogChecksumError(f"{path}:{lineno}: not a log record")
            chk = rec.pop("checksum", None)
            want = hashlib.sha256((prev + _canonical(rec)).encode()).hexdigest()[:16]
            if chk != want:
                raise LogChecksumError(f"{path}:{lineno}: checksum mismatch")
            prev = chk
            records.append(rec)
    if not records or records[-1].get("kind") != "eof":
        raise TruncatedLog(f"{path}: missing end-of-log marker")
    eof = records.pop()
    if eof.get("lines") != len(records):
        raise TruncatedLog(f"{path}: line count mismatch")
    return records
