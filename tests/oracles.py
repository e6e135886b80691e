"""References that only tests use: pixel unprojection written with the
per-call divmod arithmetic, mask unprojection, projection, the distance
from a point to a solid's surface, a voxel grid's frame, the settling loop
that tests every object, the planner that resolved a failure from the
failed sid and an episode-long kind map, and extraction one bundle, one
cloud and one cell at a time, as it ran before it batched them.

Test modules import this file by name (pytest puts tests/ on sys.path)."""

from __future__ import annotations

import math

import numpy as np

from camlab import elementizer
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
from camlab.errors import DimensionMismatch, IrreducibleCloud
from camlab.geom3d import (
    ROW_BLOCK,
    Box,
    CameraModel,
    Cylinder,
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
    lab = dbscan(members, eps=max(EPS_FACTOR * gap, 1e-9), min_pts=DBSCAN_MIN_PTS, d2=d2)
    if lab.n_clusters == 0:
        return members.mean(axis=0)
    best = np.argmax(np.bincount(lab.labels + 1)[1:])
    return members[lab.labels == best].mean(axis=0)


def per_cloud_element(cloud, etype, entity="", part="", constraint="") -> ConstraintElement:
    """element_from_cloud on one cloud, each cell's representative taken
    alone."""
    cloud = as_points(cloud)
    target = etype.target_points
    if len(cloud) < target:
        raise IrreducibleCloud(f"{entity}/{part}: {len(cloud)} points cannot yield {target}")
    if etype is POINT:
        eye = np.eye(3)
        reps = per_cell_representative(cloud @ eye.T).reshape(1, 3) @ eye
    else:
        rot = elementizer._canonical_rotation(cloud, etype)
        grid = voxelize(cloud @ rot.T, etype.cells)
        bins = [grid.points[idx] for idx in grid.cells.values()]
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
