"""Convert per-view part pixels + depth into constraint elements: points,
lines and surfaces.

Each rendered view is labelled once (LabelIndex: its valid pixels and their
instance ids); an element's pixels are picked from those.
Pipeline per element: fuse those depth pixels from all views into one world
cloud, drop statistical outliers, rotate into the kind's canonical frame,
voxelize (the kind's cell layout), pick one representative per occupied cell
via DBSCAN, split cells until there is one per representative the kind needs
(a point's one cell is the whole cloud, so it skips the frame and the
cells), then connect the points (consecutive along the axis for lines, convex hull
cycle for surfaces).

Every iteration order is fixed, so identical inputs give bit-identical
elements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from camlab.errors import EmptyPointSet, IrreducibleCloud
from camlab.geom3d import (
    ROW_BLOCK,
    as_points,
    cross,
    dbscan,
    fit_line,
    fit_plane,
    squared_distances,
    unit,
    unproject_pixels,
    voxelize,
)

__all__ = [
    "ElementKind",
    "POINT",
    "LINE",
    "SURFACE",
    "LabelIndex",
    "MaskBundle",
    "ConstraintElement",
    "ElementSet",
    "fuse_views",
    "filter_outliers",
    "element_from_cloud",
    "extract_element",
    "end_effector_element",
    "make_element_set",
    "element_set_fingerprint",
]


class ElementKind(Enum):
    """An element's kind and what extraction needs to know of it: the
    representative count it aims for, the fewest points a valid element
    holds, and the voxel cells per canonical axis (a line's fitted direction
    is the first axis, a surface's fitted normal the third)."""

    POINT = ("point", 1, 1, (1, 1, 1))
    LINE = ("line", 2, 2, (2, 1, 1))
    SURFACE = ("surface", 4, 3, (2, 2, 1))

    def __new__(cls, value: str, target_points: int, min_points: int, cells: tuple):
        kind = object.__new__(cls)
        kind._value_ = value
        kind.target_points = target_points
        kind.min_points = min_points
        kind.cells = cells
        return kind


POINT, LINE, SURFACE = ElementKind


class LabelIndex:
    """One view's valid pixels (finite positive depth) as ascending flat
    indices, with the instance id of each: one pass over the images per
    view, after which an element reads only the valid pixels, not the image.

    Sorting them by id instead would make `of(iid)` a slice, but the sort
    costs more than ~15 comparisons over the valid pixels, and most binds
    read 1-3 elements."""

    __slots__ = ("pixels", "ids")

    def __init__(self, depth: np.ndarray, inst: np.ndarray):
        self.pixels = np.flatnonzero((depth > 0) & np.isfinite(depth))
        self.ids = inst.ravel()[self.pixels]

    def of(self, iid: int) -> np.ndarray:
        """Ascending flat indices of the valid pixels labelled iid."""
        return self.pixels[self.ids == iid]


@dataclass(frozen=True)
class MaskBundle:
    pixels: tuple  # per view, the part's valid pixels as ascending flat indices
    element_type: ElementKind
    constraint: str
    entity: str
    part: str

    def __post_init__(self):
        object.__setattr__(self, "pixels", tuple(self.pixels))


# annotation palette, cycled by element id
COLORS = ("red", "green", "blue", "yellow", "magenta", "cyan", "orange", "purple")


@dataclass(frozen=True)
class ConstraintElement:
    eid: int
    etype: ElementKind
    points: np.ndarray  # (k, 3) world, ordered
    connections: tuple  # ((i, j), ...) index pairs
    entity: str
    part: str
    constraint: str
    color: str = "red"

    def __post_init__(self):
        pts = as_points(self.points)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "connections", tuple(tuple(c) for c in self.connections))
        if len(pts) < self.etype.min_points:
            raise ValueError(
                f"{self.etype.value} element needs >= {self.etype.min_points} points, got {len(pts)}"
            )
        for i, j in self.connections:
            if not (0 <= i < len(pts) and 0 <= j < len(pts)):
                raise ValueError(f"connection ({i}, {j}) out of range")


@dataclass(frozen=True)
class ElementSet:
    elements: tuple
    subgoal_id: str

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        ids = [e.eid for e in self.elements]
        if ids != list(range(len(ids))):
            raise ValueError(f"element ids must be contiguous from 0, got {ids}")


def make_element_set(protos, subgoal_id: str) -> ElementSet:
    """Assign contiguous ids and palette colors to extracted elements."""
    out = []
    for i, proto in enumerate(protos):
        out.append(replace(proto, eid=i, color=COLORS[i % len(COLORS)]))
    return ElementSet(tuple(out), subgoal_id)


# extraction constants: outlier filter, DBSCAN per cell (eps = EPS_FACTOR x
# the p90 nearest-neighbor gap, which tolerates pixel-aliasing gaps in thin
# masks; a lone point's gap counts as LONE_POINT_GAP), and the cap on fused
# cloud points (evenly subsampled above it)
OUTLIER_K = 8
OUTLIER_STD_RATIO = 2.0
EPS_FACTOR = 2.0
LONE_POINT_GAP = 1e-3
DBSCAN_MIN_PTS = 3
MAX_CLOUD_POINTS = 500


# ---------------------------------------------------------------------------
# pipeline stages


def fuse_views(bundle: MaskBundle, depths, cams) -> np.ndarray:
    """Unproject the part pixels of every view and concatenate, view order
    then raster order. Raises EmptyPointSet when no view contributes a point."""
    if len(bundle.pixels) == 0 or len(bundle.pixels) != len(depths) or len(depths) != len(cams):
        raise ValueError("need matching, nonempty views/depths/cams")
    clouds = [unproject_pixels(depth, pix, cam) for pix, depth, cam in zip(bundle.pixels, depths, cams)]
    cloud = np.concatenate(clouds, axis=0)
    if len(cloud) == 0:
        raise EmptyPointSet(f"no masked depth pixels for {bundle.entity}/{bundle.part}")
    return cloud


def _pairwise_sq(pts: np.ndarray) -> np.ndarray:
    """(n, n) squared distances as max((|a|^2 + |b|^2) - 2 a.b, 0), built in
    place in one (n, n) array, ROW_BLOCK rows at a time, so a 500-point
    cloud's matrix stays the only large array alive. sqrt is monotone and
    correctly rounded, so callers take the root only of the entries they
    read and get the bits of a full sqrt."""
    sq = np.sum(pts * pts, axis=1)
    d = pts @ pts.T
    d *= 2.0
    for lo in range(0, len(pts), ROW_BLOCK):
        blk = d[lo : lo + ROW_BLOCK]
        np.subtract(np.add.outer(sq[lo : lo + ROW_BLOCK], sq), blk, out=blk)
    return np.clip(d, 0.0, None, out=d)


def filter_outliers(points, k: int = OUTLIER_K, std_ratio: float = OUTLIER_STD_RATIO) -> np.ndarray:
    """Statistical outlier removal: drop points whose mean distance to their k
    nearest neighbors exceeds mean + std_ratio * std of that statistic.
    Returns the input unchanged when n <= k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    pts = as_points(points)
    n = len(pts)
    if n <= k:
        return pts
    d2 = _pairwise_sq(pts)
    d2.partition(k, axis=1)  # each row's k + 1 smallest first; root and sort only those
    near = np.sqrt(d2[:, : k + 1])
    near.sort(axis=1)
    stat = near[:, 1:].mean(axis=1)  # column 0 is self-distance
    thresh = stat.mean() + std_ratio * stat.std()
    return pts[stat <= thresh]


def _least_aligned_axis(v: np.ndarray) -> np.ndarray:
    dots = np.abs(v)
    return np.eye(3)[int(np.argmin(dots))]


def _canonical_rotation(cloud: np.ndarray, etype: ElementKind) -> np.ndarray:
    """Rotation R with rows = canonical axes so that cloud @ R.T puts the
    fitted direction on x (LINE) or the fitted normal on z (SURFACE; a
    point has no canonical frame)."""
    if etype is LINE:
        u, _, _ = fit_line(cloud)
        a = _least_aligned_axis(u)
        v = unit(cross(u, a))
        w = cross(u, v)
        return np.vstack([u, v, w])
    w, _, _ = fit_plane(cloud)
    a = _least_aligned_axis(w)
    u = unit(cross(a, w))
    v = cross(w, u)
    return np.vstack([u, v, w])


def _p90(values: np.ndarray) -> float:
    """np.percentile(values, 90) to the bit, for a 1-D float array of at
    least two values, none NaN: numpy's 'linear' method at virtual index
    (n - 1) * 0.9, interpolated as numpy's _lerp does (from the upper
    neighbor when the weight is >= 0.5), minus the generic quantile
    machinery."""
    at = (len(values) - 1) * 0.9  # < n - 1, so both neighbors exist
    k = math.floor(at)
    t = at - k
    lo, hi = np.sort(values)[k : k + 2].tolist()  # on a cell's <= 500 values a sort beats partition
    if t >= 0.5:
        return hi - (hi - lo) * (1 - t)
    return lo + (hi - lo) * t


def _representative(members: np.ndarray) -> np.ndarray:
    """Centroid of the largest DBSCAN cluster (ties: lowest label); if every
    member is noise, fall back to the centroid of the whole cell.

    One exact distance matrix serves both eps and DBSCAN. eps scales with
    the p90 nearest-neighbor gap: clouds fused from several views mix pixel
    densities, and a mean-based scale under-sizes eps for the sparsest view
    and fragments thin masks."""
    d2 = squared_distances(members)
    np.fill_diagonal(d2, np.inf)
    gap = _p90(np.sqrt(d2.min(axis=1))) if len(members) > 1 else LONE_POINT_GAP
    lab = dbscan(members, eps=max(EPS_FACTOR * gap, 1e-9), min_pts=DBSCAN_MIN_PTS, d2=d2)
    if lab.n_clusters == 0:
        return members.mean(axis=0)
    best = np.argmax(np.bincount(lab.labels + 1)[1:])  # first maximum: lowest label
    return members[lab.labels == best].mean(axis=0)


def _split_bin(members: np.ndarray):
    """Split a cell's members at the midpoint of their widest axis; returns
    (low, high) halves or None when the members cannot be separated."""
    lo = members.min(axis=0)
    hi = members.max(axis=0)
    for axis in np.argsort(-(hi - lo)):
        mid = 0.5 * (lo[axis] + hi[axis])
        below = members[:, axis] <= mid
        if below.any() and (~below).any():
            return members[below], members[~below]
    return None


def _convex_hull_2d(pts2: np.ndarray) -> list:
    """Andrew's monotone chain; returns hull vertex indices in ccw cycle order
    starting from the lexicographically smallest point."""
    order = sorted(range(len(pts2)), key=lambda i: (pts2[i, 0], pts2[i, 1], i))

    def turn(o, a, b):
        return (pts2[a, 0] - pts2[o, 0]) * (pts2[b, 1] - pts2[o, 1]) - (
            pts2[a, 1] - pts2[o, 1]
        ) * (pts2[b, 0] - pts2[o, 0])

    lower: list = []
    for i in order:
        while len(lower) >= 2 and turn(lower[-2], lower[-1], i) <= 0:
            lower.pop()
        lower.append(i)
    upper: list = []
    for i in reversed(order):
        while len(upper) >= 2 and turn(upper[-2], upper[-1], i) <= 0:
            upper.pop()
        upper.append(i)
    return lower[:-1] + upper[:-1]


def _order_and_connect(reps: np.ndarray, etype: ElementKind):
    """Order points and build connection edges per element kind, in the
    canonical frame of the representatives themselves."""
    if etype is POINT:
        return reps, ()
    rot = _canonical_rotation(reps, etype)
    if etype is LINE:
        proj = reps @ rot[0]
        order = sorted(range(len(reps)), key=lambda i: (proj[i], i))
        pts = reps[order]
        edges = tuple((i, i + 1) for i in range(len(pts) - 1))
        return pts, edges
    flat = (reps - reps.mean(axis=0)) @ rot[:2].T
    hull = _convex_hull_2d(flat)
    interior = [i for i in range(len(reps)) if i not in hull]
    pts = reps[hull + interior]
    h = len(hull)
    edges = tuple((i, (i + 1) % h) for i in range(h))
    return pts, edges


def _binned_representatives(cloud: np.ndarray, etype: ElementKind, entity: str, part: str) -> np.ndarray:
    """The kind's representatives of a line or surface cloud, in the world
    frame: voxelize the cloud in its canonical frame, split bins until there
    is one per representative, and take each bin's representative."""
    target = etype.target_points
    rot = _canonical_rotation(cloud, etype)
    local = cloud @ rot.T
    grid = voxelize(local, etype.cells)
    bins = [grid.points[idx] for idx in grid.cells.values()]

    # grow: recursively split the most populated cell until enough bins exist
    while len(bins) < target:
        order = sorted(range(len(bins)), key=lambda i: (-len(bins[i]), i))
        for i in order:
            halves = _split_bin(bins[i])
            if halves is not None:
                bins[i : i + 1] = [halves[0], halves[1]]
                break
        else:
            raise IrreducibleCloud(f"{entity}/{part}: cloud collapsed below {target} separable cells")

    # the kind's cells hold at most `target` bins and growing stops there
    reps = np.vstack([_representative(b) for b in bins])
    return reps @ rot  # back to the world frame


def element_from_cloud(
    cloud,
    etype: ElementKind,
    entity: str = "",
    part: str = "",
    constraint: str = "",
) -> ConstraintElement:
    """Turn an already-fused, already-filtered cloud into an element.

    Raises DegenerateGeometry (e.g. a surface cloud that is collinear) or
    IrreducibleCloud (cannot reach the kind's representative count even
    after recursive cell splitting).
    """
    cloud = as_points(cloud)
    target = etype.target_points
    if len(cloud) < target:
        raise IrreducibleCloud(f"{entity}/{part}: {len(cloud)} points cannot yield {target}")

    if etype is POINT:
        # the binned path for one (1, 1, 1) cell, a target of 1 and the
        # identity rotation is one bin holding the whole cloud; the identity
        # products stay, since they can turn -0.0 into +0.0
        eye = np.eye(3)
        reps = _representative(cloud @ eye.T).reshape(1, 3) @ eye
    else:
        reps = _binned_representatives(cloud, etype, entity, part)
    pts, edges = _order_and_connect(reps, etype)
    element = ConstraintElement(
        eid=-1,
        etype=etype,
        points=pts,
        connections=edges,
        entity=entity,
        part=part,
        constraint=constraint,
    )
    if etype is SURFACE:
        fit_plane(element.points)  # raises DegenerateGeometry if collinear
    return element


def extract_element(bundle: MaskBundle, depths, cams) -> ConstraintElement:
    """Run the full pipeline for one bundle of part pixels, on at most MAX_CLOUD_POINTS
    fused points.

    Raises EmptyPointSet (nothing visible), DegenerateGeometry, or
    IrreducibleCloud; see element_from_cloud.
    """
    cloud = fuse_views(bundle, depths, cams)
    if len(cloud) > MAX_CLOUD_POINTS:
        idx = np.unique(np.linspace(0, len(cloud) - 1, MAX_CLOUD_POINTS).astype(np.int64))
        cloud = cloud[idx]
    cloud = filter_outliers(cloud)
    return element_from_cloud(cloud, bundle.element_type, bundle.entity, bundle.part, bundle.constraint)


def end_effector_element(fk_points, entity: str = "end_effector") -> ConstraintElement:
    """Wrap the one forward-kinematics point verbatim as a POINT; bypasses
    the pixel pipeline entirely. Raises EmptyPointSet for no point and
    ValueError for more than one."""
    pts = np.asarray(fk_points, dtype=np.float64).reshape(-1, 3)
    if len(pts) == 0:
        raise EmptyPointSet("end_effector_element needs one point")
    if len(pts) > 1:
        raise ValueError(f"end_effector_element takes one point, got {len(pts)}")
    return ConstraintElement(
        eid=-1,
        etype=POINT,
        points=pts,
        connections=(),
        entity=entity,
        part="fk",
        constraint="",
    )


def element_set_fingerprint(element_set: ElementSet) -> str:
    """Stable hex digest of the full element set (bit-exact points)."""
    import hashlib

    h = hashlib.sha256()
    h.update(element_set.subgoal_id.encode())
    for el in element_set.elements:
        h.update(f"{el.eid}|{el.etype.value}|{el.entity}|{el.part}|{el.constraint}|{el.color}".encode())
        h.update(str(el.connections).encode())
        for p in el.points:
            h.update(" ".join(float(x).hex() for x in p).encode())
    return h.hexdigest()
