"""Convert per-view part pixels + depth into constraint elements: points,
lines and surfaces.

Each rendered view is labelled once (LabelIndex: its valid pixels and their
instance ids); an element's pixels are picked from those.
Pipeline per element: fuse those depth pixels from all views into one world
cloud, drop statistical outliers, rotate into the kind's canonical frame,
voxelize (the kind's cell layout), split cells until there is one per
representative the kind needs (a point's one cell is the whole cloud, so it
skips the frame and the cells), pick one representative per cell via
DBSCAN, then connect the points (consecutive along the axis for lines,
convex hull cycle for surfaces). extract_element runs the outlier filter
and the representatives of all its bundles in padded batches, with the
bits of running them one element at a time.

Every iteration order is fixed, so identical inputs give bit-identical
elements.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from camlab.errors import CamlabError, EmptyPointSet, IrreducibleCloud
from camlab.geom3d import (
    NOISE,
    ROW_BLOCK,
    as_points,
    cross,
    dbscan,
    fit_line,
    fit_plane,
    pad_blocks,
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

    Sorting them by id instead would make `of(iid)` a slice. The sort costs
    about as much as ~15 comparisons over the valid pixels: a disturbed bind
    reads 1-3 elements, where the comparisons win, and a sweep_half bind
    reads 40, where a stable argsort would save only ~0.05 ms per view
    (5-7k valid pixels), under 1% of that bind."""

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


def _batches(sizes) -> list:
    """Indices of the clouds or cells of the given sizes, in batches. In
    ascending size (ties by index), a batch takes the next one while its
    padded stack stays within the (4 * ROW_BLOCK)^2 entries that
    squared_distances builds whole, and while the new size is within
    ROW_BLOCK of the batch's smallest. Beyond either, padding and cache
    misses cost more than the fixed per-call cost that batching saves, so a
    cloud of more than 4 * ROW_BLOCK points is a batch of one."""
    batches: list = []
    for i in sorted(range(len(sizes)), key=lambda i: (sizes[i], i)):
        if (
            batches
            and (len(batches[-1]) + 1) * sizes[i] ** 2 <= (4 * ROW_BLOCK) ** 2
            and sizes[i] - sizes[batches[-1][0]] <= ROW_BLOCK
        ):
            batches[-1].append(i)
        else:
            batches.append([i])
    return batches


def _pairwise_sq(clouds) -> np.ndarray:
    """(m, N, N) stack of each cloud's squared distances as
    max((|a|^2 + |b|^2) - 2 a.b, 0), N the largest cloud, +inf outside each
    cloud's (n, n) block. Each a.b matrix is one BLAS product per cloud
    (such a product is not bit-invariant under row subsets or padding); the
    rest is elementwise on the padded stack, ROW_BLOCK rows of every cloud
    at a time, so a 500-point cloud's matrix stays the only large array
    alive. sqrt is monotone and correctly rounded, so callers take the root
    only of the entries they read and get the bits of a full sqrt."""
    cat = np.concatenate(clouds)
    sq, _ = pad_blocks(np.sum(cat * cat, axis=1), [len(c) for c in clouds], np.inf)
    n = sq.shape[1]
    if len(clouds) == 1:  # no padding: the product is the stack, without a copy
        d = (clouds[0] @ clouds[0].T)[None]
    else:
        d = np.zeros((len(clouds), n, n))
        for blk, pts in zip(d, clouds):
            blk[: len(pts), : len(pts)] = pts @ pts.T
    d *= 2.0
    for lo in range(0, n, ROW_BLOCK):
        blk = d[:, lo : lo + ROW_BLOCK]
        np.subtract(sq[:, lo : lo + ROW_BLOCK, None] + sq[:, None, :], blk, out=blk)
    return np.clip(d, 0.0, None, out=d)


def _outlier_stats(clouds, k: int, std_ratio: float):
    """For a batch of clouds of more than k points each: the (m, N) stack
    of each point's mean distance to its k nearest neighbors (+inf on
    padding), and each cloud's threshold, mean + std_ratio * std of its
    points' statistics."""
    d2 = _pairwise_sq(clouds)
    d2.partition(k, axis=2)  # each row's k + 1 smallest first; root and sort only those
    near = np.sqrt(d2[:, :, : k + 1])
    near.sort(axis=2)
    stats = near[:, :, 1:].mean(axis=2)  # column 0 is self-distance
    # a cloud's mean and std sum in an order set by its length, so they are
    # taken on the stacked rows of each run of clouds of one length
    thresh = np.empty(len(clouds))
    lo = 0
    for n, run in itertools.groupby(len(c) for c in clouds):
        hi = lo + len(list(run))
        stat = stats[lo:hi, :n]
        thresh[lo:hi] = stat.mean(axis=1) + std_ratio * stat.std(axis=1)
        lo = hi
    return stats, thresh


def filter_outliers(clouds, k: int = OUTLIER_K, std_ratio: float = OUTLIER_STD_RATIO) -> list:
    """Statistical outlier removal on each cloud of a batch: drop the points
    whose mean distance to their k nearest neighbors exceeds mean +
    std_ratio * std of that statistic over their cloud. Returns one array per
    cloud, the input itself when it has n <= k points."""
    if k < 1:
        raise ValueError("k must be >= 1")
    out = [as_points(c) for c in clouds]
    big = [i for i, pts in enumerate(out) if len(pts) > k]
    for batch in _batches([len(out[i]) for i in big]):
        group = [out[big[j]] for j in batch]
        stats, thresh = _outlier_stats(group, k, std_ratio)
        valid = np.arange(stats.shape[1]) < np.array([len(c) for c in group])[:, None]
        keep = (stats <= thresh[:, None]) & valid
        kept = np.concatenate(group)[keep[valid]]
        ends = keep.sum(axis=1).cumsum().tolist()
        for j, lo, hi in zip(batch, [0, *ends], ends):
            out[big[j]] = kept[lo:hi]
    return out


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


def _p90(ascending: np.ndarray, count: int) -> float:
    """np.percentile(values, 90) to the bit, where `ascending` starts with
    the count values (at least two, none NaN) in ascending order: numpy's
    'linear' method at virtual index (count - 1) * 0.9, interpolated as
    numpy's _lerp does (from the upper neighbor when the weight is >= 0.5),
    minus the generic quantile machinery."""
    at = (count - 1) * 0.9  # < count - 1, so both neighbors are values
    k = math.floor(at)
    t = at - k
    lo, hi = ascending[k : k + 2].tolist()
    if t >= 0.5:
        return hi - (hi - lo) * (1 - t)
    return lo + (hi - lo) * t


def _representatives(cells) -> np.ndarray:
    """(m, 3): per cell, the centroid of its largest DBSCAN cluster (ties:
    lowest label), or of the whole cell if every member is noise.

    The cells are worked in padded batches. One exact distance stack serves
    both eps and DBSCAN. eps scales with the p90 nearest-neighbor gap:
    clouds fused from several views mix pixel densities, and a mean-based
    scale under-sizes eps for the sparsest view and fragments thin masks.
    The centroids sum in an order set by the member count, so they are taken
    per cell."""
    reps = np.empty((len(cells), 3))
    for batch in _batches([len(c) for c in cells]):
        group = [cells[i] for i in batch]
        sizes = [len(c) for c in group]
        points = np.concatenate(group)
        padded, valid = pad_blocks(points, sizes, 0.0)
        m, n = valid.shape
        d2 = squared_distances(padded)
        if min(sizes) < n:
            np.copyto(d2, np.inf, where=~(valid[:, :, None] & valid[:, None, :]))
        d2.reshape(m, n * n)[:, :: n + 1] = np.inf
        gaps = np.sort(np.sqrt(d2.min(axis=2)), axis=1)  # padding's inf sorts last
        eps = [
            max(EPS_FACTOR * (_p90(row, size) if size > 1 else LONE_POINT_GAP), 1e-9)
            for row, size in zip(gaps, sizes)
        ]
        labels = dbscan(points, eps, DBSCAN_MIN_PTS, sizes=sizes, d2=d2).labels
        # per cell, each label's member count; the first maximum is the lowest label
        clustered = labels >= 0
        counts = np.bincount(
            (np.arange(0, m * n, n).repeat(sizes) + labels)[clustered], minlength=m * n
        ).reshape(m, n)
        best = np.where(counts.any(axis=1), counts.argmax(axis=1), NOISE).tolist()
        for i, members, b, hi in zip(batch, group, best, itertools.accumulate(sizes)):
            if b != NOISE:
                members = members[labels[hi - len(members) : hi] == b]
            reps[i] = members.mean(axis=0)
    return reps


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


def _cells(cloud: np.ndarray, etype: ElementKind, entity: str, part: str):
    """The cells whose representatives make an element of a cloud, in the
    frame they are taken in, and the rotation R that takes them back to the
    world frame (reps @ R).

    A line or surface cloud is voxelized in its canonical frame, and bins
    are split until there is one per representative. A point's one
    (1, 1, 1) cell under the identity rotation is the whole cloud, so it
    skips the frame fit and the voxel pass; the identity products stay,
    since they can turn -0.0 into +0.0."""
    target = etype.target_points
    if len(cloud) < target:
        raise IrreducibleCloud(f"{entity}/{part}: {len(cloud)} points cannot yield {target}")
    if etype is POINT:
        eye = np.eye(3)
        return [cloud @ eye.T], eye
    rot = _canonical_rotation(cloud, etype)
    grid = voxelize(cloud @ rot.T, etype.cells)
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
    return bins, rot


def _elements_from_clouds(clouds, specs) -> list:
    """Elements of already-fused, already-filtered clouds, one per spec
    (element kind, entity, part, constraint), with the representatives of
    all their cells taken in one batch. Raises the first failure in spec
    order, as extracting them one by one would."""
    cells, frames, failure = [], [], None
    for cloud, (etype, entity, part, _) in zip(clouds, specs):
        try:
            bins, rot = _cells(as_points(cloud), etype, entity, part)
        except CamlabError as exc:  # the later clouds cannot change what is raised
            failure = exc
            break
        frames.append((len(cells), len(bins), rot))
        cells.extend(bins)
    reps = _representatives(cells)
    elements = []
    for (lo, n, rot), (etype, entity, part, constraint) in zip(frames, specs):
        pts, edges = _order_and_connect(reps[lo : lo + n] @ rot, etype)
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
        elements.append(element)
    if failure is not None:
        raise failure
    return elements


def element_from_cloud(
    cloud,
    etype: ElementKind,
    entity: str = "",
    part: str = "",
    constraint: str = "",
) -> ConstraintElement:
    """Turn one already-fused, already-filtered cloud into an element (a
    batch of one).

    Raises DegenerateGeometry (e.g. a surface cloud that is collinear) or
    IrreducibleCloud (cannot reach the kind's representative count even
    after recursive cell splitting).
    """
    return _elements_from_clouds([cloud], [(etype, entity, part, constraint)])[0]


def _subsample(cloud: np.ndarray) -> np.ndarray:
    """The cloud, evenly subsampled to MAX_CLOUD_POINTS rows when it is
    longer. The linspace step then exceeds 1, so the truncated indices
    strictly increase: no index repeats."""
    if len(cloud) <= MAX_CLOUD_POINTS:
        return cloud
    return cloud[np.linspace(0, len(cloud) - 1, MAX_CLOUD_POINTS).astype(np.int64)]


def extract_element(bundles, depths, cams) -> list:
    """Run the full pipeline for each bundle of part pixels, on at most
    MAX_CLOUD_POINTS fused points each: fusion per bundle, then the outlier
    filter and the representatives of all of them in one batch. Returns one
    element per bundle.

    Raises the first failure in bundle order, as extracting them one by one
    would: EmptyPointSet (nothing visible), DegenerateGeometry, or
    IrreducibleCloud; see element_from_cloud.
    """
    clouds, failure = [], None
    for bundle in bundles:
        try:
            cloud = fuse_views(bundle, depths, cams)
        except CamlabError as exc:  # the later bundles cannot change what is raised
            failure = exc
            break
        clouds.append(_subsample(cloud))
    specs = [(b.element_type, b.entity, b.part, b.constraint) for b in bundles[: len(clouds)]]
    elements = _elements_from_clouds(filter_outliers(clouds), specs)
    if failure is not None:
        raise failure
    return elements


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
