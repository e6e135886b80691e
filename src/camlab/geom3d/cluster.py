"""Voxel grids and deterministic DBSCAN.

Both operations fix every iteration order (input order, ascending neighbor
indices, lexicographic cell keys) so the element pipeline downstream is
bit-reproducible.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from camlab.errors import EmptyPointSet
from camlab.geom3d.core import as_points

__all__ = ["NOISE", "VoxelGrid", "voxelize", "ClusterLabeling", "dbscan"]

NOISE = -1
_UNLABELED = -2


@dataclass(frozen=True)
class VoxelGrid:
    origin: np.ndarray  # (3,) bounding-box minimum
    cell_size: np.ndarray  # (3,) strictly positive
    cells: dict  # (i, j, k) -> np.ndarray of point indices, keys sorted
    points: np.ndarray  # the (n, 3) cloud the indices refer to


def voxelize(points, cells_per_axis) -> VoxelGrid:
    """Partition points into an axis-aligned grid over their bounding box.

    The box is inflated by 1e-6 m so boundary points index inside the grid;
    axes with zero extent get cell size 1e-6 m. Every point lands in exactly
    one cell.
    """
    pts = as_points(points)
    if len(pts) == 0:
        raise EmptyPointSet("voxelize needs at least one point")
    n = np.asarray(cells_per_axis, dtype=np.int64)
    if n.shape != (3,) or np.any(n < 1):
        raise ValueError(f"cells_per_axis must be 3 ints >= 1, got {cells_per_axis}")
    lo = pts.min(axis=0)
    extent = pts.max(axis=0) - lo
    cell = np.where(extent > 0, (extent + 1e-6) / n, 1e-6)
    idx = np.floor((pts - lo) / cell).astype(np.int64)
    idx = np.clip(idx, 0, n - 1)
    cells: dict = {}
    for i, key in enumerate(map(tuple, idx)):
        cells.setdefault(key, []).append(i)
    ordered = {k: np.array(cells[k], dtype=np.int64) for k in sorted(cells)}
    return VoxelGrid(origin=lo, cell_size=cell, cells=ordered, points=pts)


@dataclass(frozen=True)
class ClusterLabeling:
    labels: np.ndarray  # (n,) cluster id >= 0 or NOISE
    eps: float
    min_pts: int

    @property
    def n_clusters(self) -> int:
        return int(self.labels.max()) + 1 if np.any(self.labels >= 0) else 0


def dbscan(points, eps: float, min_pts: int) -> ClusterLabeling:
    """Standard DBSCAN with fixed tie-breaking.

    Points are processed in input order, neighborhoods (distance <= eps,
    self included) are scanned in ascending index order, and a border point
    joins the first core cluster that reaches it.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if min_pts < 1:
        raise ValueError("min_pts must be >= 1")
    pts = as_points(points)
    n = len(pts)
    labels = np.full(n, _UNLABELED, dtype=np.int64)

    # one vectorized adjacency precompute; rows give ascending neighbor indices
    d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
    adj = d2 <= eps * eps

    def neighborhood(i: int) -> np.ndarray:
        return np.nonzero(adj[i])[0]

    cluster = 0
    for i in range(n):
        if labels[i] != _UNLABELED:
            continue
        nb = neighborhood(i)
        if len(nb) < min_pts:
            labels[i] = NOISE
            continue
        labels[i] = cluster
        queue = deque(int(j) for j in nb if j != i)
        while queue:
            j = queue.popleft()
            if labels[j] == NOISE:
                labels[j] = cluster  # border point claimed by first cluster
            if labels[j] != _UNLABELED:
                continue
            labels[j] = cluster
            nbj = neighborhood(j)
            if len(nbj) >= min_pts:
                queue.extend(int(k) for k in nbj if labels[k] in (_UNLABELED, NOISE))
        cluster += 1
    return ClusterLabeling(labels=labels, eps=float(eps), min_pts=int(min_pts))
