"""Voxel grids and deterministic DBSCAN.

Both fix every order in their output (cells by lexicographic key with
ascending point indices; clusters by lowest core index, ties to the lowest
cluster) so the element pipeline downstream is bit-reproducible. Neither
runs a per-point Python loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from camlab.errors import EmptyPointSet
from camlab.geom3d.core import as_points

__all__ = ["NOISE", "ROW_BLOCK", "VoxelGrid", "voxelize", "ClusterLabeling", "squared_distances", "dbscan"]

NOISE = -1

# rows of an (n, n) distance matrix built at a time, so a block is summed
# while it is in cache: by squared_distances above 4 * ROW_BLOCK points (the
# README's extraction notes say how that limit was measured) and by
# elementizer's outlier matrix at every size
ROW_BLOCK = 64


@dataclass(frozen=True)
class VoxelGrid:
    cells: dict  # (i, j, k) -> np.ndarray of point indices, keys sorted
    points: np.ndarray  # the (n, 3) cloud the indices refer to


def voxelize(points, cells_per_axis) -> VoxelGrid:
    """Partition points into an axis-aligned grid over their bounding box.

    The box is inflated by 1e-6 m so boundary points index inside the grid;
    axes with zero extent get cell size 1e-6 m. Every point lands in exactly
    one cell; each cell holds its point indices in ascending order.
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
    # stable sort by the row-major cell number (i*ny + j)*nz + k, which orders
    # cells as (i, j, k) does: cells in key order, indices ascending within
    key = (idx[:, 0] * n[1] + idx[:, 1]) * n[2] + idx[:, 2]
    order = np.argsort(key, kind="stable")
    key = key[order]
    starts = np.flatnonzero(key[1:] != key[:-1]) + 1
    groups = np.split(order, starts)
    cells = dict(zip(map(tuple, idx[order[np.r_[0, starts]]]), groups))
    return VoxelGrid(cells=cells, points=pts)


@dataclass(frozen=True)
class ClusterLabeling:
    labels: np.ndarray  # (n,) cluster id >= 0 or NOISE

    @property
    def n_clusters(self) -> int:
        return int(self.labels.max()) + 1 if np.any(self.labels >= 0) else 0


def squared_distances(points) -> np.ndarray:
    """(n, n) squared Euclidean distances, summed per coordinate as
    (dx*dx + dy*dy) + dz*dz: the bits of np.sum(diff ** 2, axis=-1) over the
    (n, n, 3) differences. Up to 4 * ROW_BLOCK points the matrix is built
    whole; above that, ROW_BLOCK rows at a time, so each block is summed
    while it is in cache. Every entry gets the same operations either way."""
    x, y, z = as_points(points).T.copy()  # contiguous coordinate columns
    n = len(x)
    step = ROW_BLOCK if n > 4 * ROW_BLOCK else max(n, 1)
    d2 = np.empty((n, n))
    t = np.empty((step, n))
    for lo in range(0, n, step):
        blk = d2[lo : lo + step]
        tb = t[: len(blk)]
        np.subtract.outer(x[lo : lo + step], x, out=blk)
        blk *= blk
        np.subtract.outer(y[lo : lo + step], y, out=tb)
        tb *= tb
        blk += tb
        np.subtract.outer(z[lo : lo + step], z, out=tb)
        tb *= tb
        blk += tb
    return d2


def _component_roots(rows: np.ndarray, cols: np.ndarray, n: int) -> np.ndarray:
    """Smallest node of each node's connected component, for n nodes and a
    symmetric edge list (rows[i], cols[i]).

    Min-label propagation with pointer jumping (Shiloach & Vishkin 1982):
    every root is hooked to the smallest label next to its tree, then each
    tree is flattened to a star. Labels only decrease and always name a node
    of the same component, so at the fixed point each label is its
    component's smallest node."""
    parent = np.arange(n)
    while True:
        np.minimum.at(parent, parent[rows], parent[cols])
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand
        if np.array_equal(parent[rows], parent[cols]):
            return parent


def dbscan(points, eps: float, min_pts: int, d2=None) -> ClusterLabeling:
    """Standard DBSCAN with fixed tie-breaking.

    Neighborhoods are distance <= eps, self included; a core point has at
    least min_pts neighbors. Clusters are the connected components of the
    core points' neighbor graph, numbered by their lowest core index. A
    border point (not core, next to a core point) joins the smallest
    cluster among its core neighbors; every other point is NOISE. These are
    the labels of a breadth-first expansion that starts clusters in input
    order and lets the first cluster to reach a border point keep it.

    d2, when given, is the caller's squared_distances(points), read only;
    its diagonal may hold anything, since every point is its own neighbor.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if min_pts < 1:
        raise ValueError("min_pts must be >= 1")
    pts = as_points(points)
    n = len(pts)
    if d2 is None:
        d2 = squared_distances(pts)
    adj = d2 <= eps * eps
    np.fill_diagonal(adj, True)
    core = np.count_nonzero(adj, axis=1) >= min_pts
    rows, cols = np.divmod(np.flatnonzero(adj), n)  # neighbor pairs, row-major
    to_core = core[cols]
    inner = core[rows] & to_core
    root = _component_roots(rows[inner], cols[inner], n)
    labels = np.full(n, NOISE, dtype=np.int64)
    # a core component's root is its lowest core index: number the roots
    # in index order and give each core point its root's number
    rank = np.cumsum(core & (root == np.arange(n))) - 1
    labels[core] = rank[root[core]]
    border = to_core & ~core[rows]
    rows, cols = rows[border], cols[border]
    if len(rows):
        # rows ascend, so each border point's core neighbors are one run
        first = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
        labels[rows[first]] = np.minimum.reduceat(labels[cols], first)
    return ClusterLabeling(labels=labels)
