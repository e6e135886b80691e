"""Voxel grids and deterministic DBSCAN.

Both fix every order in their output (cells by lexicographic key with
ascending point indices; clusters by lowest core index, ties to the lowest
cluster) so the element pipeline downstream is bit-reproducible. Neither
runs a per-point Python loop.
"""

from __future__ import annotations

import numpy as np

from camlab.errors import EmptyPointSet
from camlab.geom3d.core import as_points

__all__ = [
    "NOISE",
    "ROW_BLOCK",
    "voxelize",
    "pad_blocks",
    "squared_distances",
    "dbscan",
]

NOISE = -1

# rows of an (n, n) distance matrix built at a time, so a block is summed
# while it is in cache: by squared_distances above 4 * ROW_BLOCK points (the
# README's extraction notes say how that limit was measured) and by
# elementizer's outlier matrix at every size
ROW_BLOCK = 64


def voxelize(points, cells_per_axis) -> dict:
    """Partition points into an axis-aligned grid over their bounding box.

    Returns {(i, j, k): ascending point indices} with keys in sorted order,
    one entry per occupied cell. The box is inflated by 1e-6 m so boundary
    points index inside the grid; axes with zero extent get cell size 1e-6 m.
    Every point lands in exactly one cell.
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
    return dict(zip(map(tuple, idx[order[np.r_[0, starts]]]), groups))


def pad_blocks(rows, sizes, fill):
    """Blocks of consecutive rows as one padded stack: rows[0:sizes[0]] is
    block 0, the next sizes[1] rows block 1, and so on. Returns the
    (m, N, ...) stack, N the largest size, with each block's rows first and
    fill after them (one block: a view of rows), and the (m, N) mask of the
    real rows."""
    if len(sizes) == 1:
        return rows[None], np.ones((1, len(rows)), dtype=bool)
    sizes = np.asarray(sizes, dtype=np.int64)
    valid = np.arange(sizes.max()) < sizes[:, None]
    out = np.full(valid.shape + rows.shape[1:], fill, dtype=np.float64)
    out[valid] = rows
    return out, valid


def squared_distances(points) -> np.ndarray:
    """(n, n) squared Euclidean distances, summed per coordinate as
    (dx*dx + dy*dy) + dz*dz: the bits of np.sum(diff ** 2, axis=-1) over the
    (n, n, 3) differences. An (m, n, 3) stack gives the (m, n, n) stack of
    each block's matrix. Up to (4 * ROW_BLOCK)^2 entries in all the stack is
    built whole; above that, ROW_BLOCK rows of every block at a time, so
    each block is summed while it is in cache. Every entry gets the same
    operations either way."""
    pts = np.asarray(points, dtype=np.float64)
    stack = pts.ndim == 3
    if not stack:
        pts = as_points(pts)[None]
    cols = pts.transpose(2, 0, 1).copy()  # contiguous (3, m, n) coordinate columns
    _, m, n = cols.shape
    step = ROW_BLOCK if m * n * n > (4 * ROW_BLOCK) ** 2 else max(n, 1)
    d2 = np.empty((m, n, n))
    t = np.empty((m, step, n))
    (x, y, z), (xt, yt, zt) = cols[..., None], cols[:, :, None, :]
    for lo in range(0, n, step):
        blk = d2[:, lo : lo + step]
        tb = t[:, : blk.shape[1]]
        np.subtract(x[:, lo : lo + step], xt, out=blk)
        blk *= blk
        np.subtract(y[:, lo : lo + step], yt, out=tb)
        tb *= tb
        blk += tb
        np.subtract(z[:, lo : lo + step], zt, out=tb)
        tb *= tb
        blk += tb
    return d2 if stack else d2[0]


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


def dbscan(points, eps, min_pts: int, sizes=None, d2=None) -> np.ndarray:
    """Standard DBSCAN with fixed tie-breaking, on a batch of blocks.

    Returns the (n,) int64 labels: a cluster id >= 0, or NOISE.

    The points are the blocks' points one block after another (sizes: the
    block lengths; None: one block), eps is one radius or one per block, and
    no point neighbors a point of another block: the neighbor graph is
    block-diagonal, and each block gets the labels it would get alone.

    Neighborhoods are distance <= eps, self included; a core point has at
    least min_pts neighbors. Clusters are the connected components of the
    core points' neighbor graph, numbered within each block by their lowest
    core index. A border point (not core, next to a core point) joins the
    smallest cluster among its core neighbors; every other point is NOISE.
    These are the labels of a breadth-first expansion that starts clusters
    in input order and lets the first cluster to reach a border point keep
    it.

    d2, when given, is the caller's squared_distances, read only: for one
    block its (n, n) matrix, else an (m, N, N) stack (N the largest size)
    holding block b's matrix in d2[b, :n_b, :n_b]. Nothing outside those is
    read, and their diagonals may hold anything, since every point is its
    own neighbor.
    """
    pts = as_points(points)
    sizes = [len(pts)] if sizes is None else np.asarray(sizes).tolist()
    eps = np.asarray(eps, dtype=np.float64)
    if np.any(eps <= 0):
        raise ValueError("eps must be positive")
    if min_pts < 1:
        raise ValueError("min_pts must be >= 1")
    if sum(sizes) != len(pts) or min(sizes, default=0) < 0:
        raise ValueError(f"block sizes {list(sizes)} do not partition {len(pts)} points")
    m, n = len(sizes), max(sizes, default=0)
    full = min(sizes, default=0) == n
    valid = True if full else np.arange(n) < np.asarray(sizes)[:, None]
    if d2 is None:
        d2 = squared_distances(pad_blocks(pts, sizes, 0.0)[0])
    adj = d2.reshape(m, n, n) <= (eps * eps).reshape(-1, 1, 1)
    if not full:  # padding neighbors nothing
        adj &= valid[:, :, None]
        adj &= valid[:, None, :]
    adj.reshape(m, n * n)[:, :: n + 1] = valid
    core = np.count_nonzero(adj, axis=2).ravel() >= min_pts
    # neighbor pairs, row-major, as nodes b * n + i of the padded stack
    rows, cols = np.divmod(np.flatnonzero(adj), n)
    if m > 1:
        cols += rows - rows % n
    to_core = core[cols]
    inner = core[rows] & to_core
    root = _component_roots(rows[inner], cols[inner], m * n)
    labels = np.full(m * n, NOISE, dtype=np.int64)
    # a core component's root is its lowest core index: number each block's
    # roots in index order and give each core point its root's number
    rank = np.cumsum((core & (root == np.arange(m * n))).reshape(m, n), axis=1).ravel() - 1
    labels[core] = rank[root[core]]
    border = to_core & ~core[rows]
    rows, cols = rows[border], cols[border]
    if len(rows):
        # rows ascend, so each border point's core neighbors are one run
        first = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
        labels[rows[first]] = np.minimum.reduceat(labels[cols], first)
    return labels if full else labels[valid.ravel()]
