import math
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from camlab.errors import DegenerateGeometry, DimensionMismatch, EmptyPointSet
from camlab.geom3d import raycast as raycast_module
from camlab.geom3d import (
    NOISE,
    NONE_ID,
    Box,
    CameraModel,
    Cylinder,
    Pose,
    angle_between,
    cross,
    dbscan,
    fit_line,
    fit_plane,
    look_at,
    quat_conj,
    quat_from_axis_angle,
    quat_mul,
    quat_rotate,
    quat_to_mat,
    raycast_depth,
    squared_distances,
    unproject_pixels,
    vec3,
    voxelize,
)
from oracles import (
    footprint_holds,
    oracle_dbscan,
    project,
    raycast_depth_per_solid,
    surface_distance,
    unproject,
    unproject_pixels_divmod,
    voxel_frame,
)


def cam_identity(w=8, h=6, f=10.0):
    return CameraModel(fx=f, fy=f, cx=w / 2, cy=h / 2, width=w, height=h)


# ---------------------------------------------------------------------------
# angle_between


def test_angle_identity():
    assert angle_between(vec3(0, 0, 1), vec3(0, 0, 1)) == 0.0


def test_angle_orthogonal():
    assert angle_between(vec3(1, 0, 0), vec3(0, 1, 0)) == pytest.approx(math.pi / 2)


def test_angle_45deg():
    # hand trig: (1,0,1).(0,0,1) = 1, norms sqrt(2) and 1 -> acos(1/sqrt(2))
    assert angle_between(vec3(1, 0, 1), vec3(0, 0, 1)) == pytest.approx(math.pi / 4)


def test_angle_zero_vector_rejected():
    with pytest.raises(DegenerateGeometry):
        angle_between(vec3(0, 0, 0), vec3(1, 0, 0))


@given(
    st.lists(st.floats(-10, 10), min_size=3, max_size=3),
    st.lists(st.floats(-10, 10), min_size=3, max_size=3),
    st.floats(0.01, 100),
    st.floats(0.01, 100),
)
def test_angle_symmetry_and_scale(u, v, a, b):
    u = np.array(u)
    v = np.array(v)
    if np.linalg.norm(u) < 1e-6 or np.linalg.norm(v) < 1e-6:
        return
    ang = angle_between(u, v)
    if not 1e-6 < ang < math.pi - 1e-6:
        return  # acos is ill-conditioned at the parallel/antiparallel boundary
    assert ang == pytest.approx(angle_between(v, u), abs=1e-12)
    assert angle_between(a * u, b * v) == pytest.approx(ang, abs=1e-9)


_NON_FINITE = (math.nan, math.inf, -math.inf)


@st.composite
def non_finite_points(draw, min_size=1):
    """(n, 3) points of moderate finite coordinates with NaN or +-inf at one
    or more random positions."""
    n = draw(st.integers(min_size, 8))
    pts = np.array(draw(st.lists(st.floats(-10, 10), min_size=3 * n, max_size=3 * n)))
    at = draw(st.lists(st.integers(0, 3 * n - 1), min_size=1, max_size=3 * n, unique=True))
    pts[at] = draw(st.lists(st.sampled_from(_NON_FINITE), min_size=len(at), max_size=len(at)))
    return pts.reshape(n, 3)


@settings(max_examples=300, deadline=None)
@given(non_finite_points(min_size=2), st.integers(0, 1))
def test_non_finite_input_raises_only_degenerate_geometry(pts, swap):
    """A non-finite point or vector component leaves an angle or a fit
    undefined: each raises DegenerateGeometry, never returns (a NaN cosine
    once clamped to angle 0) and never raises numpy's LinAlgError."""
    bad = int(np.flatnonzero(~np.isfinite(pts).all(axis=1))[0])
    u, v = pts[bad], pts[bad - 1]  # a row with a non-finite component, and another row
    if swap:
        u, v = v, u
    with np.errstate(all="ignore"):
        with pytest.raises(DegenerateGeometry):
            angle_between(u, v)
        with pytest.raises(DegenerateGeometry):
            fit_line(pts)
        with pytest.raises(DegenerateGeometry):
            fit_plane(pts)


# ---------------------------------------------------------------------------
# cross product

_EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-160, 1e154, 1.7976931348623157e308,
                -1.7976931348623157e308, math.inf, -math.inf, math.nan)


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.one_of(st.floats(), st.sampled_from(_EDGE_FLOATS)), min_size=6, max_size=6))
def test_cross_matches_np_cross_bit_for_bit(xs):
    """Signed zeros, subnormals, products that overflow or underflow, inf and
    NaN: the same bits as np.cross, NaN in the same places."""
    a, b = np.array(xs[:3]), np.array(xs[3:])
    with np.errstate(all="ignore"):
        want = np.cross(a, b)
    got = cross(a, b)
    assert got.dtype == want.dtype and got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


# ---------------------------------------------------------------------------
# plane / line fits


def test_fit_plane_coordinate_plane():
    normal, centroid, rms = fit_plane([(0, 0, 0), (1, 0, 0), (0, 1, 0)])
    assert np.allclose(normal, [0, 0, 1])
    assert rms == pytest.approx(0.0, abs=1e-12)


def test_fit_plane_analytic_normal():
    # z = 0.2 x + 0.1 y  ->  normal proportional to (-0.2, -0.1, 1)
    rng = np.random.default_rng(0)
    xy = rng.uniform(-1, 1, size=(50, 2))
    pts = np.column_stack([xy, 0.2 * xy[:, 0] + 0.1 * xy[:, 1]])
    normal, _, rms = fit_plane(pts)
    expected = np.array([-0.2, -0.1, 1.0])
    expected /= np.linalg.norm(expected)
    assert angle_between(normal, expected) < 1e-6
    assert rms < 1e-9


def test_fit_plane_two_points_degenerate():
    with pytest.raises(DegenerateGeometry):
        fit_plane([(0, 0, 0), (1, 1, 1)])


def test_fit_plane_collinear_degenerate():
    pts = np.outer(np.linspace(0, 1, 10), [1.0, 2.0, 3.0])
    with pytest.raises(DegenerateGeometry):
        fit_plane(pts)


def test_fit_plane_rotation_invariance():
    rng = np.random.default_rng(3)
    xy = rng.uniform(-1, 1, size=(40, 2))
    pts = np.column_stack([xy, 0.3 * xy[:, 0] - 0.2 * xy[:, 1]])
    q = quat_from_axis_angle([1, 2, 3], 0.7)
    n0, _, _ = fit_plane(pts)
    n1, _, _ = fit_plane(quat_rotate(q, pts))
    n0r = quat_rotate(q, n0)
    # up to the sign convention the rotated fit equals the fit of rotated pts
    ang = min(angle_between(n0r, n1), angle_between(-n0r, n1))
    assert ang < 1e-9


def test_fit_line_axis():
    direction, _, rms = fit_line([(0, 0, 0), (0, 0, 2)])
    assert np.allclose(direction, [0, 0, 1])
    assert rms == pytest.approx(0.0, abs=1e-12)


def test_fit_line_diagonal_segment():
    t = np.linspace(0, 1, 20)[:, None]
    pts = t * np.array([1.0, 1.0, 0.0])
    direction, _, _ = fit_line(pts)
    expected = np.array([math.sqrt(2) / 2, math.sqrt(2) / 2, 0.0])
    # z = 0 tie broken toward +x
    assert np.linalg.norm(direction - expected) < 1e-9


def test_fit_line_identical_points_degenerate():
    with pytest.raises(DegenerateGeometry):
        fit_line([(1, 2, 3), (1, 2, 3), (1, 2, 3)])


# ---------------------------------------------------------------------------
# voxelize


def test_voxelize_single_point_single_cell():
    cells = voxelize([(0.5, 0.5, 0.5)], (1, 1, 1))
    assert list(cells) == [(0, 0, 0)]
    assert len(cells[(0, 0, 0)]) == 1


def test_voxelize_square_corners():
    pts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]
    cells = voxelize(pts, (2, 2, 1))
    # hand assignment: each corner in its own quadrant
    assert sorted(cells) == [(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0)]
    for members in cells.values():
        assert len(members) == 1


def test_voxelize_membership_and_partition():
    rng = np.random.default_rng(7)
    pts = rng.uniform(0, 1, size=(100, 3))
    cells = voxelize(pts, (2, 2, 1))
    seen = np.concatenate([idx for idx in cells.values()])
    assert sorted(seen) == list(range(100))
    origin, cell_size = voxel_frame(pts, (2, 2, 1))
    for key, idx in cells.items():
        lo = origin + np.array(key) * cell_size
        hi = lo + cell_size
        member = pts[idx]
        assert np.all(member >= lo - 1e-12) and np.all(member < hi + 1e-12)


def test_voxelize_empty_rejected():
    with pytest.raises(EmptyPointSet):
        voxelize(np.zeros((0, 3)), (1, 1, 1))


def reference_voxel_cells(points, cells_per_axis) -> dict:
    """The original per-point loop over the same grid: one dict entry per
    occupied cell, keys sorted, indices ascending."""
    n = np.asarray(cells_per_axis, dtype=np.int64)
    origin, cell_size = voxel_frame(points, cells_per_axis)
    idx = np.clip(np.floor((points - origin) / cell_size).astype(np.int64), 0, n - 1)
    cells: dict = {}
    for i, key in enumerate(map(tuple, idx)):
        cells.setdefault(key, []).append(i)
    return {k: np.array(cells[k], dtype=np.int64) for k in sorted(cells)}


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(1, 120),
    cells=st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)),
    quantised=st.booleans(),
)
def test_voxelize_matches_reference_loop(seed, n, cells, quantised):
    rng = np.random.default_rng(seed)
    pts = rng.normal(0, 1, size=(n, 3))
    if quantised:  # duplicates and points on cell boundaries
        pts = np.round(pts * 2) / 2
    got = voxelize(pts, cells)
    want = reference_voxel_cells(pts, cells)
    assert list(got) == list(want)
    assert [tuple(map(type, k)) for k in got] == [tuple(map(type, k)) for k in want]
    for key, members in got.items():
        assert members.dtype == np.int64 and np.array_equal(members, want[key])


# ---------------------------------------------------------------------------
# dbscan vs brute-force density-connectivity oracle (oracles.oracle_dbscan)


def reference_dbscan(pts: np.ndarray, eps: float, min_pts: int) -> np.ndarray:
    """The original breadth-first DBSCAN: clusters start at unlabeled core
    points in input order, neighborhoods are scanned in ascending index
    order, and the first cluster to reach a border point keeps it."""
    unlabeled = -2
    n = len(pts)
    labels = np.full(n, unlabeled, dtype=np.int64)
    adj = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1) <= eps * eps
    cluster = 0
    for i in range(n):
        if labels[i] != unlabeled:
            continue
        nb = np.nonzero(adj[i])[0]
        if len(nb) < min_pts:
            labels[i] = NOISE
            continue
        labels[i] = cluster
        queue = deque(int(j) for j in nb if j != i)
        while queue:
            j = queue.popleft()
            if labels[j] == NOISE:
                labels[j] = cluster
            if labels[j] != unlabeled:
                continue
            labels[j] = cluster
            nbj = np.nonzero(adj[j])[0]
            if len(nbj) >= min_pts:
                queue.extend(int(k) for k in nbj if labels[k] in (unlabeled, NOISE))
        cluster += 1
    return labels


@st.composite
def dbscan_inputs(draw):
    """Random clouds, line-like chains (cumsum of small steps) and quantised
    clouds whose duplicates and grid spacing put distances exactly at eps."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    n = draw(st.integers(1, 90))
    kind = draw(st.sampled_from(["random", "chain", "quantised"]))
    if kind == "random":
        pts = rng.uniform(0, 1, size=(n, 3)) * rng.uniform(0.3, 2.0)
        eps = draw(st.floats(0.02, 0.6))
    elif kind == "chain":
        pts = np.cumsum(rng.normal(0, 0.05, size=(n, 3)), axis=0)
        eps = draw(st.floats(0.02, 0.2))
    else:
        pts = rng.integers(0, 5, size=(n, 3)) * 0.25
        eps = draw(st.sampled_from([0.25, 0.5, 0.6]))
    return pts, eps, draw(st.integers(1, 6))


@settings(max_examples=300, deadline=None)
@given(dbscan_inputs())
def test_dbscan_labels_match_reference_bfs(case):
    pts, eps, min_pts = case
    assert np.array_equal(dbscan(pts, eps, min_pts), reference_dbscan(pts, eps, min_pts))


@settings(max_examples=300, deadline=None)
@given(dbscan_inputs(), st.sampled_from([0.0, np.inf]))
def test_dbscan_on_a_given_matrix_matches_its_own_and_the_bfs(case, diagonal):
    # the matrix's diagonal does not count: every point neighbors itself
    pts, eps, min_pts = case
    d2 = squared_distances(pts)
    np.fill_diagonal(d2, diagonal)
    given_d2 = d2.copy()
    got = dbscan(pts, eps, min_pts, d2=d2)
    assert np.array_equal(d2, given_d2)  # read only
    assert np.array_equal(got, dbscan(pts, eps, min_pts))
    assert np.array_equal(got, reference_dbscan(pts, eps, min_pts))


@pytest.mark.parametrize(
    "pts, eps, min_pts",
    [
        (np.array([[0.0, 0.0, 0.0]]), 0.5, 1),  # n = 1, core by itself
        (np.array([[0.0, 0.0, 0.0]]), 0.5, 2),  # n = 1, noise
        (np.arange(30.0).reshape(10, 3), 0.5, 2),  # all noise
        (np.arange(30.0).reshape(10, 3), 0.5, 1),  # min_pts 1: every point its own cluster
        (np.repeat([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], 3, axis=0)[::-1], 1.0, 4),  # ties at eps
    ],
    ids=["single-core", "single-noise", "all-noise", "min-pts-1", "ties"],
)
def test_dbscan_edge_cases_match_reference_bfs(pts, eps, min_pts):
    assert np.array_equal(dbscan(pts, eps, min_pts), reference_dbscan(pts, eps, min_pts))


def block_edge_case(n):
    """n points, quantised so that some rows repeat, as a dbscan_inputs case."""
    pts = np.round(np.random.default_rng(n).normal(size=(n, 3)) * 8) / 8
    return pts, 0.5, 1


@settings(max_examples=150, deadline=None)
@given(st.lists(dbscan_inputs(), min_size=1, max_size=6), st.integers(1, 6), st.booleans())
def test_a_batch_of_blocks_labels_each_block_as_it_would_alone(cases, min_pts, given_d2):
    # the neighbor graph is block-diagonal: no block sees another, and with
    # a given stack, what lies outside each block's matrix (here 0, which
    # would make every padding entry a neighbor) is never read
    blocks = [pts for pts, _, _ in cases]
    eps = np.array([e for _, e, _ in cases])
    sizes = [len(b) for b in blocks]
    d2 = None
    if given_d2:
        d2 = np.zeros((len(blocks), max(sizes), max(sizes)))
        for stack, b in zip(d2, blocks):
            stack[: len(b), : len(b)] = squared_distances(b)
    got = dbscan(np.concatenate(blocks), eps, min_pts, sizes=sizes, d2=d2)
    want = np.concatenate([dbscan(b, e, min_pts) for b, e in zip(blocks, eps)])
    assert np.array_equal(got, want)


@settings(max_examples=100, deadline=None)
@given(st.lists(dbscan_inputs(), min_size=1, max_size=6))
@example([block_edge_case(200), block_edge_case(150)])  # over (4 * ROW_BLOCK)^2 entries: built in row blocks
@example([block_edge_case(321), block_edge_case(64), block_edge_case(1)])
def test_a_stack_of_squared_distances_holds_each_blocks_matrix(cases):
    blocks = [pts for pts, _, _ in cases]
    n = max(len(b) for b in blocks)
    stack = np.zeros((len(blocks), n, 3))
    for row, b in zip(stack, blocks):
        row[: len(b)] = b
    got = squared_distances(stack)
    for d2, b in zip(got, blocks):
        assert np.array_equal(d2[: len(b), : len(b)], squared_distances(b))


def test_dbscan_rejects_sizes_that_do_not_partition_the_points():
    pts = np.zeros((5, 3))
    for sizes in ([2, 2], [3, 3], [6, -1]):
        with pytest.raises(ValueError, match="do not partition"):
            dbscan(pts, 0.1, 2, sizes=sizes)


# sizes on both sides of a ROW_BLOCK edge, of the whole-matrix limit
# (4 * ROW_BLOCK) and of the last partial block
@settings(max_examples=100, deadline=None)
@given(dbscan_inputs())
@example(block_edge_case(1))
@example(block_edge_case(2))
@example(block_edge_case(63))
@example(block_edge_case(64))
@example(block_edge_case(65))
@example(block_edge_case(129))
@example(block_edge_case(256))
@example(block_edge_case(257))
@example(block_edge_case(320))
@example(block_edge_case(321))
@example(block_edge_case(500))
def test_squared_distances_bits_match_broadcast_sum(case):
    pts = case[0]
    assert np.array_equal(squared_distances(pts), np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1))


def test_dbscan_keeps_at_most_two_square_temporaries():
    # the (n, n, 3) difference array of a broadcast distance sum would take
    # the peak to ~4 n^2 doubles; two (n, n) arrays are ~2
    n = 490
    pts = np.random.default_rng(5).uniform(0, 1, size=(n, 3))
    dbscan(pts, 0.08, 3)
    tracemalloc.start()
    try:
        dbscan(pts, 0.08, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * n * n * 8


def test_dbscan_two_pairs():
    pts = np.array([(0, 0, 0), (1, 0, 0), (10, 0, 0), (11, 0, 0)], dtype=float)
    labels = dbscan(pts, eps=1.0, min_pts=2)
    assert labels.max() == 1  # two clusters
    assert np.array_equal(labels, oracle_dbscan(pts, 1.0, 2))


def test_dbscan_all_close_one_cluster():
    pts = np.random.default_rng(1).normal(0, 0.01, size=(12, 3))
    labels = dbscan(pts, eps=1.0, min_pts=5)
    assert np.all(labels == 0)


def test_dbscan_isolated_point_noise():
    labels = dbscan(np.array([[0.0, 0.0, 0.0]]), eps=0.5, min_pts=2)
    assert labels.dtype == np.int64 and labels.tolist() == [NOISE]


def test_dbscan_matches_oracle_randomized():
    rng = np.random.default_rng(42)
    for _ in range(500):
        n = int(rng.integers(1, 65))
        pts = rng.uniform(0, 1, size=(n, 3)) * rng.uniform(0.5, 2.0)
        eps = float(rng.uniform(0.05, 0.5))
        min_pts = int(rng.integers(1, 6))
        got = dbscan(pts, eps, min_pts)
        want = oracle_dbscan(pts, eps, min_pts)
        assert np.array_equal(got, want), (n, eps, min_pts)


# ---------------------------------------------------------------------------
# raycast + unproject


def test_raycast_empty_scene():
    depth, inst = raycast_depth([], cam_identity())
    assert np.all(depth == 0.0)
    assert np.all(inst == NONE_ID)


def test_raycast_unit_box_principal_pixel():
    # unit box centered 1 m ahead: near face at z = 0.5 by hand
    cam = CameraModel(fx=10, fy=10, cx=4, cy=3, width=8, height=6)
    depth, inst = raycast_depth([(Pose(t=vec3(0, 0, 1)), Box(vec3(1, 1, 1)), 5)], cam)
    assert depth[3, 4] == pytest.approx(0.5)
    assert inst[3, 4] == 5


def test_raycast_occlusion_z_order():
    cam = cam_identity(w=16, h=12, f=20.0)
    near = (Pose(t=vec3(0, 0, 0.8)), Box(vec3(0.5, 0.5, 0.1)), 1)
    far = (Pose(t=vec3(0, 0, 1.5)), Box(vec3(2.0, 2.0, 0.1)), 2)
    depth, inst = raycast_depth([far, near], cam)
    h, w = depth.shape
    assert inst[h // 2, w // 2] == 1  # nearer box wins where they overlap
    assert inst[0, 0] == 2
    assert depth[h // 2, w // 2] == pytest.approx(0.75)


def test_raycast_cylinder_side_depth():
    cam = CameraModel(fx=50, fy=50, cx=8, cy=6, width=16, height=12)
    cyl = (Pose(t=vec3(0, 0, 2.0)), Cylinder(radius=0.5, height=1.0), 3)
    depth, inst = raycast_depth([cyl], cam)
    # principal ray hits the near wall at z = 2 - 0.5
    assert depth[6, 8] == pytest.approx(1.5)
    assert inst[6, 8] == 3


@st.composite
def render_scenes(draw):
    """A camera and 0-9 posed solids, boxes and cylinders of random sizes.
    Some cameras are axis-aligned with an integral principal point and some
    solids unrotated, so rays run parallel to a slab face; some solids sit
    behind the camera, one may hold the camera inside its bounding sphere
    at any place in the order, and some repeat an earlier solid and its
    pose under another id."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w, h = draw(st.integers(4, 40)), draw(st.integers(3, 30))
    f = float(rng.uniform(5.0, 60.0))
    if draw(st.booleans()):
        cam = CameraModel(fx=f, fy=f, cx=w // 2, cy=h // 2, width=w, height=h)
    else:
        eye = rng.uniform(-1.0, 1.0, size=3)
        cam = CameraModel(fx=f, fy=f * float(rng.uniform(0.8, 1.25)), cx=float(rng.uniform(0.5, w - 0.5)),
                          cy=float(rng.uniform(0.5, h - 0.5)), width=w, height=h,
                          pose=look_at(eye, eye + rng.normal(size=3) + [0.0, 0.0, 1e-3], up=(0.3, -1.0, 0.2)))
    scene = []
    for i in range(draw(st.integers(0, 9))):
        if scene and rng.random() < 0.2:
            pose, solid, _ = scene[rng.integers(len(scene))]
            scene.append((pose, solid, i))
            continue
        where = rng.choice(["front", "front", "front", "behind", "around"])
        local = rng.uniform([-0.6, -0.6, 0.5], [0.6, 0.6, 3.0])
        if where == "behind":
            local[2] = -local[2]
        elif where == "around":
            local = rng.uniform(-0.05, 0.05, size=3)
        q = np.array([1.0, 0.0, 0.0, 0.0])
        if rng.random() < 0.5:
            q = quat_from_axis_angle(rng.normal(size=3) + 1e-3, float(rng.uniform(0, math.pi)))
        if rng.random() < 0.5:
            solid = Box(rng.uniform(0.05, 0.6, size=3))
        else:
            solid = Cylinder(float(rng.uniform(0.03, 0.3)), float(rng.uniform(0.05, 0.6)))
        scene.append((Pose(q, cam.pose.apply(local)), solid, i))
    return scene, cam


@settings(max_examples=300, deadline=None)
@given(render_scenes())
def test_raycast_depth_matches_the_per_solid_loop_to_the_bit(case):
    scene, cam = case
    depth, inst = raycast_depth(scene, cam)
    want_depth, want_inst = raycast_depth_per_solid(scene, cam)
    assert depth.tobytes() == want_depth.tobytes()
    assert inst.tobytes() == want_inst.tobytes()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(1e-4, 10.0), st.integers(1, 4)), min_size=1, max_size=12))
@example([(0.18231512161212451, 3), (0.05, 1)])  # x * x is 0.03323880356844375, one ulp below
def test_squares_keep_the_bits_of_a_float_power(runs):
    """The cylinder kernel squares its per-row radius as radius**2 on a
    float did, not as numpy's array square."""
    x = np.repeat([v for v, _ in runs], [k for _, k in runs])
    want = np.array([v**2 for v in x.tolist()])
    assert raycast_module._squares(x).tobytes() == want.tobytes()
    assert raycast_module._squares(x[-1:].reshape(())).tobytes() == want[-1:].tobytes()


def test_raycast_coincident_solids_show_the_earlier_id():
    cam = cam_identity(w=16, h=12, f=20.0)
    block = (Pose(t=vec3(0.05, 0, 1.0)), Box(vec3(0.2, 0.2, 0.2)), 1)
    pen = (Pose(t=vec3(-0.1, 0, 1.2)), Cylinder(0.05, 0.3), 3)
    scene = [block, pen, (block[0], block[1], 2), (pen[0], pen[1], 4)]
    depth, inst = raycast_depth(scene, cam)
    assert set(np.unique(inst).tolist()) == {NONE_ID, 1, 3}
    assert depth.tobytes() == raycast_depth(scene[:2], cam)[0].tobytes()


# ---------------------------------------------------------------------------
# the solids: validation and their facts against geometry


@pytest.mark.parametrize(
    "extents",
    [(0.0, 1.0, 1.0), (1.0, -1.0, 1.0), (1.0, 1.0, math.nan), (math.inf, 1.0, 1.0), (-1.0, 0.0, math.nan),
     (1.0, 1.0), (1.0, 1.0, 1.0, 1.0), [[1.0, 1.0, 1.0]], 1.0],
)
def test_box_rejects_bad_extents(extents):
    with pytest.raises(ValueError):
        Box(extents)


@pytest.mark.parametrize(
    "radius, height", [(0.0, 1.0), (1.0, 0.0), (-2.0, 1.0), (1.0, -0.5), (math.nan, 1.0), (1.0, math.nan),
                       (math.inf, 1.0), (-2.0, math.inf)],
)
def test_cylinder_rejects_bad_dimensions(radius, height):
    with pytest.raises(ValueError):
        Cylinder(radius, height)


def test_box_extents_are_a_read_only_copy():
    given_extents = np.array([0.1, 0.2, 0.3])
    box = Box(given_extents)
    given_extents[0] = 5.0
    assert box.extents.tolist() == [0.1, 0.2, 0.3]
    with pytest.raises(ValueError):
        box.extents[0] = 1.0


_DIMS = st.floats(0.005, 0.5)


@st.composite
def rotations(draw):
    """A rotation matrix: upright, turned about z, or about a random axis."""
    kind = draw(st.sampled_from(["upright", "about_z", "random"]))
    angle = draw(st.floats(-math.pi, math.pi))
    if kind == "upright":
        return quat_to_mat(np.array([1.0, 0.0, 0.0, 0.0])), True
    if kind == "about_z":
        return quat_to_mat(quat_from_axis_angle([0.0, 0.0, 1.0], angle)), True
    axis = np.array(draw(st.lists(st.floats(-1, 1), min_size=3, max_size=3)))
    if np.linalg.norm(axis) < 1e-3:
        axis = np.array([1.0, 0.0, 0.0])
    return quat_to_mat(quat_from_axis_angle(axis, angle)), False


def _meets_vertical(solid, r, d):
    """solid.meets_line for the vertical line through the world xy offset d
    from the centre of the solid under rotation matrix r: in the local
    frame it passes through R^T (d, 0) along R^T z."""
    return solid.meets_line((d[0] * r[0] + d[1] * r[1]).tolist(), r[2].tolist())


def _box_corners(box):
    signs = np.array([[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)], dtype=np.float64)
    return signs * box.half_extents()


@settings(max_examples=300, deadline=None)
@given(st.tuples(_DIMS, _DIMS, _DIMS), rotations(), st.tuples(st.floats(-0.6, 0.6), st.floats(-0.6, 0.6)))
def test_box_facts_match_its_rotated_corners(extents, rotation, d):
    r, _ = rotation
    box = Box(extents)
    corners = _box_corners(box) @ r.T
    assert box.world_half_z(r) == pytest.approx(np.abs(corners[:, 2]).max(), rel=1e-12)
    assert box.lateral_half_extent(r) == pytest.approx(np.abs(corners[:, :2]).max(), rel=1e-12)
    assert box.bounding_radius == pytest.approx(np.linalg.norm(corners, axis=1).max(), rel=1e-12)
    # the vertical line test drop_to_support settles with, against the
    # convex hull of the rotated corners' xy
    want = footprint_holds(box, r, d)  # None: too close to the boundary to call
    assert want is None or _meets_vertical(box, r, d) is want
    for corner in corners:  # a little inside the hull of the corners' xy
        assert _meets_vertical(box, r, corner[:2] * (1.0 - 1e-6))


@settings(max_examples=300, deadline=None)
@given(_DIMS, _DIMS, rotations(), st.tuples(st.floats(-0.6, 0.6), st.floats(-0.6, 0.6)))
def test_cylinder_facts_match_its_rotated_rim(radius, height, rotation, d):
    """The rim circles of radius r at z = +-h/2 rotated by R reach
    |R[i, 2]| h/2 + r hypot(R[i, 0], R[i, 1]) along world axis i.

    The solid takes the rim's sine as sqrt(1 - R[2, 2]**2). Near upright
    that difference cancels: a rounding of a few ulps in the square moves
    the sine by up to sqrt(32 eps), so the radius term gets that much
    absolute slack on top of the 1e-12 relative."""
    r, upright = rotation
    cyl = Cylinder(radius, height)
    reach = [abs(r[i, 2]) * height / 2.0 + radius * math.hypot(r[i, 0], r[i, 1]) for i in range(3)]
    slack = radius * math.sqrt(32 * np.finfo(float).eps)
    assert cyl.world_half_z(r) == pytest.approx(reach[2], rel=1e-12, abs=slack)
    lateral = cyl.lateral_half_extent(r)
    assert lateral >= max(reach[0], reach[1]) * (1.0 - 1e-12) - slack
    if upright:
        assert lateral == pytest.approx(max(reach[0], reach[1]), rel=1e-12)
    assert cyl.bounding_radius == pytest.approx(math.sqrt(radius**2 + (height / 2.0) ** 2), rel=1e-12)
    assert cyl.half_extents().tolist() == [radius, radius, height / 2.0]
    # the vertical line test drop_to_support settles with, against the
    # convex hull of dense samples of the rotated rims' xy
    want = footprint_holds(cyl, r, d)  # None: too close to the boundary to call
    assert want is None or _meets_vertical(cyl, r, d) is want


def test_unproject_principal_point():
    cam = cam_identity()
    depth = np.zeros((6, 8))
    mask = np.zeros((6, 8), dtype=bool)
    depth[3, 4] = 1.0
    mask[3, 4] = True
    pts = unproject(depth, mask, cam)
    assert pts.shape == (1, 3)
    assert np.allclose(pts[0], [0, 0, 1.0])


def test_unproject_empty_mask():
    cam = cam_identity()
    pts = unproject(np.ones((6, 8)), np.zeros((6, 8), dtype=bool), cam)
    assert pts.shape == (0, 3)


def test_unproject_dimension_mismatch():
    cam = cam_identity()
    with pytest.raises(DimensionMismatch):
        unproject(np.ones((5, 8)), np.zeros((5, 8), dtype=bool), cam)


def test_unproject_skips_nonpositive_depth():
    cam = cam_identity()
    depth = np.zeros((6, 8))
    mask = np.ones((6, 8), dtype=bool)
    depth[3, 4] = 1.0
    depth[2, 2] = -1.0
    pts = unproject(depth, mask, cam)
    assert pts.shape == (1, 3)


@st.composite
def unproject_inputs(draw):
    """A camera with random intrinsics (integral or not) and pose, a depth
    image, and a subset of its pixels in random order."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    w, h = draw(st.integers(1, 32)), draw(st.integers(1, 24))
    cx = draw(st.sampled_from([w / 2, float(rng.uniform(0.01, w - 0.01))]))
    cy = draw(st.sampled_from([h / 2, float(rng.uniform(0.01, h - 0.01))]))
    fx, fy = (float(f) for f in rng.uniform(1.0, 500.0, size=2))
    pose = Pose(quat_from_axis_angle(rng.normal(size=3) + 1e-3, float(rng.uniform(0, math.pi))), rng.normal(size=3))
    cam = CameraModel(fx=fx, fy=fy, cx=cx, cy=cy, width=w, height=h, pose=pose)
    depth = rng.uniform(0.05, 5.0, size=(h, w))
    if draw(st.booleans()):
        depth = np.round(depth * 4) / 4 + 0.25
    pixels = rng.permutation(w * h)[: draw(st.integers(0, w * h))]
    if draw(st.booleans()):
        pixels.sort()
    return depth, pixels, cam


@settings(max_examples=200, deadline=None)
@given(unproject_inputs())
def test_unproject_pixels_matches_the_divmod_formula_to_the_bit(case):
    depth, pixels, cam = case
    got = unproject_pixels(depth, pixels, cam)
    want = unproject_pixels_divmod(depth, pixels, cam)
    assert got.shape == want.shape == (len(pixels), 3)
    assert got.tobytes() == want.tobytes()


def test_unproject_raycast_box_face_residual():
    # render a box face, unproject, and measure the plane residual
    cam = CameraModel(fx=40, fy=40, cx=8, cy=6, width=16, height=12)
    depth, inst = raycast_depth([(Pose(t=vec3(0, 0, 1)), Box(vec3(1, 1, 1)), 1)], cam)
    pts = unproject(depth, inst == 1, cam)
    assert len(pts) >= 4
    # all hits land on the near face plane z = 0.5
    assert np.max(np.abs(pts[:, 2] - 0.5)) < 1e-6


def random_scene(rng):
    prims = []
    for i in range(int(rng.integers(1, 4))):
        center = rng.uniform([-0.3, -0.3, 0.8], [0.3, 0.3, 1.6])
        q = quat_from_axis_angle(rng.normal(size=3) + 1e-3, float(rng.uniform(0, math.pi)))
        pose = Pose(q, center)
        if rng.random() < 0.5:
            solid = Box(rng.uniform(0.1, 0.4, size=3))
        else:
            solid = Cylinder(radius=float(rng.uniform(0.05, 0.2)), height=float(rng.uniform(0.1, 0.4)))
        prims.append((pose, solid, i))
    return prims


def test_unproject_raycast_consistency_random_scenes():
    # P2: every unprojected masked pixel lies on its primitive's surface
    rng = np.random.default_rng(11)
    cam = CameraModel(fx=30, fy=30, cx=10, cy=8, width=20, height=16)
    for _ in range(100):
        prims = random_scene(rng)
        depth, inst = raycast_depth(prims, cam)
        for pose, solid, iid in prims:
            pts = unproject(depth, inst == iid, cam)
            for p in pts:
                assert surface_distance(p, pose, solid) < 1e-5


def test_project_round_trip():
    cam = CameraModel(fx=35, fy=35, cx=10, cy=8, width=20, height=16, pose=look_at(vec3(0.3, -0.6, 0.5), vec3(0, 0, 0)))
    world = np.array([[0.05, 0.02, 0.01], [-0.1, 0.1, 0.0]])
    px, front = project(world, cam)
    assert front.all()
    depth = np.zeros((16, 20))
    # verify projection is consistent with the camera's local z
    local = cam.pose.inverse().apply(world)
    for (u, v), lp in zip(px, local):
        x = (u - cam.cx) / cam.fx * lp[2]
        y = (v - cam.cy) / cam.fy * lp[2]
        assert np.allclose([x, y], lp[:2], atol=1e-9)
    assert depth.shape == (16, 20)


def test_project_behind_camera_flagged():
    cam = cam_identity()
    _, front = project(np.array([[0.0, 0.0, -1.0]]), cam)
    assert not front[0]


@settings(max_examples=60)
@given(st.integers(0, 2**31 - 1))
def test_voxelize_partition_property(seed):
    rng = np.random.default_rng(seed)
    pts = rng.normal(0, 1, size=(int(rng.integers(1, 40)), 3))
    n = tuple(int(x) for x in rng.integers(1, 4, size=3))
    all_idx = np.concatenate(list(voxelize(pts, n).values()))
    assert sorted(all_idx.tolist()) == list(range(len(pts)))


# ---------------------------------------------------------------------------
# Pose: NaN checks, the rotation and inverse cache, float quaternion ops


@pytest.mark.parametrize("q", [[math.nan, 0, 0, 0], [1.0, math.nan, 0, 0], [math.inf, 0, 0, 0]])
def test_pose_rejects_non_finite_quaternion(q):
    with pytest.raises(ValueError):
        Pose(q=q)


@pytest.mark.parametrize("field", ["fx", "fy"])
def test_camera_rejects_nan_focal_length(field):
    kw = dict(fx=10.0, fy=10.0, cx=4, cy=3, width=8, height=6)
    kw[field] = math.nan
    with pytest.raises(ValueError):
        CameraModel(**kw)


def reference_quat_mul(a, b):
    """quat_mul on numpy scalars, as before it read Python floats."""
    aw, ax, ay, az = np.asarray(a, dtype=np.float64)
    bw, bx, by, bz = np.asarray(b, dtype=np.float64)
    return np.array(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ]
    )


def reference_quat_to_mat(q):
    """quat_to_mat on numpy scalars, as before it read Python floats."""
    w, x, y, z = np.asarray(q, dtype=np.float64)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


_component = st.floats(-1.0, 1.0, allow_nan=False)
_raw_quat = st.lists(_component, min_size=4, max_size=4).filter(lambda q: np.dot(q, q) > 1e-3)


def _unit_quat(q):
    q = np.asarray(q, dtype=np.float64)
    return q / np.linalg.norm(q)


@settings(max_examples=200, deadline=None)
@given(_raw_quat, _raw_quat)
def test_float_quaternion_ops_equal_numpy_scalar_forms(a, b):
    # unnormalised inputs too: the ops are plain arithmetic either way
    for qa, qb in ((a, b), (_unit_quat(a), _unit_quat(b))):
        assert quat_mul(qa, qb).tobytes() == reference_quat_mul(qa, qb).tobytes()
        assert quat_to_mat(qa).tobytes() == reference_quat_to_mat(qa).tobytes()


@settings(max_examples=100, deadline=None)
@given(_raw_quat, st.lists(st.floats(-2.0, 2.0, allow_nan=False), min_size=3, max_size=3))
def test_pose_keeps_a_fresh_read_only_rotation_and_inverse(q, t):
    pose = Pose(_unit_quat(q), t)
    r = pose.rotation()
    assert r.tobytes() == quat_to_mat(pose.q).tobytes()
    assert pose.rotation() is r
    with pytest.raises(ValueError):
        r[0, 0] = 2.0
    inv = pose.inverse()
    qi = quat_conj(pose.q)
    fresh = Pose(qi, -quat_rotate(qi, pose.t))
    assert inv.q.tobytes() == fresh.q.tobytes() and inv.t.tobytes() == fresh.t.tobytes()
    assert inv.rotation().tobytes() == quat_to_mat(qi).tobytes()
    assert pose.inverse() is inv
    pts = np.array([[0.1, -0.2, 0.3], [1.0, 2.0, -3.0]])
    assert pose.apply(pts).tobytes() == (quat_rotate(pose.q, pts) + pose.t).tobytes()
    assert pose.apply(pts[0]).tobytes() == (quat_rotate(pose.q, pts[0]) + pose.t).tobytes()


# ---------------------------------------------------------------------------
# Pose construction: shapes and finiteness, public copies, private hand-over


_BAD_POSE_ARGS = [
    dict(t=[math.nan, 0.0, 0.0]),
    dict(t=[0.0, math.inf, 0.0]),
    dict(t=[0.0, 0.0, -math.inf]),
    dict(t=[1.0, 2.0]),
    dict(t=[[1.0, 2.0, 3.0]]),
    dict(q=[1.0, 0.0, 0.0]),
    dict(q=[[1.0, 0.0], [0.0, 0.0]]),
    dict(q=[1.0, 0.0, 0.0, 0.0, 0.0]),
]


@pytest.mark.parametrize("kw", _BAD_POSE_ARGS)
def test_pose_rejects_misshapen_or_non_finite_arguments(kw):
    with pytest.raises(ValueError):
        Pose(**kw)
    q = np.array(kw.get("q", [1.0, 0.0, 0.0, 0.0]), dtype=np.float64)
    t = np.array(kw.get("t", [0.0, 0.0, 0.0]), dtype=np.float64)
    with pytest.raises(ValueError):
        Pose._own(q, t)
    if "t" in kw:
        with pytest.raises(ValueError):
            Pose().translated(t)


def _shares_input(pose, arrays) -> bool:
    return any(np.shares_memory(out, a) for out in (pose.q, pose.t) for a in arrays)


def test_every_public_pose_construction_copies():
    q = _unit_quat([0.9, 0.1, -0.3, 0.2])
    t = np.array([0.1, 0.2, 0.3])
    a, b = Pose(q, t), Pose(_unit_quat([0.2, 0.7, 0.1, -0.4]), np.array([-0.5, 0.0, 0.25]))
    q_before, t_before = q.copy(), t.copy()
    made = {
        "Pose(q, t)": (Pose(q, t), (q, t)),
        "Pose(q=q)": (Pose(q=q), (q,)),
        "Pose(t=t)": (Pose(t=t), (t,)),
        "Pose(a.q, a.t)": (Pose(a.q, a.t), (a.q, a.t)),
        "compose": (a.compose(b), (a.q, a.t, b.q, b.t)),
        "inverse": (a.inverse(), (a.q, a.t)),
        "look_at": (look_at(t, [0.0, 0.0, 0.0]), (t,)),
    }
    for name, (pose, inputs) in made.items():
        assert not _shares_input(pose, inputs), name
        for arr in (pose.q, pose.t):
            assert not arr.flags.writeable, name
    q[:] = [0.0, 1.0, 0.0, 0.0]
    t[:] = 9.0
    p = made["Pose(q, t)"][0]
    assert p.q.tobytes() == q_before.tobytes() and p.t.tobytes() == t_before.tobytes()
    for default in (Pose(), Pose.identity()):
        assert default.q.tolist() == [1.0, 0.0, 0.0, 0.0] and default.t.tolist() == [0.0, 0.0, 0.0]
        assert not default.q.flags.writeable and not default.t.flags.writeable


@settings(max_examples=100, deadline=None)
@given(_raw_quat, st.lists(st.floats(-2.0, 2.0, allow_nan=False), min_size=3, max_size=3),
       st.lists(st.floats(-2.0, 2.0, allow_nan=False), min_size=3, max_size=3))
def test_private_and_translated_poses_are_read_only_and_share_the_rotation(q, t, t2):
    q, t, t2 = _unit_quat(q), np.array(t), np.array(t2)
    owned = Pose._own(q, t)
    assert owned.q is q and owned.t is t  # handed over, not copied
    assert not q.flags.writeable and not t.flags.writeable
    public = Pose(q, t)
    assert owned.rotation().tobytes() == public.rotation().tobytes()
    moved = owned.translated(t2)
    assert moved.q is owned.q and moved.t is t2 and not t2.flags.writeable
    assert moved.rotation() is owned.rotation()
    fresh = Pose(q, t2)
    pts = np.array([[0.1, -0.2, 0.3], [1.0, 2.0, -3.0]])
    assert moved.apply(pts).tobytes() == fresh.apply(pts).tobytes()
    assert moved.inverse().t.tobytes() == fresh.inverse().t.tobytes()
    with pytest.raises(ValueError):
        moved.t[0] = 1.0
    with pytest.raises(ValueError):
        moved.translated(np.array([0.0, math.nan, 0.0]))
    with pytest.raises(ValueError):
        Pose._own(np.array([math.nan, 0.0, 0.0, 0.0]), np.zeros(3))
