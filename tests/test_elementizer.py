import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camlab import elementizer
from camlab.elementizer import (
    LINE,
    POINT,
    SURFACE,
    LabelIndex,
    MaskBundle,
    element_set_fingerprint,
    end_effector_element,
    extract_element,
    filter_outliers,
    fuse_views,
    make_element_set,
)
from camlab.errors import DegenerateGeometry, EmptyPointSet, IrreducibleCloud
from camlab.geom3d import (
    Box,
    CameraModel,
    NOISE,
    Pose,
    angle_between,
    dbscan,
    fit_line,
    fit_plane,
    quat_from_axis_angle,
    raycast_depth,
    squared_distances,
    unit,
    vec3,
    voxelize,
)
from camlab.simlab.scenes import Scene, View, mask_bundle
from camlab.simlab.world import SimObject
from oracles import (
    element_from_cloud,
    per_cell_representative,
    per_cloud_filter_outliers,
    per_cloud_outlier_stat,
    per_cloud_pairwise_sq,
    unproject,
)


def cam(w=16, h=12, f=40.0, pose=None):
    return CameraModel(fx=f, fy=f, cx=w / 2, cy=h / 2, width=w, height=h, pose=pose or Pose())


def valid_pixels(depth, mask):
    """The mask's pixels with finite positive depth, as flat indices."""
    return np.flatnonzero(mask & (depth > 0) & np.isfinite(depth))


def bundle_for(depth, mask, etype, entity="obj", partname="body"):
    return MaskBundle(
        pixels=(valid_pixels(depth, mask),),
        element_type=etype,
        constraint="test",
        entity=entity,
        part=partname,
    )


def reference_fuse_views(masks, depths, cams):
    """The mask path that the label index replaced: unproject each view's
    full-image part mask, view order then raster order."""
    return np.concatenate([unproject(d, m, c) for m, d, c in zip(masks, depths, cams)], axis=0)


# ---------------------------------------------------------------------------
# fuse_views


def test_fuse_single_view_three_pixels():
    c = cam()
    depth = np.ones((12, 16))
    mask = np.zeros((12, 16), dtype=bool)
    mask[2, 3] = mask[5, 5] = mask[8, 8] = True
    b = bundle_for(depth, mask, POINT)
    pts = fuse_views(b, [depth], [c])
    assert pts.shape == (3, 3)


def test_fuse_two_views_box_face():
    box = (Pose(t=vec3(0, 0, 1)), Box(vec3(0.4, 0.4, 0.4)), 1)
    c1 = cam()
    c2 = cam(f=50.0)
    d1, i1 = raycast_depth([box], c1)
    d2, i2 = raycast_depth([box], c2)
    b = MaskBundle(
        pixels=(LabelIndex(d1, i1).of(1), LabelIndex(d2, i2).of(1)),
        element_type=SURFACE,
        constraint="",
        entity="box",
        part="body",
    )
    pts = fuse_views(b, [d1, d2], [c1, c2])
    assert len(pts) == np.sum(i1 == 1) + np.sum(i2 == 1)
    # both cameras look straight down +z: every hit is the near face z = 0.8
    assert np.max(np.abs(pts[:, 2] - 0.8)) < 1e-5


def test_fuse_all_views_empty():
    c = cam()
    depth = np.ones((12, 16))
    empty = np.zeros((12, 16), dtype=bool)
    b = bundle_for(depth, empty, POINT)
    with pytest.raises(EmptyPointSet):
        fuse_views(b, [depth], [c])


# misses (0), invalid depths (negative, NaN, +-inf) and hits
_DEPTHS = st.sampled_from([0.0, -0.5, math.nan, math.inf, -math.inf, 0.3, 0.7, 1.1, 2.5])
_IDS = {"none": -1, "a": 0, "b": 1, "c": 2, "d": 3}


@st.composite
def labelled_views(draw):
    """1-3 random views of one small camera with their instance images, and
    one posed object per instance id with a random "top" part box near the
    camera; each view draws its instance ids from a subset of _IDS, so ids
    miss views."""
    h, w = draw(st.integers(1, 6)), draw(st.integers(2, 7))
    n = h * w
    angle = draw(st.floats(-3.0, 3.0))
    pose = Pose(quat_from_axis_angle([0.3, -1.0, 0.2], angle), [0.1, -0.2, 0.4])
    c = CameraModel(20.0, 25.0, w / 2, h / 2, w, h, pose)
    views, insts = [], []
    for _ in range(draw(st.integers(1, 3))):
        ids = draw(st.lists(st.sampled_from(sorted(_IDS.values())), min_size=1, max_size=5, unique=True))
        depth = np.array(draw(st.lists(_DEPTHS, min_size=n, max_size=n))).reshape(h, w)
        inst = np.array(draw(st.lists(st.sampled_from(ids), min_size=n, max_size=n)), dtype=np.int32).reshape(h, w)
        views.append(View(depth, LabelIndex(depth, inst)))
        insts.append(inst)
    objects = {}
    for oid in _IDS:
        q = quat_from_axis_angle([0.0, 0.4, 1.0], draw(st.floats(-3.0, 3.0)))
        corners = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=6, max_size=6))).reshape(2, 3)
        top = (corners.min(axis=0), corners.max(axis=0))
        objects[oid] = SimObject(oid, Box((0.1, 0.1, 0.1)), Pose(q, [0.1, -0.2, 0.4]), parts={"top": top})
    return views, insts, c, objects


def part_mask(view, inst, obj, iid, c):
    """The mask path for a named part: the instance's full-image mask,
    unprojected, moved into the object's frame and tested against the part
    box, kept as a full-image mask."""
    mask = inst == iid
    local = obj.pose.inverse().apply(unproject(view.depth, mask, c))
    lo, hi = obj.parts["top"]
    out = np.zeros(mask.size, dtype=bool)
    out[valid_pixels(view.depth, mask)[np.all((local >= lo) & (local <= hi), axis=1)]] = True
    return out.reshape(mask.shape)


@settings(max_examples=200, deadline=None)
@given(labelled_views())
def test_label_index_pixels_and_clouds_equal_the_mask_path(case):
    views, insts, c, objects = case
    scene = Scene("test", instance_ids=_IDS, cameras=[c] * len(views))
    depths, cams = [v.depth for v in views], scene.cameras
    for oid, iid in _IDS.items():
        for part in ("body", "top"):
            if part == "top":
                masks = [part_mask(v, inst, objects[oid], iid, c) for v, inst in zip(views, insts)]
            else:
                masks = [inst == iid for inst in insts]
            b = mask_bundle(scene, views, objects[oid], part, POINT)
            for pix, mask, v in zip(b.pixels, masks, views):
                assert np.array_equal(pix, valid_pixels(v.depth, mask))
            want = reference_fuse_views(masks, depths, cams)
            if len(want) == 0:
                with pytest.raises(EmptyPointSet):
                    fuse_views(b, depths, cams)
            else:
                assert fuse_views(b, depths, cams).tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# filter_outliers


def brute_outlier_stat(pts, k):
    d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
    out = []
    for i in range(len(pts)):
        row = sorted(d[i])
        out.append(sum(row[1 : k + 1]) / k)
    return np.array(out)


def test_filter_outliers_removes_far_point():
    rng = np.random.default_rng(5)
    cluster = rng.normal(0, 0.005, size=(20, 3))
    pts = np.vstack([cluster, [[1.0, 0, 0]]])
    [kept] = filter_outliers([pts], k=5, std_ratio=2.0)
    assert len(kept) == 20
    # brute-force the statistic to confirm only the far point crosses it
    stat = brute_outlier_stat(pts, 5)
    thresh = stat.mean() + 2.0 * stat.std()
    assert np.sum(stat > thresh) == 1


def test_filter_outliers_small_n_guard():
    pts = np.array([[0, 0, 0], [1, 1, 1], [2, 2, 2]], dtype=float)
    [kept] = filter_outliers([pts], k=5, std_ratio=2.0)
    assert np.array_equal(kept, pts)


def test_filter_outliers_loose_ratio_keeps_all():
    rng = np.random.default_rng(6)
    pts = rng.uniform(0, 0.1, size=(30, 3))
    [kept] = filter_outliers([pts], k=5, std_ratio=10.0)
    assert len(kept) == 30


def reference_pairwise_dist(pts):
    """The original out-of-place distance matrix, the root of a cloud's
    block of elementizer._pairwise_sq."""
    sq = np.sum(pts * pts, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (pts @ pts.T)
    return np.sqrt(np.clip(d2, 0.0, None))


def reference_filter_outliers(pts, k=8, std_ratio=2.0):
    """The original filter_outliers: full row sort of the distance matrix."""
    if len(pts) <= k:
        return pts
    stat = np.sort(reference_pairwise_dist(pts), axis=1)[:, 1 : k + 1].mean(axis=1)
    return pts[stat <= stat.mean() + std_ratio * stat.std()]


@st.composite
def clouds(draw):
    """Gaussian blobs with a few far points, optionally quantised so rows
    hold duplicate points and tied distances."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    n = draw(st.integers(1, 200))
    pts = rng.normal(0, draw(st.floats(0.001, 0.5)), size=(n, 3)) + rng.uniform(-1, 1, size=3)
    far = rng.random(n) < 0.05
    pts[far] += rng.normal(0, 2.0, size=(int(far.sum()), 3))
    if draw(st.booleans()):
        pts = np.round(pts * 20) / 20
    return pts


@settings(max_examples=150, deadline=None)
@given(clouds(), st.integers(1, 12), st.floats(0.0, 3.0))
def test_distance_kernels_match_out_of_place_forms(pts, k, std_ratio):
    assert np.array_equal(np.sqrt(elementizer._pairwise_sq([pts])[0]), reference_pairwise_dist(pts))
    assert np.array_equal(filter_outliers([pts], k, std_ratio)[0], reference_filter_outliers(pts, k, std_ratio))


@st.composite
def cloud_batches(draw):
    """1-10 clouds of 1-500 points for one batch. Sizes run from at most
    OUTLIER_K through ROW_BLOCK-sized to MAX_CLOUD_POINTS, and a size may
    repeat the one before it, so clouds of one length share a batch. A cloud
    is a blob (optionally quantised, so points repeat), pairs of points far
    from every other pair (every point is DBSCAN noise), or two clumps of
    one size far apart (a tie between two clusters)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    batch = []
    for _ in range(draw(st.integers(1, 10))):
        band = draw(st.sampled_from(["tiny", "small", "mid", "large", "repeat"]))
        if band == "repeat" and batch:
            n = len(batch[-1])
        else:
            lo, hi = {"tiny": (1, elementizer.OUTLIER_K), "small": (9, 40), "mid": (41, 160)}.get(band, (161, 500))
            n = int(rng.integers(lo, hi + 1))
        kind = draw(st.sampled_from(["blob", "quantised", "pairs", "twin"]))
        scale = 10.0 ** rng.uniform(-3, -1)
        if kind == "pairs":
            base = rng.uniform(-1, 1, size=((n + 1) // 2, 3)) * 100 * scale
            pts = np.vstack([base, base + scale * 1e-3])[:n]
        elif kind == "twin":
            half = rng.normal(0, scale, size=((n + 1) // 2, 3))
            pts = np.vstack([half, half[::-1] + 50 * scale])[:n]
        else:
            pts = rng.normal(0, scale, size=(n, 3))
            far = rng.random(n) < 0.05
            pts[far] *= 30
            if kind == "quantised":
                pts = np.round(pts / scale * 4) * (scale / 4)
        batch.append(pts + rng.uniform(-1, 1, size=3))
    return batch


def dbscan_batches(cells):
    """elementizer._representatives(cells) and, per dbscan call it makes,
    (blocks, eps, labels per block)."""
    calls = []

    def spy(points, eps, min_pts, sizes=None, d2=None):
        labels = dbscan(points, eps, min_pts, sizes=sizes, d2=d2)
        ends = np.cumsum(sizes)
        calls.append((np.split(points, ends[:-1]), list(eps), np.split(labels, ends[:-1])))
        return labels

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(elementizer, "dbscan", spy)
        reps = elementizer._representatives(cells)
    return reps, calls


@settings(max_examples=120, deadline=None)
@given(cloud_batches())
def test_a_batch_filters_and_represents_each_cloud_as_it_would_alone(batch):
    k, ratio = elementizer.OUTLIER_K, elementizer.OUTLIER_STD_RATIO
    filtered = filter_outliers(batch)
    assert len(filtered) == len(batch)
    for got, cloud in zip(filtered, batch):
        want = per_cloud_filter_outliers(cloud)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    # the bits that a filtered cloud only rarely shows: each cloud's block
    # of the distance stack, its statistics and its threshold
    big = [c for c in batch if len(c) > k]
    for idx in elementizer._batches([len(c) for c in big]):
        group = [big[i] for i in idx]
        d2 = elementizer._pairwise_sq(group)
        stats, thresh = elementizer._outlier_stats(group, k, ratio)
        for block, row, t, cloud in zip(d2, stats, thresh, group):
            n = len(cloud)
            assert block[:n, :n].tobytes() == per_cloud_pairwise_sq(cloud).tobytes()
            assert np.all(block[n:] == np.inf) and np.all(block[:, n:] == np.inf)
            stat, want_t = per_cloud_outlier_stat(cloud, k, ratio)
            assert row[:n].tobytes() == stat.tobytes() and np.all(row[n:] == np.inf)
            assert t.tobytes() == np.float64(want_t).tobytes()
    reps, calls = dbscan_batches(batch)
    assert reps.shape == (len(batch), 3)
    for got, cloud in zip(reps, batch):
        assert got.tobytes() == per_cell_representative(cloud).tobytes()
    for blocks, eps, labels in calls:
        for cell, e, lab in zip(blocks, eps, labels, strict=True):
            assert e == reference_eps(cell)
            assert np.array_equal(lab, dbscan(cell, e, elementizer.DBSCAN_MIN_PTS))


def test_batches_group_similar_small_sizes_and_leave_large_ones_alone():
    sizes = [30, 500, 1, 35, 30, 120, 100, 257]
    batches = elementizer._batches(sizes)
    assert sorted(i for b in batches for i in b) == list(range(len(sizes)))
    assert batches == [[2, 0, 4, 3], [6, 5], [7], [1]]
    for b in batches:
        assert len(b) == 1 or len(b) * max(sizes[i] for i in b) ** 2 <= (4 * elementizer.ROW_BLOCK) ** 2


def test_subsample_takes_the_rows_of_the_unique_indices():
    # above the cap the linspace step exceeds 1, so truncation never repeats
    # an index and np.unique would change nothing
    rows = np.arange(3.0 * 5000).reshape(5000, 3)
    for n in range(elementizer.MAX_CLOUD_POINTS + 1, 5001):
        idx = np.linspace(0, n - 1, elementizer.MAX_CLOUD_POINTS).astype(np.int64)
        assert np.array_equal(elementizer._subsample(rows[:n]), rows[np.unique(idx)]), n
    at_cap = rows[: elementizer.MAX_CLOUD_POINTS]
    assert elementizer._subsample(at_cap) is at_cap


def reference_eps(pts):
    """DBSCAN eps of a voxel cell, out of place: EPS_FACTOR x np.percentile
    of the rooted broadcast distance matrix's row minima (self excluded)."""
    if len(pts) < 2:
        return elementizer.EPS_FACTOR * elementizer.LONE_POINT_GAP
    d = np.sqrt(np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1))
    np.fill_diagonal(d, np.inf)
    return max(elementizer.EPS_FACTOR * float(np.percentile(d.min(axis=1), 90)), 1e-9)


def representative_dbscan_calls(pts):
    """pts's representative as a batch of one cell, and the (eps, d2) of
    each dbscan call it makes."""
    calls = []

    def spy(points, eps, min_pts, sizes=None, d2=None):
        calls.append((list(eps), None if d2 is None else d2.copy()))
        return dbscan(points, eps, min_pts, sizes=sizes, d2=d2)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(elementizer, "dbscan", spy)
        [rep] = elementizer._representatives([pts])
    return rep, calls


@settings(max_examples=150, deadline=None)
@given(clouds())
def test_nn_scale_matches_the_full_root_form(pts):
    # the eps scale is the p90 of the exact matrix's row minima, rooted only
    # there; dbscan gets that same matrix
    _, calls = representative_dbscan_calls(pts)
    [(eps, d2)] = calls
    assert eps == [reference_eps(pts)]
    [d2] = d2
    np.fill_diagonal(d2, 0.0)
    assert np.array_equal(d2, squared_distances(pts))


def reference_representative(pts):
    """The original pick: cluster sizes counted one cluster at a time, the
    largest kept, ties to the lowest label."""
    labels = dbscan(pts, reference_eps(pts), elementizer.DBSCAN_MIN_PTS)
    if labels.max() == NOISE:
        return pts.mean(axis=0)
    sizes = [(int(np.sum(labels == c)), c) for c in range(labels.max() + 1)]
    best = max(sizes, key=lambda sc: (sc[0], -sc[1]))[1]
    return pts[labels == best].mean(axis=0)


@settings(max_examples=150, deadline=None)
@given(clouds())
def test_representative_matches_the_per_cluster_count(pts):
    rep, _ = representative_dbscan_calls(pts)
    assert np.array_equal(rep, reference_representative(pts))


@pytest.mark.parametrize("first", [0.0, 1.0])
def test_representative_ties_go_to_the_lowest_label(first):
    # two 4-point clusters of one size: the one holding point 0 is label 0
    square = np.array([(0, 0, 0), (0.01, 0, 0), (0, 0.01, 0), (0.01, 0.01, 0)])
    pts = np.vstack([square + (first, 0, 0), square + (1.0 - first, 0, 0)])
    rep, _ = representative_dbscan_calls(pts)
    assert np.array_equal(rep, pts[:4].mean(axis=0))
    assert np.array_equal(rep, reference_representative(pts))


@st.composite
def p90_inputs(draw):
    """Nonnegative vectors like nearest-neighbor gaps at 1e-4..1e2 scale:
    plain, quantised to a few levels, or drawn from three values (ties)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    n = draw(st.integers(2, 500))
    scale = 10.0 ** draw(st.floats(-4.0, 2.0))
    v = rng.random(n) * scale
    kind = draw(st.sampled_from(["plain", "quantised", "ties"]))
    if kind == "quantised":
        levels = draw(st.integers(1, 16))
        v = np.round(v / scale * levels) * (scale / levels)
    elif kind == "ties":
        v = rng.choice(v[:3], size=n)
    return v


@settings(max_examples=300, deadline=None)
@given(p90_inputs())
def test_p90_is_np_percentile_to_the_bit(v):
    # the ascending values alone, and followed by the inf of a padded row
    ascending = np.sort(v)
    for row in (ascending, np.r_[ascending, np.inf, np.inf]):
        got = elementizer._p90(row, len(v))
        assert type(got) is float
        assert got.hex() == float(np.percentile(v, 90)).hex()


# ---------------------------------------------------------------------------
# voxel cells per kind


def test_cells_surface():
    assert SURFACE.cells == (2, 2, 1)


def test_cells_point():
    assert POINT.cells == (1, 1, 1)


def test_cells_line():
    assert LINE.cells == (2, 1, 1)


# ---------------------------------------------------------------------------
# one cloud's element (oracles.element_from_cloud) on synthetic clouds


def disc_cloud(n=400, radius=0.06, normal_axis=None, angle=0.0, center=(0, 0, 0.5), seed=0):
    rng = np.random.default_rng(seed)
    r = radius * np.sqrt(rng.uniform(0, 1, n))
    th = rng.uniform(0, 2 * math.pi, n)
    pts = np.column_stack([r * np.cos(th), r * np.sin(th), np.zeros(n)])
    if normal_axis is not None:
        q = quat_from_axis_angle(normal_axis, angle)
        from camlab.geom3d import quat_rotate

        pts = quat_rotate(q, pts)
    return pts + np.asarray(center)


def test_surface_from_planar_disc():
    cloud = disc_cloud()
    el = element_from_cloud(cloud, SURFACE, "pan", "lid")
    assert len(el.points) == 4  # one per 2x2 cell
    normal, _, rms = fit_plane(el.points)
    assert rms < 0.06 * math.sqrt(2)  # within the voxel diagonal
    assert angle_between(normal, vec3(0, 0, 1)) < math.radians(5)
    # hull cycle connections over 4 spread points
    assert len(el.connections) == 4


def test_surface_tilted_recovers_normal():
    axis = vec3(1, 0, 0)
    tilt = math.radians(25)
    cloud = disc_cloud(normal_axis=axis, angle=tilt, seed=3)
    el = element_from_cloud(cloud, SURFACE, "pan", "lid")
    normal, _, _ = fit_plane(el.points)
    from camlab.geom3d import quat_rotate

    want = quat_rotate(quat_from_axis_angle(axis, tilt), vec3(0, 0, 1))
    assert angle_between(normal, want) < math.radians(5)


def test_point_from_blob_inside_bbox():
    rng = np.random.default_rng(9)
    cloud = rng.normal(0, 0.004, size=(60, 3)) + [0.1, 0.2, 0.3]
    el = element_from_cloud(cloud, POINT, "pen", "tip")
    assert el.points.shape == (1, 3)
    assert np.all(el.points[0] >= cloud.min(axis=0) - 1e-9)
    assert np.all(el.points[0] <= cloud.max(axis=0) + 1e-9)
    assert el.connections == ()


def test_line_from_elongated_cloud():
    rng = np.random.default_rng(10)
    t = rng.uniform(-0.1, 0.1, size=300)
    cloud = np.column_stack([t, rng.normal(0, 0.002, 300), rng.normal(0, 0.002, 300)])
    el = element_from_cloud(cloud, LINE, "book", "spine")
    assert len(el.points) == 2
    d = el.points[1] - el.points[0]
    ang = angle_between(d, vec3(1, 0, 0))
    assert min(ang, math.pi - ang) < math.radians(2)
    assert el.connections == ((0, 1),)


def test_irreducible_cloud():
    cloud = np.array([[0, 0, 0], [0.01, 0, 0]], dtype=float)
    with pytest.raises(IrreducibleCloud):
        element_from_cloud(cloud, SURFACE)


def test_split_fallback_reaches_count(monkeypatch):
    # a tight planar blob fills the 2x2 cells; two blobs on a diagonal fill
    # only 2 of them, so the pipeline must split cells until it can produce
    # 4 representatives
    rng = np.random.default_rng(12)
    cloud = np.column_stack(
        [rng.normal(0, 0.001, 50), rng.normal(0, 0.001, 50), np.zeros(50)]
    ) + [0.05, 0.05, 0.2]
    el = element_from_cloud(cloud, SURFACE)
    assert len(el.points) == 4
    splits = []
    split = elementizer._split_bin
    monkeypatch.setattr(elementizer, "_split_bin", lambda members: splits.append(len(members)) or split(members))
    el = element_from_cloud(np.vstack([cloud, cloud[::-1] + [0.02, 0.02, 0.0]]), SURFACE)
    assert len(el.points) == 4
    assert splits == [50, 50]


def test_pipeline_determinism():
    cloud = disc_cloud(seed=21)
    a = element_from_cloud(cloud, SURFACE, "x", "y")
    b = element_from_cloud(cloud.copy(), SURFACE, "x", "y")
    assert np.array_equal(a.points, b.points)
    assert a.connections == b.connections
    assert element_set_fingerprint("sg", make_element_set([a])) == element_set_fingerprint("sg", make_element_set([b]))


def reference_point_element(cloud):
    """element_from_cloud(cloud, POINT)'s points before the point path: the
    general path's identity rotation, one (1, 1, 1) voxel cell, no growing,
    one representative, and back through the identity."""
    rot = np.eye(3)
    local = cloud @ rot.T
    bins = [local[idx] for idx in voxelize(local, POINT.cells).values()]
    assert len(bins) == POINT.target_points
    return np.vstack([per_cell_representative(b) for b in bins]) @ rot


# signed zeros and the smallest subnormals: a mean of these can round to
# -0.0, which an identity product turns into +0.0 next to a positive coordinate
_TINY = [0.0, -0.0, 5e-324, -5e-324, 1e-323, -1e-323]


@st.composite
def point_clouds(draw):
    """1-500 points: a blob, optionally quantised (duplicate points and tied
    gaps), with repeated rows, and in each coordinate none, some or all
    values replaced by signed zeros and subnormals."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    n = draw(st.integers(1, 500))
    pts = rng.normal(0, draw(st.floats(1e-4, 0.2)), size=(n, 3)) + rng.uniform(-0.5, 0.5, size=3)
    if draw(st.booleans()):
        pts = np.round(pts * 200) / 200
    if draw(st.booleans()):
        pts[rng.random(n) < 0.3] = pts[0]
    for axis in range(3):
        tiny = rng.random(n) < draw(st.sampled_from([0.0, 0.2, 1.0]))
        pts[tiny, axis] = rng.choice(_TINY, size=int(tiny.sum()))
    return pts


@settings(max_examples=150, deadline=None)
@given(point_clouds())
def test_point_path_matches_the_general_path_to_the_bit(cloud):
    el = element_from_cloud(cloud, POINT, "pen", "tip", "c")
    want = reference_point_element(cloud)
    assert el.points.shape == want.shape == (1, 3)
    assert el.points.tobytes() == want.tobytes()  # signed zeros included
    assert el.connections == ()


def reference_order_and_connect(reps, etype):
    """The original ordering, each kind on a basis of its own fit: a line by
    its fit_line direction, a surface flattened on the fit_plane normal's
    basis around the fit's centroid."""
    if etype is LINE:
        u, _, _ = fit_line(reps)
        proj = reps @ u
        pts = reps[sorted(range(len(reps)), key=lambda i: (proj[i], i))]
        return pts, tuple((i, i + 1) for i in range(len(pts) - 1))
    w, centroid, _ = fit_plane(reps)
    a = np.eye(3)[int(np.argmin(np.abs(w)))]
    u = unit(np.cross(a, w))
    v = np.cross(w, u)
    hull = elementizer._convex_hull_2d((reps - centroid) @ np.vstack([u, v]).T)
    pts = reps[hull + [i for i in range(len(reps)) if i not in hull]]
    return pts, tuple((i, (i + 1) % len(hull)) for i in range(len(hull)))


@st.composite
def representative_sets(draw):
    """A LINE's 2 or a SURFACE's 4 representatives around offsets up to 10:
    a spread of 1e-9 to 1, the last point on the segment between the first
    two (hull ties), one axis flattened, or snapped to a 2 cm grid (ties,
    axis-aligned fits, coincident points)."""
    etype = draw(st.sampled_from([LINE, SURFACE]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    reps = rng.normal(0, 10.0 ** draw(st.floats(-9.0, 0.0)), size=(etype.target_points, 3))
    shape = draw(st.sampled_from(["spread", "collinear", "flat", "grid"]))
    if shape == "collinear":
        reps[-1] = reps[0] + rng.uniform() * (reps[1] - reps[0])
    elif shape == "flat":
        reps[:, rng.integers(3)] = 0.0
    elif shape == "grid":
        reps = rng.integers(0, 3, size=reps.shape) * 0.02
    return etype, reps + rng.uniform(-10.0, 10.0, size=3) * draw(st.sampled_from([0.0, 0.1, 1.0]))


@settings(max_examples=400, deadline=None)
@given(representative_sets())
def test_order_and_connect_matches_the_per_kind_fit(case):
    # one canonical basis serves the voxel frame and the ordering
    etype, reps = case
    try:
        want = reference_order_and_connect(reps, etype)
    except DegenerateGeometry:
        with pytest.raises(DegenerateGeometry):
            elementizer._order_and_connect(reps, etype)
        return
    pts, edges = elementizer._order_and_connect(reps, etype)
    assert pts.tobytes() == want[0].tobytes()
    assert edges == want[1]


# ---------------------------------------------------------------------------
# extract_element end to end (render -> masks -> element)


def test_extract_element_from_render():
    box = (Pose(t=vec3(0, 0, 0.6)), Box(vec3(0.1, 0.1, 0.04)), 7)
    c = cam(w=32, h=24, f=60.0)
    depth, inst = raycast_depth([box], c)
    b = MaskBundle(
        pixels=(LabelIndex(depth, inst).of(7),),
        element_type=SURFACE,
        constraint="stay level",
        entity="plate",
        part="top",
    )
    [el] = extract_element([b], [depth], [c])
    assert len(el.points) == 4
    normal, _, _ = fit_plane(el.points)
    # the visible near face is z = 0.58, normal along z
    assert angle_between(normal, vec3(0, 0, 1)) < math.radians(10)


def test_view_monotonicity():
    box = (Pose(t=vec3(0, 0, 0.6)), Box(vec3(0.1, 0.1, 0.04)), 7)
    c1 = cam(w=32, h=24, f=60.0)
    c2 = cam(w=32, h=24, f=45.0)
    d1, i1 = raycast_depth([box], c1)
    d2, i2 = raycast_depth([box], c2)
    one = MaskBundle((LabelIndex(d1, i1).of(7),), SURFACE, "", "plate", "top")
    two = MaskBundle((LabelIndex(d1, i1).of(7), LabelIndex(d2, i2).of(7)), SURFACE, "", "plate", "top")
    n1 = len(fuse_views(one, [d1], [c1]))
    n2 = len(fuse_views(two, [d1, d2], [c1, c2]))
    assert n2 >= n1


# ---------------------------------------------------------------------------
# end-effector elements


def test_ee_single_point():
    el = end_effector_element([(0.1, 0.2, 0.3)])
    assert el.etype == POINT
    assert np.allclose(el.points[0], [0.1, 0.2, 0.3])
    assert el.entity == "end_effector"


def test_ee_empty():
    with pytest.raises(EmptyPointSet):
        end_effector_element(np.zeros((0, 3)))


def test_ee_rejects_two_points():
    with pytest.raises(ValueError, match="one point, got 2"):
        end_effector_element([(0.1, 0.2, 0.3), (0.1, 0.2, 0.4)])


# ---------------------------------------------------------------------------
# element sets


def test_element_set_ids_contiguous():
    els = make_element_set([end_effector_element([(0.01 * i, 0, 0.5)]) for i in range(3)])
    assert isinstance(els, tuple)
    assert [e.eid for e in els] == [0, 1, 2]
    assert len({e.color for e in els}) == 3


def test_extraction_invariants_random_clouds():
    # point count always matches the type's target; representatives stay
    # inside the filtered cloud's bounding box
    rng = np.random.default_rng(77)
    for _ in range(40):
        kind = rng.integers(0, 3)
        n = int(rng.integers(30, 300))
        if kind == 0:
            etype, cloud = POINT, rng.normal(0, 0.01, size=(n, 3))
        elif kind == 1:
            t = rng.uniform(-0.1, 0.1, size=(n, 1))
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            etype, cloud = LINE, t * axis + rng.normal(0, 0.002, size=(n, 3))
        else:
            xy = rng.uniform(-0.06, 0.06, size=(n, 2))
            etype = SURFACE
            cloud = np.column_stack([xy, rng.normal(0, 0.001, n)])
        cloud = cloud + rng.uniform(-0.2, 0.2, size=3)
        [filtered] = filter_outliers([cloud])
        try:
            el = element_from_cloud(filtered, etype)
        except IrreducibleCloud:
            continue
        assert len(el.points) == etype.target_points
        lo = filtered.min(axis=0) - 1e-9
        hi = filtered.max(axis=0) + 1e-9
        assert np.all(el.points >= lo) and np.all(el.points <= hi)
