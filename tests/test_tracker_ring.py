"""The packed PointRing tracker against a reference per-element deque tracker.

The reference keeps one deque of points per element. On every noisy tick it
draws random(n_noisy) over all noisy points in element id order, then
normal(0, sigma, (n_noisy, 3)) when sigma > 0, and gives each element its
slice of both. The packed ring must give the same bytes for every history
lookup and every centroid (the deque entry's mean(axis=0)), including
lookups clamped to the oldest entry. The centroids of every span layout,
read in place or through the padded gather, and count_within's comparison
of one-point elements' ring rows, must match the padded gather of
tests/oracles.py bit for bit, on values that include signed zeros, NaN and
infinities.
"""

from collections import deque
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camlab.conlang import EvalError, evaluator
from camlab.errors import TrackError
from camlab.monitor import PointRing, SimTracker, TrackerConfig
from oracles import padded_centroids


class ReferenceTracker:
    def __init__(self, cfg, seed, elements, tick, fk_eids, capacity):
        self.cfg = cfg
        self.rng = np.random.default_rng(seed)
        self.fk_eids = set(fk_eids)
        self.tracks = {el.eid: deque([el.points.copy()], capacity) for el in elements}

    def step(self, truth, tick):
        if tick % self.cfg.resync_interval == 0:  # draws nothing
            for eid, tr in self.tracks.items():
                tr.append(np.asarray(truth[eid], dtype=np.float64).copy())
            return
        n = sum(len(truth[eid]) for eid in self.tracks if eid not in self.fk_eids)
        drop = self.rng.random(n) < self.cfg.dropout
        noise = self.rng.normal(0.0, self.cfg.sigma, size=(n, 3)) if self.cfg.sigma > 0 else np.zeros((n, 3))
        lo = 0
        for eid in sorted(self.tracks):
            tr, pts = self.tracks[eid], np.asarray(truth[eid], dtype=np.float64)
            if eid in self.fk_eids:
                tr.append(pts.copy())
                continue
            hi = lo + len(pts)
            tr.append(np.where(drop[lo:hi, None], tr[-1], pts + noise[lo:hi]))
            lo = hi

    def points_at(self, eid, back):
        tr = self.tracks[eid]
        return tr[max(len(tr) - 1 - back, 0)]


def element_set(sizes, rng):
    eids = rng.permutation(3 * len(sizes))[: len(sizes)]  # registration order is not id order
    return [SimpleNamespace(eid=int(e), etype=None, points=rng.normal(0, 0.1, (k, 3))) for e, k in zip(eids, sizes)]


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@settings(max_examples=120, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 6), min_size=1, max_size=6),
    fk_mask=st.integers(0, 63),
    sigma=st.sampled_from([0.0, 0.003]),
    dropout=st.sampled_from([0.0, 0.3, 0.9]),
    resync=st.integers(1, 7),
    capacity=st.integers(4, 16),
    extra_ticks=st.integers(0, 20),
    seed=st.integers(0, 2**16),
)
def test_ring_matches_reference(sizes, fk_mask, sigma, dropout, resync, capacity, extra_ticks, seed):
    rng = np.random.default_rng(seed)
    es = element_set(sizes, rng)
    eids = [el.eid for el in es]
    fk = [e for i, e in enumerate(eids) if fk_mask >> i & 1]
    cfg = TrackerConfig(sigma=sigma, dropout=dropout, resync_interval=resync)
    tracker = SimTracker(cfg, seed, es, 3, fk_eids=fk, capacity=capacity)
    ref = ReferenceTracker(cfg, seed, es, 3, fk, capacity)
    truth = {el.eid: el.points for el in es}
    groups = [tuple(eids), tuple(eids[::-1]), tuple(eids[:1]), tuple(eids[1::2])]
    for tick in range(4, 4 + capacity + extra_ticks):
        truth = {eid: p + rng.normal(0, 0.01, p.shape) for eid, p in truth.items()}
        tracker.step(tracker.ring.pack(truth), tick)
        ref.step(truth, tick)
        ring = tracker.ring
        assert (ring.tick, ring.count) == (tick, len(ref.tracks[eids[0]]))
        for back in range(capacity + 3):
            for eid in eids:
                assert same_bytes(ring.points_at(eid, back), ref.points_at(eid, back))
            for group in groups:
                want = np.array([ref.points_at(eid, back).mean(axis=0) for eid in group]).reshape(-1, 3)
                assert same_bytes(ring.centroids(ring.gather(group), back), want)


_SPECIALS = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1e308, -1e308])
# where a gather's spans sit in ring order: a run in order, the same run
# reversed, every other span, id order (FK elements come first in the ring),
# or any subset in any order
_LAYOUTS = ("run", "reversed", "gaps", "id_order", "any")


@st.composite
def laid_out_rings(draw):
    """(ring, group, box corner values): a PointRing of one to six elements,
    all of one length (1 to 3 points) or of drawn lengths, some of them
    FK, with 0 to capacity + 3 entries pushed after the first, values drawn
    from a normal mixed with signed zeros, NaN, infinities and +-1e308 (two
    of which overflow a sum), and a group of them in a drawn layout."""
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        sizes = [draw(st.integers(1, 3))] * n
    else:
        sizes = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    fk_mask = draw(st.integers(0, 63))
    capacity = draw(st.integers(1, 6))
    special = draw(st.sampled_from([0.0, 0.2, 0.7]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))

    def values(shape):
        v = rng.normal(0.0, 1.0, shape)
        mask = rng.random(shape) < special
        v[mask] = rng.choice(_SPECIALS, int(mask.sum()))
        return v

    es = [SimpleNamespace(eid=i, etype=None, points=values((k, 3))) for i, k in enumerate(sizes)]
    ring = PointRing(es, 0, capacity, {i for i in range(n) if fk_mask >> i & 1})
    for tick in range(1, draw(st.integers(0, capacity + 3)) + 1):
        ring.push(tick, values((ring.n_points, 3)))
    ring_order = sorted(ring.spans, key=ring.spans.get)
    layout = draw(st.sampled_from(_LAYOUTS))
    if layout in ("run", "reversed"):
        lo = draw(st.integers(0, n - 1))
        group = ring_order[lo : draw(st.integers(lo + 1, n))]
        group = group[::-1] if layout == "reversed" else group
    elif layout == "gaps":
        group = ring_order[draw(st.integers(0, 1)) :: 2] or ring_order
    elif layout == "id_order":
        group = sorted(ring.spans)
    else:
        group = draw(st.permutations(ring_order))[: draw(st.integers(1, n))]
    return ring, tuple(group), values(6)


@settings(max_examples=400, deadline=None)
@given(laid_out_rings())
def test_centroids_and_count_within_match_the_padded_gather(case):
    ring, group, corners = case
    spans = [ring.spans[eid] for eid in group]
    in_place = len({hi - lo for lo, hi in spans}) == 1 and all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
    gather = ring.gather(group)
    assert isinstance(gather[0], slice) is in_place
    box = lo, hi = evaluator._as_box(corners)
    with np.errstate(all="ignore"):
        for back in range(ring.capacity + 3):
            want = padded_centroids(ring, group, back)
            assert same_bytes(ring.centroids(gather, back), want)
            count_within = evaluator.call("count_within", ring, back, (group, lambda: box), None)
            inside = np.count_nonzero(((want >= lo) & (want <= hi)).all(axis=1))
            if inside < len(want) and (np.isnan(want).any() or np.isnan(corners).any()):
                with pytest.raises(EvalError, match="count_within: operand holds NaN"):
                    count_within()
            else:
                assert count_within() == inside


def test_track_errors():
    rng = np.random.default_rng(0)
    es = element_set([1, 2], rng)
    tr = SimTracker(TrackerConfig(), 1, es, 5, capacity=4)
    truth = {el.eid: el.points for el in es}
    with pytest.raises(TrackError):
        tr.step(tr.ring.pack({**truth, 99: np.zeros((1, 3))}), 6)  # unknown id
    with pytest.raises(TrackError):
        tr.step(tr.ring.pack({es[0].eid: es[0].points}), 6)  # missing id
    with pytest.raises(TrackError):
        tr.step(tr.ring.pack({**truth, es[0].eid: np.zeros((2, 3))}), 6)  # point count
    other = SimTracker(TrackerConfig(), 1, es, 5, capacity=4)
    with pytest.raises(TrackError):
        tr.step(other.ring.pack(truth), 6)  # a row of another ring
    for tick in (5, 4):  # ticks must increase
        with pytest.raises(TrackError):
            tr.step(tr.ring.pack(truth), tick)
    tr.step(tr.ring.pack(truth), 6)
    with pytest.raises(TrackError):
        tr.step(tr.ring.pack(truth), 6)


def test_sigma_zero_turns_negative_zero_into_positive_zero():
    # truth + zeros, as the reference adds: the noisy tick gives +0.0, a resync tick keeps the exact -0.0
    pts = np.array([[-0.0, 1.0, -0.0], [0.5, -0.0, 2.0]])
    es = [SimpleNamespace(eid=0, etype=None, points=pts)]
    tr = SimTracker(TrackerConfig(sigma=0.0, dropout=0.0, resync_interval=5), 0, es, 3, capacity=4)
    tr.step(tr.ring.pack({0: pts}), 4)
    noisy = tr.ring.points_at(0, 0)
    assert same_bytes(noisy, pts + 0.0)
    assert not np.signbit(noisy).any() and np.signbit(pts).sum() == 3
    tr.step(tr.ring.pack({0: pts}), 5)
    assert same_bytes(tr.ring.points_at(0, 0), pts)
