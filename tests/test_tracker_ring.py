"""The packed PointRing tracker against a reference per-element deque tracker.

The reference keeps one deque of points per element. On every noisy tick it
draws random(n_noisy) over all noisy points in element id order, then
normal(0, sigma, (n_noisy, 3)) when sigma > 0, and gives each element its
slice of both. The packed ring must give the same bytes for every history
lookup and every centroid (the deque entry's mean(axis=0)), including
lookups clamped to the oldest entry.
"""

from collections import deque
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camlab.errors import TrackError
from camlab.monitor import SimTracker, TrackerConfig


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
