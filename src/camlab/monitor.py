"""Real-time monitoring loop: element tracking, histories, verdicts.

A SimTracker stands in for a learned visual tracker: ground truth plus
isotropic Gaussian noise, per-point dropout (hold the last value), and a
periodic resync snap to truth that models re-detection. Elements sourced
from forward kinematics are served noiselessly. All elements' point
histories live in one packed ring (PointRing), so centroids of many
elements are one sum per tick, over the entry itself when their spans
follow each other with one length. The ring is also what programs
are evaluated on, both at white-box validation and on every tick.

Ground truth reaches the tracker as one TruthRow: the (P, 3) points of every
tracked element in the ring's span order. PointRing.pack is the one
conversion from an id -> points dict; a caller that keeps its row up to date
in place (the episode loop rewrites only the spans of moved objects) hands
the same row to SimTracker.step every tick, which copies it once into the
new ring entry.

The RealTimeMonitor gives one verdict per tick (next_verdict). While the
policy moves it evaluates DURING programs with a K-tick debounce (a single
noise spike never trips a violation); a halt-on-completion subgoal gets HALT
once all its ON_COMPLETION programs hold K ticks in a row (a false tick
resets the count, an evaluation error counts as false, a DURING violation
wins). After motion ends it requires an H-tick hold of the ON_COMPLETION
programs within a 3H-tick timeout. A persistent violation is reported once
per constraint over the monitor's life, so there are no verdict storms (the
episode loop ends the subgoal on the first one and binds a new monitor for
the replanned subgoal). Runtime evaluation errors surface as violations
(fail-safe), never as skipped ticks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from camlab.conlang import EvalError, Mode, evaluate, fail_reason
from camlab.errors import TrackError

__all__ = [
    "TrackerConfig",
    "PointRing",
    "TruthRow",
    "SimTracker",
    "DebouncePolicy",
    "VerdictKind",
    "Verdict",
    "RealTimeMonitor",
    "LatencyReport",
    "latency_report",
]

INTERNAL_ERROR_REASON = "monitor internal error"
RING_CAPACITY = 256  # ticks of point history per tracked element


@dataclass(frozen=True)
class TrackerConfig:
    sigma: float = 0.002  # meters, isotropic per point
    dropout: float = 0.01  # per point per tick
    resync_interval: int = 20  # ticks; snap to truth exactly

    def __post_init__(self):
        # isfinite first: every comparison with NaN is false, so `nan < 0` would pass
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError(f"tracker sigma must be finite and >= 0, got {self.sigma!r}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"tracker dropout must be in [0, 1), got {self.dropout!r}")
        if self.resync_interval < 1:
            raise ValueError(f"tracker resync interval must be >= 1, got {self.resync_interval!r}")


class PointRing:
    """Packed point history of every tracked element, and the context that
    programs are evaluated on (points_at, centroids, kind_of).

    One preallocated (capacity, P + 1, 3) ring holds all P tracked points;
    each element owns a contiguous span of the P points. Column P is a
    constant -0.0 pad point, the additive identity used by the padded
    centroid sums. Spans are laid out in id order with forward-kinematics
    elements first, so the noisy points form one span [noisy_lo, P). The
    first entry, at `tick`, is the elements' own points (the extraction
    snapshot). History lookups `back` entries before the newest clamp to
    the oldest entry, and return read-only views into the ring, valid until
    the ring wraps over their entry. ticks[slot] is the tick of the entry a
    slot holds; compiled programs key per-entry results on it."""

    def __init__(self, elements, tick: int, capacity: int = RING_CAPACITY, fk_eids=()):
        if capacity < 1:
            raise ValueError("ring capacity must be >= 1")
        order = sorted(elements, key=lambda el: (el.eid not in fk_eids, el.eid))
        offsets = np.cumsum([0] + [len(el.points) for el in order]).tolist()
        self.spans = {el.eid: (offsets[i], offsets[i + 1]) for i, el in enumerate(order)}
        self.types = {el.eid: el.etype for el in order}
        n_points = offsets[-1]
        self.capacity = capacity
        self.n_points = n_points
        self.noisy_lo = offsets[sum(el.eid in fk_eids for el in order)]
        self.points = np.empty((capacity, n_points + 1, 3))
        self.points[:, n_points] = -0.0
        self.view = self.points.view()
        self.view.flags.writeable = False
        self.tick = None  # of the newest entry
        self.ticks = [None] * capacity  # of the entry in each slot
        self.head = -1  # slot of the newest entry
        self.count = 0
        self.push(tick, np.concatenate([el.points for el in order], axis=0))

    def slot(self, back: int) -> int:
        """Ring slot `back` entries before the newest, clamped to the oldest."""
        return (self.head - min(back, self.count - 1)) % self.capacity

    def pack(self, truth: dict) -> "TruthRow":
        """The ground truth `truth` (element id -> (k, 3) points) as a new
        TruthRow for this ring. Raises TrackError for unknown or missing ids
        and for point counts that differ from the registered elements."""
        if truth.keys() != self.spans.keys():
            unknown = truth.keys() - self.spans.keys()
            missing = self.spans.keys() - truth.keys()
            raise TrackError(f"unknown ids {sorted(unknown)}, missing ids {sorted(missing)}")
        points = [truth[eid] for eid in self.spans]
        if any(len(p) != hi - lo for p, (lo, hi) in zip(points, self.spans.values())):
            raise TrackError("truth point counts differ from the registered elements")
        return TruthRow(np.concatenate(points, axis=0, dtype=np.float64), self)

    def push(self, tick: int, points: np.ndarray) -> np.ndarray:
        """Append an entry at `tick` holding a copy of `points` ((P, 3), in
        span order); returns the new (P, 3) row for in-place noise. Raises
        TrackError unless ticks increase."""
        if self.count and tick <= self.tick:
            raise TrackError(f"ticks must increase, got {tick} after {self.tick}")
        self.head = (self.head + 1) % self.capacity
        self.count = min(self.count + 1, self.capacity)
        self.tick = self.ticks[self.head] = tick
        row = self.points[self.head, :-1]
        np.copyto(row, points)
        return row

    def points_at(self, eid: int, back: int) -> np.ndarray:
        """(k, 3) points of element `eid`, `back` entries before the newest."""
        span = self.spans.get(eid)
        if span is None:
            raise EvalError(f"unknown element e({eid})")
        return self.view[self.slot(back), span[0] : span[1]]

    def gather(self, eids) -> tuple:
        """The gather that `centroids` reads the elements `eids` with, as
        (index, shape, counts), chosen from their spans. When the spans follow
        each other in ring order and all hold L points, index is the slice
        of their points, shape is (len(eids), L, 3) and counts is L: the
        entry is read in place. Any other layout gets an (len(eids), longest
        span) point index padded with the -0.0 column, its shape with a
        trailing 3, and the (len(eids), 1) point counts. Compiled programs
        build theirs once, at compile time. Raises EvalError for an unknown
        id."""
        for eid in eids:
            if eid not in self.spans:
                raise EvalError(f"unknown element e({eid})")
        spans = [self.spans[eid] for eid in eids]
        lengths = {hi - lo for lo, hi in spans}
        if len(lengths) == 1 and all(prev[1] == lo for prev, (lo, _) in zip(spans, spans[1:])):
            (n,) = lengths
            return slice(spans[0][0], spans[-1][1]), (len(spans), n, 3), float(n)
        index = np.full((len(spans), max(lengths, default=0)), self.n_points)
        for row, (lo, hi) in zip(index, spans):
            row[: hi - lo] = np.arange(lo, hi)
        counts = np.array([hi - lo for lo, hi in spans], dtype=np.float64).reshape(-1, 1)
        return index, index.shape + (3,), counts

    def centroids(self, gather: tuple, back: int) -> np.ndarray:
        """(len(eids), 3) centroids of the elements of `gather` (from
        gather(eids)), `back` entries before the newest.

        Each element's points form one row of a (len(eids), L, 3) array,
        summed along the row: a view of the entry for a contiguous gather, a
        copy padded with -0.0 to the longest element otherwise. Both hold
        the points in the same layout and add them in the same order as
        points.mean(axis=0), so the result is bit-identical to the
        per-element mean."""
        index, shape, counts = gather
        return self.points[self.slot(back)][index].reshape(shape).sum(axis=1) / counts

    def kind_of(self, eid: int) -> str:
        et = self.types.get(eid)
        if et is None:
            raise EvalError(f"no type for element e({eid})")
        return et.value


class TruthRow:
    """Ground truth of every element tracked on `ring`, for one tick: one
    (P, 3) float array `points` in the ring's span order. Build one with
    PointRing.pack, or keep one and rewrite the spans of moved elements in
    place (ring.spans[eid] is an element's span)."""

    __slots__ = ("points", "ring")

    def __init__(self, points: np.ndarray, ring: PointRing):
        self.points = points
        self.ring = ring

    def values(self) -> list:
        """Per-element (k, 3) views of `points` in span order, as the values
        of the id -> points dict it was packed from (perfbench's tracer
        counts the points a step tracks through them)."""
        return [self.points[lo:hi] for lo, hi in self.ring.spans.values()]


class SimTracker:
    """Noisy tracker over ground-truth element points, with tracks started
    from the elements' own points (the extraction snapshot, exact) at
    `tick`; fk_eids are the elements served noiselessly."""

    def __init__(self, cfg: TrackerConfig, seed: int, elements, tick: int, fk_eids=(), capacity: int = RING_CAPACITY):
        self.cfg = cfg
        self.rng = np.random.default_rng(seed)
        self.ring = PointRing(elements, tick, capacity, set(fk_eids))
        n_noisy = self.ring.n_points - self.ring.noisy_lo
        self._uniform = np.empty(n_noisy)
        self._normal = np.empty((n_noisy, 3))

    def step(self, row: TruthRow, tick: int):
        """Advance every track one tick from the ground truth `row`, a
        TruthRow for this tracker's ring; its points are copied once into
        the new ring entry, so the caller may rewrite them afterwards.

        Per point: with probability dropout hold the previous value,
        otherwise truth + N(0, sigma^2 I3). Every resync interval the track
        snaps to truth exactly. FK-sourced elements are always exact.
        Raises TrackError for a row of another ring (PointRing.pack raises
        it for id and point-count mismatches).

        A noisy tick makes one call for the dropout uniforms of every noisy
        point, then, when sigma > 0, one call for their normals, both over
        the noisy span in element id order; a resync tick draws nothing.
        That order fixes the random stream, so it is part of the
        determinism contract."""
        ring = self.ring
        if row.ring is not ring:
            raise TrackError("truth row was packed for another ring")
        lo = ring.noisy_lo
        prev = ring.points[ring.head, lo:-1]
        if ring.capacity == 1:
            prev = prev.copy()  # the new entry overwrites the only slot
        new = ring.push(tick, row.points)
        if lo == ring.n_points or tick % self.cfg.resync_interval == 0:
            return ring
        sigma = self.cfg.sigma
        self.rng.random(out=self._uniform)
        if sigma > 0:
            self.rng.standard_normal(out=self._normal)
        noisy = new[lo:]
        # the same doubles as truth + rng.normal(0, sigma), or truth + zeros
        noisy += self._normal * sigma if sigma > 0 else 0.0
        drop = self._uniform < self.cfg.dropout
        np.copyto(noisy, prev, where=drop[:, None])
        return ring


@dataclass(frozen=True)
class DebouncePolicy:
    k: int = 3  # consecutive violating ticks before a DURING violation
    h: int = 5  # hold ticks required for completion

    def __post_init__(self):
        if self.k < 1 or self.h < 1:
            raise ValueError("debounce K and H must be >= 1")


class VerdictKind(str, Enum):
    OK = "ok"
    VIOLATION = "violation"
    SUBGOAL_COMPLETE = "subgoal_complete"
    NOT_YET = "not_yet"
    HALT = "halt"  # entered the completion region while moving: halt now


class Verdict(NamedTuple):
    """One tick's verdict. A SUBGOAL_COMPLETE carries mode ON_COMPLETION when
    completion programs confirmed it, None when motion end alone did. A
    NamedTuple, not a frozen dataclass, because one is built every monitored
    tick and a tuple costs about half as much to build."""

    tick: int
    kind: VerdictKind
    cid: str = ""
    mode: Mode | None = None
    reason: str = ""

    @property
    def is_violation(self) -> bool:
        return self.kind is VerdictKind.VIOLATION


def _fail_safe(program) -> bool | None:
    """evaluate(program), with an evaluation error read as None: a false
    tick (fail-safe) rather than a skipped one."""
    try:
        return evaluate(program)
    except EvalError:
        return None


def _reason(program, ok: bool | None) -> str:
    """The fail text of this tick's false evaluation of `program` (`ok` from
    _fail_safe): INTERNAL_ERROR_REASON for an evaluation error, else the
    program's template filled from what the evaluation measured. Only the
    verdict that reports a program formats it."""
    return INTERNAL_ERROR_REASON if ok is None else fail_reason(program)


class RealTimeMonitor:
    """Evaluates a subgoal's programs, compiled onto the tracker's ring
    (conlang.typecheck, as simlab.episode.load_program does), against the
    tracked element state."""

    def __init__(self, programs, policy: DebouncePolicy = DebouncePolicy(), halt_on_completion=False):
        self.during = [p for p in programs if p.mode is Mode.DURING]
        self.completion = [p for p in programs if p.mode is Mode.ON_COMPLETION]
        self.policy = policy
        self.halt_on_completion = halt_on_completion
        self._false_streak = {p.cid: 0 for p in self.during}
        self._reported: set = set()
        # ticks in a row on which every ON_COMPLETION program held: in
        # motion the entry check, after motion end the completion hold
        self._held_streak = 0
        self._motion_end: int | None = None

    def monitor_tick(self, tick: int) -> Verdict:
        """Evaluate all DURING programs; a program false K ticks in a row
        yields a Violation (first program in id order wins the tick), once
        per program over the monitor's life."""
        verdict = None
        for prog in self.during:
            ok = _fail_safe(prog)
            if ok:
                self._false_streak[prog.cid] = 0
                continue
            self._false_streak[prog.cid] += 1
            if (
                verdict is None
                and self._false_streak[prog.cid] >= self.policy.k
                and prog.cid not in self._reported
            ):
                verdict = Verdict(tick, VerdictKind.VIOLATION, prog.cid, Mode.DURING, _reason(prog, ok))
        if verdict is not None:
            self._reported.add(verdict.cid)
            return verdict
        return Verdict(tick, VerdictKind.OK)

    def note_motion_end(self, tick: int):
        """The first call marks the motion end and restarts the held streak,
        so the completion hold counts only ticks after it."""
        if self._motion_end is None:
            self._motion_end = tick
            self._held_streak = 0

    def next_verdict(self, tick: int, motion_done: bool) -> Verdict:
        """The verdict for this tick, given whether policy motion has ended.

        In motion: a DURING violation, else HALT once a halt-on-completion
        subgoal has entered its completion region (every ON_COMPLETION
        program held K ticks in a row, so objects still crossing the region
        boundary settle clearly inside), else OK. After motion: the
        completion hold (check_completion), or SUBGOAL_COMPLETE at once
        when there are no ON_COMPLETION programs."""
        if motion_done:
            if not self.completion:
                return Verdict(tick, VerdictKind.SUBGOAL_COMPLETE)
            self.note_motion_end(tick)
            return self.check_completion(tick)
        verdict = self.monitor_tick(tick) if self.during else Verdict(tick, VerdictKind.OK)
        if verdict.is_violation:
            return verdict
        if self.halt_on_completion and self.completion:
            self._hold_tick()
            if self._held_streak >= self.policy.k:
                self.note_motion_end(tick)
                return Verdict(tick, VerdictKind.HALT)
        return verdict

    def _hold_tick(self):
        """Evaluate every ON_COMPLETION program, extend or reset the held
        streak, and return (program, ok) of the first that does not hold (an
        evaluation error, ok None, counts as not holding), or None."""
        first_bad = None
        for prog in self.completion:
            ok = _fail_safe(prog)
            if not ok and first_bad is None:
                first_bad = (prog, ok)
        self._held_streak = 0 if first_bad else self._held_streak + 1
        return first_bad

    def check_completion(self, tick: int) -> Verdict:
        """After motion end: SUBGOAL_COMPLETE once every ON_COMPLETION program
        has held for H consecutive ticks; a Violation if any is still false
        3H ticks after motion end; NOT_YET in between."""
        if self._motion_end is None:
            raise ValueError("check_completion before motion end")
        first_bad = self._hold_tick()
        if first_bad is None:
            if self._held_streak >= self.policy.h:
                return Verdict(tick, VerdictKind.SUBGOAL_COMPLETE, mode=Mode.ON_COMPLETION)
        elif tick - self._motion_end >= 3 * self.policy.h:
            prog, ok = first_bad
            return Verdict(tick, VerdictKind.VIOLATION, prog.cid, Mode.ON_COMPLETION, _reason(prog, ok))
        return Verdict(tick, VerdictKind.NOT_YET)


@dataclass
class LatencyReport:
    pairs: list = field(default_factory=list)  # (injection_tick, verdict_tick, latency)
    false_positives: int = 0

    @property
    def latencies(self):
        return [p[2] for p in self.pairs]


def latency_report(events) -> LatencyReport:
    """Match violation verdicts to disturbance injections in an event log.

    Each violation is paired with the most recent unmatched injection at or
    before its tick; a violation with no available injection counts as a
    false positive. Events are dicts with at least {kind, tick, payload}, as
    SimState.log writes them; a verdict's outcome is payload["outcome"]."""
    report = LatencyReport()
    open_injections: list = []
    for ev in events:
        if ev["kind"] == "injection":
            open_injections.append(ev["tick"])
        elif ev["kind"] == "verdict" and ev["payload"]["outcome"] == "violation":
            tick = ev["tick"]
            candidates = [t for t in open_injections if t <= tick]
            if candidates:
                inj = max(candidates)
                open_injections.remove(inj)
                report.pairs.append((inj, tick, tick - inj))
            else:
                report.false_positives += 1
    return report
