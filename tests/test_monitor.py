import math

import numpy as np
import pytest

from camlab.conlang import Mode, ValidationFailure, parse, typecheck
from camlab.elementizer import end_effector_element, make_element_set
from camlab.errors import TrackError
from camlab.monitor import (
    INTERNAL_ERROR_REASON,
    DebouncePolicy,
    RealTimeMonitor,
    SimTracker,
    TrackerConfig,
    Verdict,
    VerdictKind,
    latency_report,
)
from camlab.simlab.episode import load_program


def two_point_set(d=0.02):
    ee = end_effector_element([(0.0, 0.0, 0.1)])
    blk = end_effector_element([(0.0, 0.0, 0.1 - d)], entity="block")
    return make_element_set([ee, blk])


HOLD_SRC = (
    'constraint "hold" mode during tol near = 3 cm '
    "{ dist(centroid(e(1)), centroid(e(0))) <= near } "
    'fail "block left the gripper ({dist} m)"'
)

DONE_SRC = (
    'constraint "placed" mode on_completion tol near = 3 cm '
    "{ dist(centroid(e(1)), centroid(e(0))) <= near } "
    'fail "block not on target ({dist} m)"'
)


def tracker_for(es, cfg=None, fk=(0,), seed=1):
    tr = SimTracker(cfg or TrackerConfig(sigma=0.0, dropout=0.0), seed, es, 0, fk_eids=fk)
    return tr


def program(src, tr, cid=None):
    """src compiled onto the tracker's ring by typecheck, which must find no
    issue (white-box validation is left out: some programs here fail it)."""
    prog = typecheck(parse(src, cid=cid), tr.ring)
    assert prog.issues == [], prog.issues
    return prog


def truth_of(es):
    return {e.eid: e.points for e in es}


# ---------------------------------------------------------------------------
# tracker


def test_tracker_noiseless_identity():
    es = two_point_set()
    tr = tracker_for(es, TrackerConfig(sigma=0.0, dropout=0.0), fk=(), seed=3)
    truth = truth_of(es)
    for t in range(1, 10):
        tr.step(tr.ring.pack(truth), t)
    for eid in truth:
        assert np.array_equal(tr.ring.points_at(eid, 0), truth[eid])


def test_tracker_full_dropout_holds_first_value():
    es = two_point_set()
    tr = tracker_for(es, TrackerConfig(sigma=0.001, dropout=0.999999, resync_interval=10**9), fk=(), seed=3)
    first = {eid: tr.ring.points_at(eid, 0).copy() for eid in tr.ring.spans}
    moved = {eid: pts + 0.05 for eid, pts in truth_of(es).items()}
    for t in range(1, 8):
        tr.step(tr.ring.pack(moved), t)
    for eid in tr.ring.spans:
        assert np.array_equal(tr.ring.points_at(eid, 0), first[eid])


def test_tracker_rms_error_band():
    # sigma 0.002, 1000 ticks: per-axis RMS error lands around sigma
    cfg = TrackerConfig(sigma=0.002, dropout=0.01, resync_interval=20)
    es = two_point_set()
    tr = tracker_for(es, cfg, fk=(), seed=7)
    truth = truth_of(es)
    errs = []
    for t in range(1, 1001):
        tr.step(tr.ring.pack(truth), t)
        errs.append(tr.ring.points_at(1, 0) - truth[1])
    rms = float(np.sqrt(np.mean(np.square(np.concatenate(errs)))))
    assert 0.0015 <= rms <= 0.0025


def test_tracker_unbiased():
    cfg = TrackerConfig(sigma=0.002, dropout=0.01, resync_interval=20)
    es = two_point_set()
    tr = tracker_for(es, cfg, fk=(), seed=11)
    truth = truth_of(es)
    errs = []
    for t in range(1, 10001):
        tr.step(tr.ring.pack(truth), t)
        errs.append(tr.ring.points_at(1, 0) - truth[1])
    mean = np.mean(np.vstack(errs), axis=0)
    bound = 3 * cfg.sigma / math.sqrt(10000)
    assert np.all(np.abs(mean) < bound)


def test_tracker_resync_snaps_exactly():
    cfg = TrackerConfig(sigma=0.01, dropout=0.0, resync_interval=5)
    es = two_point_set()
    tr = tracker_for(es, cfg, fk=(), seed=2)
    truth = truth_of(es)
    for t in range(1, 6):
        tr.step(tr.ring.pack(truth), t)
    assert np.array_equal(tr.ring.points_at(1, 0), truth[1])  # tick 5 is a resync


def test_tracker_unknown_id_rejected():
    es = two_point_set()
    tr = tracker_for(es)
    bad = dict(truth_of(es))
    bad[99] = np.zeros((1, 3))
    with pytest.raises(TrackError):
        tr.step(tr.ring.pack(bad), 1)


def test_fk_elements_are_noiseless():
    cfg = TrackerConfig(sigma=0.01, dropout=0.5, resync_interval=10**6)
    es = two_point_set()
    tr = tracker_for(es, cfg, fk=(0,), seed=5)
    truth = truth_of(es)
    for t in range(1, 20):
        tr.step(tr.ring.pack(truth), t)
    assert np.array_equal(tr.ring.points_at(0, 0), truth[0])


# ---------------------------------------------------------------------------
# monitor_tick debounce


def run_ticks(mon, tr, truths, start=1):
    verdicts = []
    for i, truth in enumerate(truths):
        t = start + i
        tr.step(tr.ring.pack(truth), t)
        verdicts.append(mon.monitor_tick(t))
    return verdicts


def test_monitor_all_ok():
    es = two_point_set()
    tr = tracker_for(es, fk=(0, 1))
    mon = RealTimeMonitor([program(HOLD_SRC, tr)], DebouncePolicy(k=3))
    vs = run_ticks(mon, tr, [truth_of(es)] * 5)
    assert all(v.kind is VerdictKind.OK for v in vs)


def test_monitor_violation_fires_at_kth_tick():
    es = two_point_set()
    tr = tracker_for(es, fk=(0, 1))
    k = 3
    mon = RealTimeMonitor([program(HOLD_SRC, tr)], DebouncePolicy(k=k))
    good = truth_of(es)
    bad = {0: good[0], 1: good[1] - [0, 0, 0.2]}  # block fell 20 cm
    vs = run_ticks(mon, tr, [good, good, bad, bad, bad, bad])
    kinds = [v.kind for v in vs]
    # false on ticks 3,4,5 -> violation exactly at tick 5 (t + K - 1), silent before
    assert kinds[:4] == [VerdictKind.OK] * 4
    assert vs[4].kind is VerdictKind.VIOLATION
    assert vs[4].tick == 5
    assert "block left the gripper" in vs[4].reason
    # no verdict storm: the persistent violation is reported exactly once
    assert vs[5].kind is VerdictKind.OK


def test_monitor_single_tick_spike_silent():
    es = two_point_set()
    tr = tracker_for(es, fk=(0, 1))
    mon = RealTimeMonitor([program(HOLD_SRC, tr)], DebouncePolicy(k=3))
    good = truth_of(es)
    spike = {0: good[0], 1: good[1] + [0, 0, 0.5]}
    vs = run_ticks(mon, tr, [good, spike, good, good, spike, good, good])
    assert all(v.kind is VerdictKind.OK for v in vs)


def test_monitor_internal_error_fail_safe():
    # a program whose runtime errors (division by zero) must violate, not skip
    src = 'constraint "boom" mode during { 1 / (centroid(e(0)) - centroid(e(0))) < 2 } fail "r"'
    # vector minus vector is a vec; dividing errors at runtime -- simpler: 1/0
    src = 'constraint "boom" mode during { 1 / 0 < 2 } fail "r"'
    es = two_point_set()
    tr = tracker_for(es, fk=(0, 1))
    mon = RealTimeMonitor([program(src, tr)], DebouncePolicy(k=2))
    vs = run_ticks(mon, tr, [truth_of(es)] * 3)
    assert vs[1].is_violation
    assert vs[1].reason == INTERNAL_ERROR_REASON


# the hold program, and an angle that raises on the tick whose points coincide
HOLD_OR_RAISE_SRC = HOLD_SRC.replace(
    "<= near }", "<= near and angle(centroid(e(1)) - centroid(e(0)), axis_z) >= 0 rad }"
)


def fallen(good, z):
    return {0: good[0], 1: good[1] - [0, 0, z]}


def test_violation_reason_is_from_the_kth_false_tick():
    # the block falls further every tick: the text carries the distance
    # of the tick that reports it, not of the first false tick
    es = two_point_set()
    good = truth_of(es)
    tr = tracker_for(es, fk=(0, 1))
    mon = RealTimeMonitor([program(HOLD_SRC, tr)], DebouncePolicy(k=3))
    vs = run_ticks(mon, tr, [good] + [fallen(good, z) for z in (0.1, 0.2, 0.3)])
    assert [v.kind for v in vs[:3]] == [VerdictKind.OK] * 3
    assert vs[3].is_violation and vs[3].reason == "block left the gripper (0.32 m)"


def test_violation_reason_of_a_raising_kth_tick_is_internal_error():
    es = two_point_set()
    good = truth_of(es)
    coincide = {0: good[0], 1: good[0]}
    for seq, reason in (
        ([fallen(good, 0.1), fallen(good, 0.2), coincide], INTERNAL_ERROR_REASON),
        ([coincide, fallen(good, 0.1), fallen(good, 0.2)], "block left the gripper (0.22 m)"),
    ):
        tr = tracker_for(es, fk=(0, 1))
        mon = RealTimeMonitor([program(HOLD_OR_RAISE_SRC, tr)], DebouncePolicy(k=3))
        vs = run_ticks(mon, tr, seq)
        assert [v.kind for v in vs] == [VerdictKind.OK] * 2 + [VerdictKind.VIOLATION]
        assert vs[2].reason == reason


def test_first_violation_wins_in_order():
    es = two_point_set()
    tr = tracker_for(es, fk=(0, 1))
    p1 = program(HOLD_SRC.replace('"hold"', '"a"'), tr, cid="a")
    p2 = program(HOLD_SRC.replace('"hold"', '"b"'), tr, cid="b")
    mon = RealTimeMonitor([p1, p2], DebouncePolicy(k=1))
    good = truth_of(es)
    bad = {0: good[0], 1: good[1] - [0, 0, 0.2]}
    tr.step(tr.ring.pack(bad), 1)
    v = mon.monitor_tick(1)
    assert v.cid == "a"


# ---------------------------------------------------------------------------
# completion


def completion_monitor(es, h=5):
    tr = tracker_for(es, fk=(0, 1))
    mon = RealTimeMonitor([program(DONE_SRC, tr)], DebouncePolicy(h=h))
    return tr, mon


def test_completion_holds_h_ticks():
    es = two_point_set()
    tr, mon = completion_monitor(es)
    good = truth_of(es)
    mon.note_motion_end(10)
    results = []
    for t in range(11, 20):
        tr.step(tr.ring.pack(good), t)
        results.append(mon.check_completion(t))
    kinds = [r.kind for r in results]
    assert kinds[:4] == [VerdictKind.NOT_YET] * 4
    assert kinds[4] is VerdictKind.SUBGOAL_COMPLETE  # 5th consecutive good tick


def test_completion_timeout_violation():
    es = two_point_set()
    tr, mon = completion_monitor(es)
    good = truth_of(es)
    bad = {0: good[0], 1: good[1] - [0, 0, 0.0712 - 0.02]}  # dist becomes 0.0712
    mon.note_motion_end(0)
    out = None
    for t in range(1, 30):
        tr.step(tr.ring.pack(bad), t)
        out = mon.check_completion(t)
        if out.kind is not VerdictKind.NOT_YET:
            break
    assert out.is_violation
    assert out.tick == 15  # 3H after motion end
    assert out.reason == "block not on target (0.0712 m)"


def test_completion_timeout_reason_is_from_the_timeout_tick():
    # the block falls 1 cm further every tick; the timeout at tick 15 (3H
    # after motion end) carries tick 15's distance, 0.02 + 0.15 m, and a
    # timeout tick that raises carries the internal-error text
    es = two_point_set()
    good = truth_of(es)
    coincide = {0: good[0], 1: good[0]}
    for raises_at, reason in ((None, "block left the gripper (0.17 m)"), (15, INTERNAL_ERROR_REASON)):
        tr = tracker_for(es, fk=(0, 1))
        mon = RealTimeMonitor([program(HOLD_OR_RAISE_SRC.replace("mode during", "mode on_completion"), tr)])
        mon.note_motion_end(0)
        for t in range(1, 16):
            tr.step(tr.ring.pack(coincide if t == raises_at else fallen(good, 0.01 * t)), t)
            out = mon.check_completion(t)
        assert out.is_violation and out.tick == 15
        assert out.reason == reason


def test_completion_settle_then_hold():
    # settles right before the H-run would fail, then holds: completes at the
    # end of the first H-run
    es = two_point_set()
    tr, mon = completion_monitor(es, h=3)
    good = truth_of(es)
    bad = {0: good[0], 1: good[1] - [0, 0, 0.2]}
    mon.note_motion_end(0)
    seq = [bad, bad, good, good, good]
    results = []
    for i, truth in enumerate(seq):
        t = i + 1
        tr.step(tr.ring.pack(truth), t)
        results.append(mon.check_completion(t))
    assert [r.kind for r in results[:4]] == [VerdictKind.NOT_YET] * 4
    assert results[4].kind is VerdictKind.SUBGOAL_COMPLETE


# ---------------------------------------------------------------------------
# history capacity enforcement


def test_history_capacity_enforced_at_load():
    es = two_point_set()
    tr = SimTracker(TrackerConfig(), 0, es, 0, fk_eids=(0, 1), capacity=16)
    src = 'constraint "x" mode during { displacement(e(1), 200) <= 1 m } fail "r"'
    with pytest.raises(ValidationFailure, match="reaches 200 ticks back, ring capacity 16"):
        load_program(src, "x", tr.ring)


def test_history_reach_below_capacity_loads_and_at_capacity_is_rejected():
    tr = SimTracker(TrackerConfig(), 0, two_point_set(), 0, fk_eids=(0, 1), capacity=16)
    src = 'constraint "x" mode during {{ at(displacement(e(1), 10), {}) <= 1 m }} fail "r"'
    assert load_program(src.format(5), "x", tr.ring).cid == "x"  # 15 ticks back
    with pytest.raises(ValidationFailure, match="reaches 16 ticks back, ring capacity 16"):
        load_program(src.format(6), "x", tr.ring)


@pytest.mark.parametrize(
    "body",
    [
        "dist(centroid(at(e(0), 1)), centroid(e(0))) <= 1 m",
        "count_within(at([e(0), e(1)], 2), box(-1, -1, -1, 1, 1, 1)) >= 1",
    ],
    ids=["elem", "elemlist"],
)
def test_at_around_element_reference_is_rejected_at_load(body):
    tr = SimTracker(TrackerConfig(), 0, two_point_set(), 0, fk_eids=(0, 1), capacity=16)
    with pytest.raises(ValidationFailure, match=r"at\(\) cannot shift an element reference; wrap the builtin"):
        load_program(f'constraint "x" mode during {{ {body} }} fail "r"', "x", tr.ring)


def test_at_around_builtin_loads():
    tr = SimTracker(TrackerConfig(), 0, two_point_set(), 0, fk_eids=(0, 1), capacity=16)
    src = 'constraint "x" mode during { dist(at(centroid(e(0)), 1), centroid(e(0))) <= 1 m } fail "r"'
    assert load_program(src, "x", tr.ring).cid == "x"


# ---------------------------------------------------------------------------
# latency report


def test_latency_simple_match():
    events = [
        {"kind": "injection", "tick": 100, "payload": {}},
        {"kind": "verdict", "tick": 104, "payload": {"outcome": "violation"}},
    ]
    rep = latency_report(events)
    assert rep.pairs == [(100, 104, 4)]
    assert rep.false_positives == 0


def test_latency_empty():
    rep = latency_report([])
    assert rep.pairs == [] and rep.false_positives == 0


def test_latency_false_positive_flagged():
    events = [{"kind": "verdict", "tick": 50, "payload": {"outcome": "violation"}}]
    rep = latency_report(events)
    assert rep.false_positives == 1


def test_latency_matches_most_recent():
    events = [
        {"kind": "injection", "tick": 10, "payload": {}},
        {"kind": "injection", "tick": 40, "payload": {}},
        {"kind": "verdict", "tick": 44, "payload": {"outcome": "violation"}},
        {"kind": "verdict", "tick": 60, "payload": {"outcome": "violation"}},
    ]
    rep = latency_report(events)
    assert (40, 44, 4) in rep.pairs
    assert (10, 60, 50) in rep.pairs


# ---------------------------------------------------------------------------
# noise robustness soak (20 seeds, disturbance-free, zero false positives)


def test_noise_robustness_no_false_positives():
    for seed in range(20):
        cfg = TrackerConfig(sigma=0.002, dropout=0.01, resync_interval=20)
        es = two_point_set()
        tr = SimTracker(cfg, seed, es, 0, fk_eids=(0,))
        mon = RealTimeMonitor([program(HOLD_SRC, tr)], DebouncePolicy(k=3))
        truth = truth_of(es)
        for t in range(1, 501):
            tr.step(tr.ring.pack(truth), t)
            v = mon.monitor_tick(t)
            assert v.kind is VerdictKind.OK, (seed, t, v)


def test_next_verdict_pull_api():
    es = two_point_set()
    good = truth_of(es)
    bad = {0: good[0], 1: good[1] - [0, 0, 0.2]}
    # in motion the DURING checks run; after motion end the H-tick hold
    tr = tracker_for(es, fk=(0, 1))
    mon = RealTimeMonitor([program(HOLD_SRC, tr), program(DONE_SRC, tr)], DebouncePolicy(k=1, h=2))
    tr.step(tr.ring.pack(good), 1)
    assert mon.next_verdict(1, False).kind is VerdictKind.OK
    vs = []
    for t in (2, 3):
        tr.step(tr.ring.pack(good), t)
        vs.append(mon.next_verdict(t, True))
    assert [v.kind for v in vs] == [VerdictKind.NOT_YET, VerdictKind.SUBGOAL_COMPLETE]
    assert vs[1].mode is Mode.ON_COMPLETION
    # still false 3H ticks after motion end: a completion violation
    tr = tracker_for(es, fk=(0, 1))
    mon = RealTimeMonitor([program(DONE_SRC, tr)], DebouncePolicy(h=2))
    for t in range(1, 20):
        tr.step(tr.ring.pack(bad), t)
        v = mon.next_verdict(t, True)
        if v.kind is not VerdictKind.NOT_YET:
            break
    assert v.is_violation and v.mode is Mode.ON_COMPLETION and v.tick == 1 + 3 * 2
    # no ON_COMPLETION programs: the subgoal completes at motion end
    tr = tracker_for(es, fk=(0, 1))
    mon = RealTimeMonitor([program(HOLD_SRC, tr)], DebouncePolicy())
    tr.step(tr.ring.pack(bad), 1)
    v = mon.next_verdict(1, True)
    assert v.kind is VerdictKind.SUBGOAL_COMPLETE and v.mode is None


# ---------------------------------------------------------------------------
# halt-on-completion entry check (in motion)

FAR_SRC = 'constraint "far" mode during { dist(centroid(e(1)), centroid(e(0))) >= 1 m } fail "r"'
BOOM_DONE_SRC = 'constraint "boom" mode on_completion { 1 / 0 < 2 } fail "r"'


def moving_verdicts(mon, tr, truths, start=1):
    out = []
    for t, truth in enumerate(truths, start):
        tr.step(tr.ring.pack(truth), t)
        out.append(mon.next_verdict(t, False))
    return out


def entry_monitor(es, sources, k, halt=True):
    tr = tracker_for(es, fk=(0, 1))
    mon = RealTimeMonitor([program(src, tr) for src in sources], DebouncePolicy(k=k, h=2), halt_on_completion=halt)
    return tr, mon


def test_entry_needs_k_consecutive_true_ticks():
    es = two_point_set()
    good = truth_of(es)
    bad = {0: good[0], 1: good[1] - [0, 0, 0.2]}
    seq = [good, good, bad, good, good, good]
    tr, mon = entry_monitor(es, [DONE_SRC], k=3)
    vs = moving_verdicts(mon, tr, seq)
    # the false tick 3 resets the streak: K = 3 true ticks again end at tick 6
    assert [v.kind for v in vs] == [VerdictKind.OK] * 5 + [VerdictKind.HALT]
    assert vs[5].tick == 6
    # the halt tick is the motion end: the 3H timeout (H = 2) counts from it
    for t in range(7, 20):
        tr.step(tr.ring.pack(bad), t)
        v = mon.next_verdict(t, True)
        if v.kind is not VerdictKind.NOT_YET:
            break
    assert v.is_violation and v.tick == 6 + 3 * 2
    # a subgoal without halt_on_completion never halts
    tr, mon = entry_monitor(es, [DONE_SRC], k=3, halt=False)
    assert all(v.kind is VerdictKind.OK for v in moving_verdicts(mon, tr, seq))


def test_motion_end_restarts_the_held_streak():
    # K - 1 = 2 entered ticks in motion, then the motion ends on its own:
    # those ticks do not count toward the hold, which needs H = 3 fresh ticks
    es = two_point_set()
    good = truth_of(es)
    tr = tracker_for(es, fk=(0, 1))
    mon = RealTimeMonitor([program(DONE_SRC, tr)], DebouncePolicy(k=3, h=3), halt_on_completion=True)
    assert [v.kind for v in moving_verdicts(mon, tr, [good, good])] == [VerdictKind.OK] * 2
    vs = []
    for t in (3, 4, 5):
        tr.step(tr.ring.pack(good), t)
        vs.append(mon.next_verdict(t, True))
    assert [v.kind for v in vs] == [VerdictKind.NOT_YET] * 2 + [VerdictKind.SUBGOAL_COMPLETE]


def test_entry_eval_error_means_not_entered():
    es = two_point_set()
    for sources in ([DONE_SRC, BOOM_DONE_SRC], [BOOM_DONE_SRC, DONE_SRC]):
        tr, mon = entry_monitor(es, sources, k=1)
        vs = moving_verdicts(mon, tr, [truth_of(es)] * 5)
        assert all(v.kind is VerdictKind.OK for v in vs), sources


def test_during_violation_beats_entry_on_the_same_tick():
    es = two_point_set()
    tr, mon = entry_monitor(es, [FAR_SRC, DONE_SRC], k=1)
    vs = moving_verdicts(mon, tr, [truth_of(es)] * 2)
    assert vs[0].is_violation and vs[0].cid == "far" and vs[0].mode is Mode.DURING
    # reported once; the entry check runs on the next tick
    assert vs[1].kind is VerdictKind.HALT
