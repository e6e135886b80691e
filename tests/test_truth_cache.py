"""Ground truth in place, compose on change, and Pose immutability.

_Bound keeps one ground-truth row in the ring's span order and rewrites an
element's span only while its object holds a new Pose object;
Simulation.refresh_attached composes a held object only when the EE Pose,
its attach offset or its own Pose is another object than at its last
compose. These tests pin what makes that safe: a Pose cannot be changed in
place, the row equals the packed output of the dict truth it replaced
(DictTruth below, the reference), and object poses equal composing every
held object on every refresh.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import camlab.simlab.episode as episode
from camlab.geom3d import Box, Pose, quat_mul, quat_to_mat
from camlab.monitor import RealTimeMonitor, SimTracker, TrackerConfig
from camlab.simlab import EpisodeConfig
from camlab.simlab.disturb import Disturbance, DisturbanceInjector, standard_disturbances
from camlab.simlab.world import SimObject, SimState, Simulation, Waypoint


class DictTruth:
    """The id -> world points dict truth that the in-place row replaced: an
    element's points are recomputed only when its object holds a different
    Pose object than last tick."""

    def __init__(self, truth_specs):
        self.truth_specs = truth_specs  # (eid, oid-or-None, local points)
        self._world = [[None, None] for _ in truth_specs]

    def truth(self, sim) -> dict:
        state = sim.state
        out = {}
        for (eid, oid, local), cached in zip(self.truth_specs, self._world):
            if oid is None:
                out[eid] = state.ee_pose.t.reshape(1, 3)
                continue
            pose = state.objects[oid].pose
            if cached[0] is not pose:
                cached[0] = pose
                cached[1] = pose.apply(local)
                cached[1].flags.writeable = False
            out[eid] = cached[1]
        return out


class ComposeEveryTime(Simulation):
    """Reference world: every held object is composed on every refresh."""

    def refresh_attached(self):
        for oid in self.state.held:
            obj = self.state.objects[oid]
            obj.pose = self.state.ee_pose.compose(obj.attach_offset)


def test_pose_arrays_are_private_and_read_only():
    q = np.array([1.0, 0.0, 0.0, 0.0])
    t = np.array([0.1, 0.2, 0.3])
    pose = Pose(q, t)
    t[0] = 9.0  # the caller's array is not shared
    assert pose.t[0] == 0.1
    for arr in (pose.q, pose.t):
        with pytest.raises(ValueError):
            arr[0] = 2.0


@pytest.mark.parametrize(
    "template, disturbances, needed",
    [
        # tilts, a re-level (orient_held) and refresh_attached on held objects
        ("pour_tea", standard_disturbances("pour_tea", "abc"), {"grasp", "tilt_held", "relevel_held"}),
        # random drops tumble a held block and settle it on its support
        ("stack_in_order", standard_disturbances("stack_in_order", p=0.5, q_cm=2.0), {"grasp", "drop", "settled"}),
    ],
)
def test_cached_truth_equals_fresh_pose_apply(monkeypatch, template, disturbances, needed):
    checked = []
    original_init, original_truth = episode._Bound.__init__, episode._Bound.truth

    def init(bound, tracker, monitor, truth_specs):
        original_init(bound, tracker, monitor, truth_specs)
        bound.reference = truth_specs

    def checked_truth(bound, sim):
        row = original_truth(bound, sim)
        fresh = {
            eid: sim.state.ee_pose.t.reshape(1, 3) if oid is None else sim.state.objects[oid].pose.apply(local)
            for eid, oid, local in bound.reference
        }
        assert row.points.tobytes() == row.ring.pack(fresh).points.tobytes(), sim.state.tick
        checked.append(sim.state.tick)
        return row

    monkeypatch.setattr(episode._Bound, "__init__", init)
    monkeypatch.setattr(episode._Bound, "truth", checked_truth)
    result = episode.run_episode(EpisodeConfig(template=template, disturbances=disturbances, seed=1))
    seen = {e["kind"] for e in result.events}
    seen |= {e["payload"]["kind"] for e in result.events if e["kind"] == "injection"}
    assert needed <= seen, needed - seen
    assert len(checked) > 100


def test_truth_sees_a_new_pose_on_every_move(monkeypatch):
    # Poses keep their rotation and inverse once computed, so a moved object
    # must never keep its Pose object: at every truth() call, an object
    # still holding last call's Pose has last call's bytes, and that Pose's
    # kept rotation is the fresh one
    last, moves = {}, []
    original_truth = episode._Bound.truth

    def checked_truth(bound, sim):
        for oid, obj in sim.state.objects.items():
            pose, was = obj.pose, last.get(oid)
            now = (pose.q.tobytes(), pose.t.tobytes())
            if was is not None and was[0] is pose:
                assert was[1] == now, (oid, sim.state.tick)
                assert pose.rotation().tobytes() == quat_to_mat(pose.q).tobytes()
            elif was is not None and was[1] != now:
                moves.append(oid)
            last[oid] = (pose, now)
        return original_truth(bound, sim)

    monkeypatch.setattr(episode._Bound, "truth", checked_truth)
    disturbances = standard_disturbances("pour_tea", "abc")
    episode.run_episode(EpisodeConfig(template="pour_tea", disturbances=disturbances, seed=1))
    assert len(moves) > 100


# ---------------------------------------------------------------------------
# property: in-place truth and compose-on-change over random worlds

OIDS = ("a", "b", "c")
_coord = st.floats(-0.3, 0.3, allow_nan=False)
_quat = st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=4, max_size=4).filter(
    lambda q: np.dot(q, q) > 0.1
)
_OPS = st.one_of(
    st.tuples(st.just("ee"), st.tuples(_coord, _coord, st.floats(0.0, 0.3)), _quat),
    st.tuples(st.just("ee_reuse"), st.integers(0, 50)),
    st.tuples(
        st.just("policy"),
        st.tuples(_coord, _coord, st.floats(0.0, 0.3)),
        st.one_of(st.none(), _quat),
        st.integers(0, 3),
        st.integers(1, 6),
    ),
    st.tuples(st.just("grasp"), st.sampled_from(OIDS)),
    st.tuples(st.just("push"), st.lists(st.sampled_from(OIDS), min_size=1, max_size=3, unique=True)),
    st.tuples(st.just("release")),
    st.tuples(st.just("move_object"), st.sampled_from(OIDS), st.tuples(_coord, _coord, st.just(0.0))),
    st.tuples(st.just("rotate_object"), st.sampled_from(OIDS), st.sampled_from("xyz"), st.floats(-90, 90)),
    st.tuples(st.just("tilt_held"), st.sampled_from("xyz"), st.floats(-30, 30)),
    st.tuples(st.just("relevel_held")),
    st.tuples(st.just("restore"), st.sampled_from(OIDS), st.integers(0, 50)),
    st.tuples(st.just("step"), st.integers(1, 4)),
)


def _world(layout):
    objects = {}
    for oid, (x, y) in zip(OIDS, layout):
        objects[oid] = SimObject(oid, Box((0.04, 0.04, 0.04)), Pose(t=[x, y, 0.02]))
    return SimState(objects=objects, ee_pose=Pose(t=[0.0, 0.0, 0.2]))


def _unit(q):
    q = np.asarray(q, dtype=np.float64)
    return q / np.linalg.norm(q)


@settings(max_examples=80, deadline=None)
@given(
    layout=st.lists(st.tuples(_coord, _coord), min_size=3, max_size=3),
    n_local=st.lists(st.integers(1, 4), min_size=3, max_size=3),
    ops=st.lists(_OPS, min_size=1, max_size=25),
    seed=st.integers(0, 2**16),
)
def test_in_place_truth_matches_dict_truth_and_compose_every_time(layout, n_local, ops, seed):
    rng = np.random.default_rng(seed)
    sim, ref = Simulation(_world(layout)), ComposeEveryTime(_world(layout))
    specs = [(0, None, None)] + [(i + 1, oid, rng.normal(0, 0.02, (k, 3))) for i, (oid, k) in enumerate(zip(OIDS, n_local))]
    elements = [SimpleNamespace(eid=0, etype=None, points=sim.state.ee_pose.t.reshape(1, 3))]
    elements += [
        SimpleNamespace(eid=eid, etype=None, points=sim.state.objects[oid].pose.apply(local)) for eid, oid, local in specs[1:]
    ]
    tracker = SimTracker(TrackerConfig(sigma=0.0, dropout=0.0, resync_interval=1), 0, elements, 0, fk_eids=(0,))
    bound = episode._Bound(tracker, RealTimeMonitor([]), specs)
    reference = DictTruth(specs)
    ee_poses = [sim.state.ee_pose]
    history = {oid: [sim.state.objects[oid].pose] for oid in OIDS}  # Poses each object held
    packed = []

    def both(fn):
        for s in (sim, ref):
            fn(s)

    def step():
        both(lambda s: s.step())
        assert sim.state.tick == ref.state.tick
        for oid in OIDS:
            got, want = sim.state.objects[oid].pose, ref.state.objects[oid].pose
            assert (got.q.tobytes(), got.t.tobytes()) == (want.q.tobytes(), want.t.tobytes()), oid
            if got is not history[oid][-1]:
                history[oid].append(got)
        assert sim.state.ee_pose.t.tobytes() == ref.state.ee_pose.t.tobytes()
        if sim.state.ee_pose is not ee_poses[-1]:
            ee_poses.append(sim.state.ee_pose)
        row = bound.truth(sim)
        want = tracker.ring.pack(reference.truth(sim)).points
        assert row.points.tobytes() == want.tobytes(), sim.state.tick
        tracker.step(row, sim.state.tick)
        packed.append(want)
        for back, entry in enumerate(reversed(packed[-4:])):  # one copy per step: older entries keep their bytes
            for eid, (lo, hi) in tracker.ring.spans.items():
                assert tracker.ring.points_at(eid, back).tobytes() == entry[lo:hi].tobytes()

    def disturb(d):
        both(lambda s: setattr(s, "injector", DisturbanceInjector([d], np.random.default_rng(0))))
        step()
        both(lambda s: setattr(s, "injector", None))

    for op in ops:
        kind = op[0]
        if kind == "ee":
            pose = Pose(_unit(op[2]), op[1])
            ee_poses.append(pose)
            both(lambda s: setattr(s.state, "ee_pose", pose))
        elif kind == "ee_reuse":
            pose = ee_poses[op[1] % len(ee_poses)]
            both(lambda s: setattr(s.state, "ee_pose", pose))
        elif kind == "policy":
            quat = None if op[2] is None else _unit(op[2])
            script = [Waypoint(op[1], quat, speed=0.5, dwell=op[3])]
            both(lambda s: s.set_policy(script))
            for _ in range(op[4]):
                step()
            both(lambda s: setattr(s, "policy", None))
        elif kind == "grasp":
            pose = Pose(sim.state.ee_pose.q, sim.grasp_point(op[1]))
            ee_poses.append(pose)
            both(lambda s: setattr(s.state, "ee_pose", pose))
            both(lambda s: s.run_action(("grasp", op[1])))
        elif kind == "push":
            both(lambda s: s.run_action(("push", tuple(op[1]))))
        elif kind == "release":
            both(lambda s: s.run_action(("release",)))
        elif kind == "move_object":
            disturb(Disturbance(kind="move_object", oid=op[1], delta=op[2], tick=sim.state.tick + 1))
        elif kind == "rotate_object":
            disturb(Disturbance(kind="rotate_object", oid=op[1], axis=op[2], angle_deg=op[3], tick=sim.state.tick + 1))
        elif kind == "tilt_held":
            disturb(Disturbance(kind="tilt_held", axis=op[1], angle_deg=op[2], tick=sim.state.tick + 1))
        elif kind == "relevel_held":
            disturb(Disturbance(kind="relevel_held", tick=sim.state.tick + 1))
        elif kind == "restore":  # an object takes back one of its earlier Pose objects
            pose = history[op[1]][op[2] % len(history[op[1]])]
            both(lambda s: setattr(s.state.objects[op[1]], "pose", pose))
        elif kind == "step":
            for _ in range(op[1] - 1):
                step()
        step()


# ---------------------------------------------------------------------------
# property: held objects and ground truth reuse rotations, bit for bit


def reference_compose(a, b):
    """(q, t) of a.compose(b) as composed before rotations were kept: a
    fresh matrix, r @ t + t."""
    return quat_mul(a.q, b.q), quat_to_mat(a.q) @ b.t + a.t


def reference_apply(pose, local):
    """pose.apply(local) with a fresh matrix."""
    return local @ quat_to_mat(pose.q).T + pose.t


_delta = st.tuples(*[st.floats(-0.05, 0.05, allow_nan=False)] * 3)
_PATH = st.one_of(
    st.tuples(st.just("translate"), _delta),  # a translated EE Pose: same q and rotation
    st.tuples(st.just("rotate"), _quat),  # a new EE q
    st.tuples(st.just("copy_q"), _delta),  # a new EE q array with the same bytes
    st.tuples(st.just("dwell")),
    st.tuples(
        st.just("policy"),
        st.tuples(_coord, _coord, st.floats(0.0, 0.3)),
        st.one_of(st.none(), _quat),
        st.integers(1, 5),
    ),
    st.tuples(st.just("offset_q"), st.integers(0, 2), _quat),
    st.tuples(st.just("offset_t"), st.integers(0, 2), _delta),
    st.tuples(st.just("outside_t"), st.integers(0, 2), _delta),
    st.tuples(st.just("outside_q"), st.integers(0, 2), _quat),
)


@settings(max_examples=120, deadline=None)
@given(
    n_held=st.integers(1, 3),
    start_q=_quat,
    path=st.lists(_PATH, min_size=1, max_size=30),
    seed=st.integers(0, 2**16),
)
def test_refresh_and_truth_equal_compose_and_apply_over_ee_paths(n_held, start_q, path, seed):
    rng = np.random.default_rng(seed)
    state = _world(rng.uniform(-0.2, 0.2, (3, 2)))
    state.ee_pose = Pose(_unit(start_q), [0.0, 0.0, 0.2])
    sim = Simulation(state)
    held = list(OIDS[:n_held])
    for oid in held:
        sim.attach(oid)
    specs = [(0, None, None)] + [(i + 1, oid, rng.normal(0, 0.02, (3, 3))) for i, oid in enumerate(OIDS)]
    elements = [SimpleNamespace(eid=0, etype=None, points=state.ee_pose.t.reshape(1, 3))]
    elements += [SimpleNamespace(eid=e, etype=None, points=local) for e, _, local in specs[1:]]
    tracker = SimTracker(TrackerConfig(sigma=0.0, dropout=0.0, resync_interval=1), 0, elements, 0, fk_eids=(0,))
    bound = episode._Bound(tracker, RealTimeMonitor([]), specs)

    def check():
        before = {oid: state.objects[oid].pose for oid in OIDS}
        sim.refresh_attached()
        for oid in OIDS:
            pose = state.objects[oid].pose
            if oid not in held:
                assert pose is before[oid]
                continue
            q, t = reference_compose(state.ee_pose, state.objects[oid].attach_offset)
            assert (pose.q.tobytes(), pose.t.tobytes()) == (q.tobytes(), t.tobytes()), oid
            old = before[oid]
            if (old.q.tobytes(), old.t.tobytes()) == (q.tobytes(), t.tobytes()):
                assert pose is old, oid  # unchanged bits keep the Pose
            elif old.q.tobytes() == q.tobytes():
                assert pose.rotation() is old.rotation(), oid  # only t moved: the rotation is shared
        row = bound.truth(sim).points
        for eid, oid, local in specs:
            lo, hi = tracker.ring.spans[eid]
            pose = state.ee_pose if oid is None else state.objects[oid].pose
            want = pose.t.reshape(1, 3) if oid is None else reference_apply(pose, local)
            assert row[lo:hi].tobytes() == want.tobytes(), eid

    check()
    for op in path:
        kind, ee = op[0], state.ee_pose
        if kind == "translate":
            state.ee_pose = ee.translated(ee.t + np.array(op[1]))
        elif kind == "rotate":
            state.ee_pose = Pose(_unit(op[1]), ee.t)
        elif kind == "copy_q":
            state.ee_pose = Pose(ee.q, ee.t + np.array(op[1]))
        elif kind == "policy":
            quat = None if op[2] is None else _unit(op[2])
            sim.set_policy([Waypoint(op[1], quat, speed=0.5)])
            for _ in range(op[3]):
                sim.policy.advance(sim)
                check()
            sim.policy = None
        elif kind in ("offset_q", "offset_t", "outside_t", "outside_q"):
            obj = state.objects[held[op[1] % len(held)]]
            if kind == "offset_q":
                obj.attach_offset = Pose(_unit(op[2]), obj.attach_offset.t)
            elif kind == "offset_t":
                obj.attach_offset = Pose(obj.attach_offset.q, obj.attach_offset.t + np.array(op[2]))
            elif kind == "outside_t":  # a disturbance moving a held object
                obj.pose = Pose(obj.pose.q, obj.pose.t + np.array(op[2]))
            else:
                obj.pose = Pose(_unit(op[2]), obj.pose.t)
        check()
