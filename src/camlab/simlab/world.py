"""Kinematic world model: solid objects, attachment, drop-to-support.

No dynamics: a released object falls instantly to rest on the highest
supporting surface beneath its center, held objects follow the end-effector
rigidly, and nothing ever bounces. This keeps every failure mode geometric
and every run bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from camlab.geom3d import Box, Cylinder, Pose, quat_mul, quat_slerp

__all__ = [
    "DT",
    "TICK_HZ",
    "SimObject",
    "SimState",
    "Waypoint",
    "PolicyRuntime",
    "Simulation",
]

TICK_HZ = 20
DT = 1.0 / TICK_HZ


@dataclass
class SimObject:
    oid: str
    shape: Box | Cylinder
    pose: Pose
    parts: dict = field(default_factory=dict)  # name -> (lo, hi) local AABB
    attach_offset: Pose = field(default_factory=Pose.identity)  # from the EE, while held
    # container objects (e.g. a pen holder) accept dropped objects whose
    # center lands within bore_radius of the axis; they rest on the inner floor
    bore_radius: float = 0.0
    bore_floor_z: float = 0.0  # local z of the inner floor

    def world_half_z(self) -> float:
        """Half the world-frame z-extent (handles rotated objects)."""
        return self.shape.world_half_z(self.pose.rotation())

    def top_z(self) -> float:
        return float(self.pose.t[2]) + self.world_half_z()

    def supports_xy(self, x: float, y: float) -> bool:
        """True if a center at world (x, y) would rest on this object's top:
        the vertical line through it meets the solid. In the local frame
        that line passes through R^T (dx, dy, 0) along R^T z, the offset
        (dx, dy) taken from the object's centre."""
        tx, ty, _ = self.pose.t.tolist()
        dx, dy = x - tx, y - ty
        r0, r1, r2 = self.pose.rotation().tolist()
        return self.shape.meets_line([a * dx + b * dy for a, b in zip(r0, r1)], r2)

    def in_bore_xy(self, xy: np.ndarray) -> bool:
        if self.bore_radius <= 0:
            return False
        d = xy - self.pose.t[:2]
        return bool(d[0] ** 2 + d[1] ** 2 <= self.bore_radius**2)

    def lateral_half_extent(self) -> float:
        """Worst-case world-frame horizontal half-extent (for bore fit)."""
        return self.shape.lateral_half_extent(self.pose.rotation())


@dataclass
class SimState:
    tick: int = 0
    objects: dict = field(default_factory=dict)  # oid -> SimObject
    ee_pose: Pose = field(default_factory=Pose.identity)
    held: list = field(default_factory=list)  # oids attached to the EE, the one record of holding
    events: list = field(default_factory=list)

    def log(self, kind: str, /, **payload):
        self.events.append({"tick": self.tick, "kind": kind, "payload": payload})


# ---------------------------------------------------------------------------
# waypoint policies


@dataclass
class Waypoint:
    pos: np.ndarray | None = None  # None keeps the current position
    quat: np.ndarray | None = None  # None keeps the current orientation
    speed: float = 0.15  # m/s
    ang_speed: float = math.pi  # rad/s
    dwell: int = 0  # extra ticks to hold at the waypoint
    action: tuple = ()  # executed once when the waypoint is reached

    def __post_init__(self):
        if self.pos is not None:
            self.pos = np.asarray(self.pos, dtype=np.float64)
        if self.quat is not None:
            self.quat = np.asarray(self.quat, dtype=np.float64)
        if self.speed <= 0 or self.ang_speed <= 0:
            raise ValueError("waypoint speeds must be positive")


class PolicyRuntime:
    """Executes a waypoint script, a list of Waypoints, one tick at a time."""

    def __init__(self, waypoints: list):
        self.waypoints = waypoints
        self.index = 0
        self.dwelled = 0
        self.halted = False

    @property
    def motion_done(self) -> bool:
        """The script ran to its end or the policy was halted."""
        return self.halted or self.index >= len(self.waypoints)

    def halt(self):
        """Freeze the policy for good: advance no longer moves the EE."""
        self.halted = True

    def advance(self, sim: "Simulation"):
        """Move the EE toward the active waypoint; run its action on arrival."""
        if self.motion_done:
            return
        state = sim.state
        wp = self.waypoints[self.index]
        pose = state.ee_pose
        new_t = pose.t
        new_q = pose.q
        pos_done = True
        if wp.pos is not None:
            delta = wp.pos - pose.t
            dist = math.sqrt(delta.dot(delta))  # np.linalg.norm's arithmetic, without its overhead
            step = wp.speed * DT
            if dist > step:
                new_t = pose.t + delta / dist * step
                pos_done = False
            else:
                new_t = wp.pos.copy()
        ang_done = True
        if wp.quat is not None:
            dot = abs(float(np.dot(pose.q, wp.quat)))
            ang = 2.0 * math.acos(min(1.0, dot))
            step = wp.ang_speed * DT
            if ang > step:
                new_q = quat_slerp(pose.q, wp.quat, step / ang)
                ang_done = False
            else:
                new_q = wp.quat.copy()
        new_q = new_q / math.sqrt(new_q.dot(new_q))
        # keep the Pose when nothing moved (a dwell tick), so the held
        # objects composed from it are not composed again; keep its q (and
        # rotation) when only t moved, so they are not rotated again
        if new_q.tobytes() != pose.q.tobytes():
            state.ee_pose = Pose._own(new_q, new_t)
        elif new_t.tobytes() != pose.t.tobytes():
            state.ee_pose = pose.translated(new_t)
        sim.refresh_attached()
        if pos_done and ang_done:
            if self.dwelled < wp.dwell:
                self.dwelled += 1
                return
            if wp.action:
                sim.run_action(wp.action)
            self.dwelled = 0
            self.index += 1


# ---------------------------------------------------------------------------
# the simulation


class Simulation:
    """Owns sim state, the active policy, and the disturbance injector."""

    def __init__(self, state: SimState, injector=None):
        self.state = state
        self.injector = injector
        self.policy: PolicyRuntime | None = None
        # oid -> [EE Pose, attach offset, object Pose] at its last refresh,
        # and the EE q, q and rotated offset of its last rotation
        self._attached: dict = {}

    # -- policy & attachment plumbing

    def set_policy(self, waypoints: list):
        self.policy = PolicyRuntime(waypoints)

    @property
    def motion_done(self) -> bool:
        return self.policy is None or self.policy.motion_done

    def refresh_attached(self):
        """Move every held object with the end-effector, to the Pose
        ee.compose(attach_offset) in bits.

        Nothing is computed while the EE Pose, the attach offset and the
        object's Pose are the objects they were at the last refresh (Poses
        never change, so the same three give the same result; a Pose set
        from outside, such as a disturbance moving a held object, is moved
        again as before). Otherwise q = ee.q * offset.q and the rotated
        offset R(ee.q) @ offset.t are taken from the last refresh while the
        EE q array and the offset are the same objects, and t is that
        rotated offset + ee.t, the sum compose computes. The object keeps
        its Pose when q and t are bit-for-bit those it has (bytes, so -0.0
        and 0.0 differ), and keeps its q and rotation when only t moved:
        ground-truth caches keyed on either then skip it."""
        ee = self.state.ee_pose
        for oid in self.state.held:
            obj = self.state.objects[oid]
            offset, pose = obj.attach_offset, obj.pose
            last = self._attached.get(oid)
            if last is not None and last[0] is ee and last[1] is offset and last[2] is pose:
                continue
            if last is None or last[1] is not offset or last[3] is not ee.q:
                rotated_t = ee.rotation() @ offset.t
                last = self._attached[oid] = [ee, offset, pose, ee.q, quat_mul(ee.q, offset.q), rotated_t]
            q, t = last[4], last[5] + ee.t
            if q.tobytes() != pose.q.tobytes():
                obj.pose = Pose._own(q, t)
            elif t.tobytes() != pose.t.tobytes():
                obj.pose = pose.translated(t)
            last[0], last[2] = ee, obj.pose

    def attach(self, oid: str):
        obj = self.state.objects[oid]
        obj.attach_offset = self.state.ee_pose.inverse().compose(obj.pose)
        if oid not in self.state.held:
            self.state.held.append(oid)

    def detach(self, oid: str, settle: bool = True):
        if oid in self.state.held:
            self.state.held.remove(oid)
        if settle:
            self.drop_to_support(oid)

    def detach_all(self):
        for oid in list(self.state.held):
            self.detach(oid)

    # -- settling

    def drop_to_support(self, oid: str):
        """Rest the object on the highest support beneath its center; held
        objects support nothing.

        An object whose axis lies farther from the center than its
        bounding radius or bore radius along x or y is skipped before the
        per-object tests: neither its top nor its bore can hold the center,
        so the result is that of testing every object."""
        obj = self.state.objects[oid]
        xy = obj.pose.t[:2]
        x, y, z = obj.pose.t.tolist()
        half_z = obj.world_half_z()
        bottom = z - half_z
        best = 0.0  # world floor fallback
        inside_bore = False
        for other in self.state.objects.values():
            ox, oy, _ = other.pose.t.tolist()
            # widened far beyond the rounding of the squared-radius tests
            # (relative 2**-52, and absolute where the squares underflow)
            reach = max(other.shape.bounding_radius, other.bore_radius) * (1.0 + 1e-6) + 1e-9
            if abs(ox - x) > reach or abs(oy - y) > reach:
                continue
            if other.oid == oid or other.oid in self.state.held:
                continue
            if other.in_bore_xy(xy) and obj.lateral_half_extent() <= other.bore_radius:
                floor = float(other.pose.t[2]) + other.bore_floor_z
                if floor <= bottom + 1e-6:
                    best = max(best, floor)
                    inside_bore = True
                continue
            if other.supports_xy(x, y):
                top = other.top_z()
                if top <= bottom + 1e-6:
                    best = max(best, top)
        rest = best + half_z
        obj.pose = obj.pose.translated(np.array([x, y, rest]))
        self.state.log("settled", oid=oid, z=rest, in_bore=inside_bore)

    # -- actions

    def grasp_point(self, oid: str) -> np.ndarray:
        """Nominal grasp point: center of the object's top surface."""
        obj = self.state.objects[oid]
        p = obj.pose.t.copy()
        p[2] = obj.top_z()
        return p

    def run_action(self, action: tuple):
        kind = action[0]
        state = self.state
        if kind == "grasp":
            oid = action[1]
            target = self.grasp_point(oid)
            if float(np.linalg.norm(state.ee_pose.t - target)) <= 0.03:
                self.attach(oid)
                state.log("grasp", oid=oid, ok=True)
            else:
                state.log("grasp", oid=oid, ok=False)
        elif kind == "push":
            for oid in action[1]:
                obj = state.objects[oid]
                if float(np.linalg.norm(state.ee_pose.t[:2] - obj.pose.t[:2])) <= 0.08:
                    self.attach(oid)
            state.log("push", oids=list(action[1]))
        elif kind == "release":
            released = list(state.held)
            self.detach_all()
            state.log("release", oids=released)
        elif kind == "orient_held":
            # re-seat every held object upright under the EE (models an
            # in-gripper regrasp/reorientation); also the re-level recovery
            for oid in state.held:
                obj = state.objects[oid]
                hang = obj.shape.half_extents()[2]
                inv = state.ee_pose.inverse()
                obj.attach_offset = Pose(inv.q, inv.apply(state.ee_pose.t - np.array([0, 0, hang])))
            self.refresh_attached()
            state.log("orient_held", oids=list(state.held))
        else:
            raise ValueError(f"unknown action {action!r}")

    # -- the tick

    def step(self):
        """Advance one tick: run the policy, then pending disturbances.

        A halted or finished policy stays frozen, but time and disturbances
        continue."""
        self.state.tick += 1
        if self.policy is not None:
            self.policy.advance(self)
        if self.injector is not None:
            self.injector.apply(self)
        self.refresh_attached()
        return self.state
