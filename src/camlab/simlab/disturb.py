"""Disturbance taxonomy and injection.

Disturbances trigger at an absolute tick or anchored to a phase (a subgoal
base sid such as `move_pot` + tick offset); the drop hazard is continuous
while an object is held. Every applied disturbance logs exactly one
`injection` event with its tick, so detection latency can be measured from
the log.

The drop hazard maps a per-step release probability p onto ticks: the
per-tick hazard is 1 - (1 - p)^(1/T) with T the nominal carry span, so the
probability of at least one drop over a nominal carry equals p, and p = 1
releases on the very first held tick.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from camlab.geom3d import Pose, quat_conj, quat_from_axis_angle, quat_mul

__all__ = ["Disturbance", "DisturbanceInjector", "CARRY_REF_TICKS", "standard_disturbances"]

CARRY_REF_TICKS = 100  # nominal carry span used to scale the drop hazard

_AXES = {"x": np.array([1.0, 0, 0]), "y": np.array([0, 1.0, 0]), "z": np.array([0, 0, 1.0])}


@dataclass(frozen=True)
class Disturbance:
    kind: str  # drop_with_prob | placement_noise | move_object | force_release
    #           | rotate_object | tilt_held | relevel_held
    p: float = 0.0  # drop_with_prob
    q_cm: float = 0.0  # placement_noise magnitude bound, centimeters
    oid: str = ""  # move_object / rotate_object target
    delta: tuple = (0.0, 0.0, 0.0)  # move_object translation, meters
    axis: str = "x"  # rotate_object / tilt_held
    angle_deg: float = 0.0
    tick: int | None = None  # absolute trigger
    phase: str | None = None  # or: anchored to a subgoal base sid...
    phase_offset: int = 0  # ...this many ticks after that subgoal starts

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("drop probability must be in [0, 1]")
        if not 0 <= self.q_cm < math.inf:
            raise ValueError("placement noise bound must be finite and >= 0")
        if self.tick is not None and self.phase is not None:
            raise ValueError("a disturbance triggers at a tick or at a phase, not both")


def _reseat(obj, q, eq):
    """Rotate a held object by the world rotation q about its grip: its
    attach offset turns so that the EE (orientation eq) composed with it
    gives the object's orientation turned by q."""
    new_q = quat_mul(quat_conj(eq), quat_mul(q, quat_mul(eq, obj.attach_offset.q)))
    obj.attach_offset = Pose(new_q, obj.attach_offset.t)


class DisturbanceInjector:
    """Resolves triggers and mutates sim state; owns its own rng stream."""

    def __init__(self, disturbances, rng: np.random.Generator):
        self.disturbances = list(disturbances)
        self.rng = rng
        self._armed: list = []  # (tick, index) resolved triggers not yet fired
        self._phase_seen: set = set()
        for i, d in enumerate(self.disturbances):
            if d.tick is not None:
                self._armed.append((d.tick, i))
        self._noise_q = max((d.q_cm for d in self.disturbances if d.kind == "placement_noise"), default=0.0)
        # per-tick drop probability while anything is held; None draws nothing
        p_step = max((d.p for d in self.disturbances if d.kind == "drop_with_prob" and d.p > 0), default=None)
        if p_step is None or p_step >= 1.0:
            self._drop_p_tick = p_step
        else:
            self._drop_p_tick = 1.0 - (1.0 - p_step) ** (1.0 / CARRY_REF_TICKS)

    # -- phase anchoring

    def on_subgoal_start(self, base_sid: str, tick: int):
        """Resolve phase-anchored disturbances the first time a subgoal with
        their base sid starts."""
        for i, d in enumerate(self.disturbances):
            if d.phase is None or i in self._phase_seen:
                continue
            if d.phase == base_sid:
                self._phase_seen.add(i)
                self._armed.append((tick + d.phase_offset, i))

    # -- placement noise (consumed by the policy builder at placement time)

    def placement_offset(self) -> np.ndarray:
        """XY offset applied to a placement target: magnitude uniform in
        [0, q] cm, direction uniform. Zero when no noise is configured."""
        q = self._noise_q
        if q <= 0:
            return np.zeros(2)
        mag = self.rng.uniform(0.0, q) * 0.01
        ang = self.rng.uniform(0.0, 2 * np.pi)
        return np.array([mag * np.cos(ang), mag * np.sin(ang)])

    # -- per-tick application

    def apply(self, sim):
        state = sim.state
        due = sorted(armed for armed in self._armed if armed[0] <= state.tick)
        for armed in due:
            self._armed.remove(armed)
            self._dispatch(sim, self.disturbances[armed[1]])
        # continuous drop hazard while anything is held
        if self._drop_p_tick is not None and state.held:
            if self.rng.random() < self._drop_p_tick:
                dropped = list(state.held)
                self._tumble_release(sim)
                state.log("injection", kind="drop", oids=dropped)

    def _dispatch(self, sim, d: Disturbance):
        state = sim.state
        if d.kind == "move_object":
            obj = state.objects[d.oid]
            obj.pose = Pose(obj.pose.q, obj.pose.t + np.asarray(d.delta, dtype=np.float64))
            if d.oid not in state.held:
                sim.drop_to_support(d.oid)
            state.log("injection", kind="move_object", oid=d.oid, delta=list(d.delta))
        elif d.kind == "rotate_object":
            obj = state.objects[d.oid]
            q = quat_from_axis_angle(_AXES[d.axis], np.deg2rad(d.angle_deg))
            if d.oid in state.held:
                _reseat(obj, q, state.ee_pose.q)
                sim.refresh_attached()
            else:
                obj.pose = Pose(quat_mul(q, obj.pose.q), obj.pose.t + np.asarray(d.delta, dtype=np.float64))
                sim.drop_to_support(d.oid)
            state.log("injection", kind="rotate_object", oid=d.oid, axis=d.axis, angle_deg=d.angle_deg)
        elif d.kind == "force_release":
            if state.held:
                dropped = list(state.held)
                self._tumble_release(sim)
                state.log("injection", kind="force_release", oids=dropped)
        elif d.kind == "tilt_held":
            if state.held:
                tilt = quat_from_axis_angle(_AXES[d.axis], np.deg2rad(d.angle_deg))
                for oid in state.held:
                    _reseat(state.objects[oid], tilt, state.ee_pose.q)
                sim.refresh_attached()
                state.log("injection", kind="tilt_held", axis=d.axis, angle_deg=d.angle_deg, oids=list(state.held))
        elif d.kind == "relevel_held":
            if state.held:
                sim.run_action(("orient_held",))
                state.log("injection", kind="relevel_held", oids=list(state.held))
        elif d.kind in ("drop_with_prob", "placement_noise"):
            pass  # handled continuously / at placement time
        else:
            raise ValueError(f"unknown disturbance kind '{d.kind}'")

    def _tumble_release(self, sim):
        """Release everything held with a small random lateral tumble; tall
        objects additionally fall over. This is how a block slipping off a
        suction cup bounces, or a dropped pen ends up lying flat."""
        state = sim.state
        for oid in list(state.held):
            obj = state.objects[oid]
            mag = self.rng.uniform(0.01, 0.04)
            ang = self.rng.uniform(0.0, 2 * np.pi)
            sim.detach(oid, settle=False)
            q = obj.pose.q
            half = obj.shape.half_extents()
            aspect = obj.world_half_z() / max(float(min(half[0], half[1])), 1e-6)
            if aspect > 1.5:
                axis = [1.0, 0, 0] if self.rng.random() < 0.5 else [0, 1.0, 0]
                sign = 1.0 if self.rng.random() < 0.5 else -1.0
                q = quat_mul(quat_from_axis_angle(axis, sign * np.pi / 2), q)
            obj.pose = Pose(
                q, obj.pose.t + np.array([mag * np.cos(ang), mag * np.sin(ang), 0.0])
            )
            sim.drop_to_support(oid)


# the per-task disturbance catalogs reproduced by the experiments; selectors
# compose, e.g. "abc" applies all three of a task's disturbances
_CATALOG = {
    "slot_pen": {
        "a": Disturbance(kind="move_object", oid="pen", delta=(0.06, 0.04, 0.0), phase="reach_pen", phase_offset=10),
        "b": Disturbance(kind="force_release", phase="move_pen", phase_offset=15),
        "c": Disturbance(kind="move_object", oid="holder", delta=(0.06, -0.03, 0.0), phase="insert_pen", phase_offset=8),
    },
    "stow_book": {
        "a": Disturbance(kind="rotate_object", oid="book", axis="z", angle_deg=35.0, delta=(0.05, 0.03, 0.0), phase="reach_book", phase_offset=10),
        "b": Disturbance(kind="tilt_held", axis="x", angle_deg=25.0, phase="move_book", phase_offset=12),
        "c": Disturbance(kind="rotate_object", oid="book", axis="y", angle_deg=80.0, phase="place_book", phase_offset=18),
    },
    "pour_tea": {
        "a": Disturbance(kind="tilt_held", axis="x", angle_deg=20.0, phase="move_pot", phase_offset=10),
        "b": Disturbance(kind="tilt_held", axis="y", angle_deg=20.0, phase="move_pot", phase_offset=25),
        "c": Disturbance(kind="relevel_held", phase="pour", phase_offset=30),
    },
}


def standard_disturbances(template: str, selector: str = "none", p: float = 0.0, q_cm: float = 0.0):
    """Disturbance list for a task.

    For stack_in_order pass the drop probability p and placement noise q;
    for the other tasks the selector picks distinct letters from the task's
    catalog ('a', 'bc', 'abc', ...) or is 'none'. Raises ValueError for an
    empty selector, an unknown or repeated letter, or a p or q_cm that
    Disturbance rejects (a zero adds nothing).
    """
    out = []
    if p != 0:
        out.append(Disturbance(kind="drop_with_prob", p=p))
    if q_cm != 0:
        out.append(Disturbance(kind="placement_noise", q_cm=q_cm))
    if selector == "":
        raise ValueError("empty disturbance selector (use 'none')")
    if selector != "none":
        catalog = _CATALOG.get(template, {})
        for i, letter in enumerate(selector):
            if letter not in catalog:
                raise ValueError(f"task '{template}' has no disturbance '{letter}'")
            if letter in selector[:i]:
                raise ValueError(f"disturbance '{letter}' repeated in selector '{selector}'")
            out.append(catalog[letter])
    return tuple(out)
