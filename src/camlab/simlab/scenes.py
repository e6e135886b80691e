"""Task scenes: geometry, cameras, oracle success checks.

Five desk-scale templates. All dimensions are config, chosen so a 160x120
two-camera rig resolves every part mask: 0.04 m stacking blocks on a 0.6 m
square table, 0.02 m sweep blocks, a 12 cm pen, a 4x14x22 cm book, a 12 cm
teapot. The oracle judges success from ground-truth state only, independent
of the monitor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from camlab.elementizer import LabelIndex, MaskBundle
from camlab.geom3d import (
    Box,
    CameraModel,
    Cylinder,
    Pose,
    angle_between,
    look_at,
    quat_from_axis_angle,
    raycast_depth,
    unproject_pixels,
    vec3,
)
from camlab.simlab.world import SimObject, SimState

__all__ = [
    "TEMPLATES",
    "Scene",
    "build_scene",
    "default_cameras",
    "View",
    "render",
    "mask_bundle",
    "scene_summary",
    "oracle_success",
    "TaskBookkeeper",
]

TEMPLATES = ("stack_in_order", "sweep_half", "slot_pen", "stow_book", "pour_tea")

BLOCK = 0.04  # stacking block side
MINI = 0.02  # sweep block side
SWEEP_BAND = (16, 24)


@dataclass
class Scene:
    template: str
    instance_ids: dict = field(default_factory=dict)  # oid -> int
    cameras: list = field(default_factory=list)
    regions: dict = field(default_factory=dict)  # name -> (lo, hi) world AABB
    meta: dict = field(default_factory=dict)


def default_cameras() -> list:
    front = CameraModel(
        fx=140, fy=140, cx=80, cy=60, width=160, height=120,
        pose=look_at(vec3(0.0, -0.85, 0.5), vec3(0.0, 0.0, 0.05)),
    )
    top = CameraModel(
        fx=140, fy=140, cx=80, cy=60, width=160, height=120,
        pose=look_at(vec3(0.0, 0.0, 1.0), vec3(0.0, 0.0, 0.0), up=(0.0, 1.0, 0.0)),
    )
    return [front, top]


def _register(scene: Scene, state: SimState, obj: SimObject):
    state.objects[obj.oid] = obj
    scene.instance_ids[obj.oid] = len(scene.instance_ids) + 1


def _table() -> SimObject:
    return SimObject("table", Box((0.6, 0.6, 0.04)), Pose(t=vec3(0, 0, -0.02)))


def _scatter(rng, n, lo, hi, min_gap, keepout=()):
    """Deterministic rejection sampling of n xy positions."""
    pts = []
    while len(pts) < n:
        p = rng.uniform(lo, hi)
        if any(np.linalg.norm(p - q) < min_gap for q in pts):
            continue
        if any(np.linalg.norm(p - k[0]) < k[1] for k in keepout):
            continue
        pts.append(p)
    return pts


_LYING = quat_from_axis_angle([0, 1, 0], math.pi / 2)  # local z -> world x


def build_scene(template: str, rng: np.random.Generator):
    """Build (SimState, Scene) for a task template with seeded layout jitter."""
    scene = Scene(template=template, cameras=default_cameras())
    state = SimState()
    _register(scene, state, _table())
    ee_home = vec3(0.0, -0.25, 0.25)
    state.ee_pose = Pose(t=ee_home)

    if template == "stack_in_order":
        pad_xy = np.array([0.16, 0.10])
        # pad footprint matches the blocks so off-target placements fall off,
        # and it is tall enough that a miss lands measurably lower
        pad = SimObject("pad", Box((BLOCK, BLOCK, 0.03)), Pose(t=vec3(pad_xy[0], pad_xy[1], 0.015)))
        _register(scene, state, pad)
        spots = _scatter(
            rng, 3, np.array([-0.22, -0.16]), np.array([0.0, 0.16]), 0.09,
            keepout=[(pad_xy, 0.10)],
        )
        for name, xy in zip(("red", "green", "blue"), spots):
            blk = SimObject(name, Box((BLOCK, BLOCK, BLOCK)), Pose(t=vec3(xy[0], xy[1], BLOCK / 2)))
            _register(scene, state, blk)
        scene.meta = {
            "order": ["red", "green", "blue"],
            "block": BLOCK,
            "approach_speed": 0.30,
            "carry_speed": 0.09,
            "carry_z": 0.20,
        }

    elif template == "sweep_half":
        cols = np.linspace(-0.26, -0.05, 8)
        rows = np.linspace(-0.18, 0.18, 5)
        i = 0
        order = []
        for r in rows:
            for c in cols:
                xy = np.array([c, r]) + rng.uniform(-0.006, 0.006, size=2)
                oid = f"blk{i:02d}"
                blk = SimObject(oid, Box((MINI, MINI, MINI)), Pose(t=vec3(xy[0], xy[1], MINI / 2)))
                _register(scene, state, blk)
                order.append(oid)
                i += 1
        scene.regions["target"] = (np.array([0.08, -0.16, 0.0]), np.array([0.29, 0.16, 0.06]))
        scene.meta = {
            "blocks": order,
            "group_size": 3,
            "stroke_speed": 0.30,
            "band": list(SWEEP_BAND),
        }

    elif template == "slot_pen":
        pen_xy = np.array([-0.14, -0.06]) + rng.uniform(-0.03, 0.03, size=2)
        pen = SimObject(
            "pen", Cylinder(0.009, 0.13), Pose(_LYING, vec3(pen_xy[0], pen_xy[1], 0.009)),
            parts={"tip": (np.array([-0.0091, -0.0091, -0.0651]), np.array([0.0091, 0.0091, -0.0409]))},
        )
        holder_xy = np.array([0.15, 0.08]) + rng.uniform(-0.015, 0.015, size=2)
        holder = SimObject(
            "holder", Cylinder(0.028, 0.08), Pose(t=vec3(holder_xy[0], holder_xy[1], 0.04)),
            bore_radius=0.02, bore_floor_z=-0.03,
        )
        _register(scene, state, pen)
        _register(scene, state, holder)
        scene.meta = {
            "bore_radius": holder.bore_radius,
            "approach_speed": 0.30,
            "carry_speed": 0.12,
            "carry_z": 0.20,
        }

    elif template == "stow_book":
        book_xy = np.array([-0.12, -0.05]) + rng.uniform(-0.03, 0.03, size=2)
        book = SimObject(
            "book", Box((0.04, 0.14, 0.22)), Pose(_LYING, vec3(book_xy[0], book_xy[1], 0.02)),
            parts={"spine": (np.array([-0.0201, -0.0701, -0.1101]), np.array([0.0201, -0.0500, 0.1101]))},
        )
        shelf = SimObject("shelf", Box((0.22, 0.30, 0.02)), Pose(t=vec3(0.18, 0.05, 0.01)))
        _register(scene, state, book)
        _register(scene, state, shelf)
        scene.regions["slot"] = (np.array([0.10, -0.05, 0.02]), np.array([0.26, 0.15, 0.30]))
        scene.meta = {
            "approach_speed": 0.30,
            "carry_speed": 0.12,
            "carry_z": 0.28,
        }

    elif template == "pour_tea":
        pot_xy = np.array([-0.13, 0.0]) + rng.uniform(-0.025, 0.025, size=2)
        pot = SimObject(
            "teapot", Cylinder(0.06, 0.12), Pose(t=vec3(pot_xy[0], pot_xy[1], 0.06)),
            parts={"lid": (np.array([-0.0601, -0.0601, 0.0499]), np.array([0.0601, 0.0601, 0.0601]))},
        )
        cup_xy = np.array([0.14, 0.02]) + rng.uniform(-0.02, 0.02, size=2)
        cup = SimObject("teacup", Cylinder(0.035, 0.05), Pose(t=vec3(cup_xy[0], cup_xy[1], 0.025)))
        _register(scene, state, pot)
        _register(scene, state, cup)
        scene.meta = {
            "pour_tilt_deg": 50.0,
            "pour_hold_ticks": 25,
            "approach_speed": 0.30,
            "carry_speed": 0.10,
            "carry_z": 0.25,
        }

    else:
        raise ValueError(f"unknown template '{template}' (one of {TEMPLATES})")

    return state, scene


# ---------------------------------------------------------------------------
# rendering + mask extraction


class View(NamedTuple):
    """One rendered camera view: the depth image and the label index of its
    pixels."""

    depth: np.ndarray
    labels: LabelIndex


def render(state: SimState, scene: Scene):
    """One View per camera, in scene.cameras order."""
    solids = [(obj.pose, obj.shape, scene.instance_ids[oid]) for oid, obj in state.objects.items()]
    views = []
    for cam in scene.cameras:
        depth, inst = raycast_depth(solids, cam)
        views.append(View(depth, LabelIndex(depth, inst)))
    return views


def mask_bundle(scene: Scene, views, obj: SimObject, part: str, etype, constraint: str = "") -> MaskBundle:
    """Bundle one entity part's valid pixels per view, in raster order: its
    instance's pixels from the view's label index, and for a named part
    only those whose hit point lies in obj.parts[part] (a local AABB).

    A pixel belongs to every part whose box holds its hit point; each scene
    object has at most one named part."""
    iid = scene.instance_ids[obj.oid]
    pixels = []
    for view, cam in zip(views, scene.cameras):
        pix = view.labels.of(iid)
        if part != "body":
            lo, hi = obj.parts[part]
            local = obj.pose.inverse().apply(unproject_pixels(view.depth, pix, cam))
            pix = pix[np.all((local >= lo) & (local <= hi), axis=1)]
        pixels.append(pix)
    return MaskBundle(tuple(pixels), etype, constraint, obj.oid, part)


# ---------------------------------------------------------------------------
# summaries and oracles


def scene_summary(state: SimState, scene: Scene) -> dict:
    """What the planner reads of the scene: each object's position and top,
    the regions and the template's meta."""
    return {
        "objects": {oid: {"pos": obj.pose.t.tolist(), "top_z": obj.top_z()} for oid, obj in state.objects.items()},
        "regions": {k: [list(map(float, v[0])), list(map(float, v[1]))] for k, v in scene.regions.items()},
        "meta": scene.meta,
    }


def _tilt_from_vertical(obj: SimObject) -> float:
    return angle_between(obj.pose.rotation()[:, 2], vec3(0, 0, 1))


def count_in_region(state: SimState, region, oids) -> int:
    lo, hi = region
    n = 0
    for oid in oids:
        p = state.objects[oid].pose.t
        if np.all(p >= lo) and np.all(p <= hi):
            n += 1
    return n


class TaskBookkeeper:
    """Tracks pour/spill ground truth for pour_tea; no-op for other tasks."""

    SPILL_TILT = math.radians(18.0)
    SPILL_TICKS = 12
    POUR_TILT = math.radians(40.0)
    POUR_TICKS = 10

    def __init__(self, template: str):
        self.template = template
        self.spill_streak = 0
        self.spilled = False
        self.pour_ticks = 0
        self.poured = False

    def after_tick(self, state: SimState):
        if self.template != "pour_tea" or "teapot" not in state.held:
            self.spill_streak = 0
            return
        pot = state.objects["teapot"]
        cup = state.objects["teacup"]
        tilt = _tilt_from_vertical(pot)
        over_cup = (
            float(np.linalg.norm(pot.pose.t[:2] - cup.pose.t[:2]))
            <= cup.shape.radius + 0.05
        )
        if tilt >= self.POUR_TILT and over_cup:
            self.pour_ticks += 1
            if self.pour_ticks >= self.POUR_TICKS and not self.poured:
                self.poured = True
                state.log("poured")
        if tilt > self.SPILL_TILT and not over_cup:
            self.spill_streak += 1
            if self.spill_streak > self.SPILL_TICKS and not self.spilled:
                self.spilled = True
                state.log("spilled", tilt=float(tilt))
        else:
            self.spill_streak = 0


def oracle_success(state: SimState, scene: Scene, book: TaskBookkeeper | None = None) -> bool:
    """Ground-truth task success, independent of the monitor."""
    t = scene.template
    if t == "stack_in_order":
        chain = ["pad"] + scene.meta["order"]
        half = scene.meta["block"] / 2
        for below, above in zip(chain, chain[1:]):
            b = state.objects[below]
            a = state.objects[above]
            if abs(a.pose.t[2] - (b.top_z() + a.world_half_z())) > 0.01:
                return False
            if abs(a.pose.t[0] - b.pose.t[0]) >= half or abs(a.pose.t[1] - b.pose.t[1]) >= half:
                return False
        return True
    if t == "sweep_half":
        lo, hi = scene.regions["target"]
        n = count_in_region(state, (lo, hi), scene.meta["blocks"])
        return SWEEP_BAND[0] <= n <= SWEEP_BAND[1]
    if t == "slot_pen":
        pen = state.objects["pen"]
        holder = state.objects["holder"]
        tip = pen.pose.apply(vec3(0, 0, -0.053))
        dxy = float(np.linalg.norm(tip[:2] - holder.pose.t[:2]))
        return dxy <= holder.bore_radius and 0.0 < tip[2] < holder.top_z()
    if t == "stow_book":
        bookobj = state.objects["book"]
        lo, hi = scene.regions["slot"]
        inside = bool(np.all(bookobj.pose.t >= lo) and np.all(bookobj.pose.t <= hi))
        return inside and _tilt_from_vertical(bookobj) <= math.radians(10.0)
    if t == "pour_tea":
        assert book is not None
        return book.poured and not book.spilled
    raise ValueError(f"unknown template '{t}'")
