"""Waypoint script builders for the task policies.

Scripts are resolved from the *current* scene at subgoal dispatch, which is
what makes re-planning work: a recovery pick targets the object where it is
now. The scripts themselves are open-loop; nothing inside a script reacts
to disturbances.
"""

from __future__ import annotations

import math

import numpy as np

from camlab.geom3d import quat_from_axis_angle, vec3
from camlab.simlab.world import DT, Simulation, Waypoint

__all__ = ["build_script"]


def build_script(sim: Simulation, scene, script_id: str, params: dict, injector=None) -> list[Waypoint]:
    state = sim.state
    meta = scene.meta
    ee = state.ee_pose.t

    if script_id == "approach":
        oid = params["oid"]
        appr, carry_z = meta["approach_speed"], meta["carry_z"]
        g = sim.grasp_point(oid)
        wps = [
            Waypoint(vec3(g[0], g[1], carry_z), speed=appr),
            Waypoint(g, speed=appr * 0.6, action=("grasp", oid)),
        ]

    elif script_id == "place":
        sup = state.objects[params["support"]]
        blk = state.objects[params["oid"]]
        size = float(blk.shape.extents[2])
        noise = injector.placement_offset() if injector is not None else np.zeros(2)
        tx, ty = sup.pose.t[0] + noise[0], sup.pose.t[1] + noise[1]
        release_z = sup.top_z() + size + 0.004
        carry, carry_z = meta["carry_speed"], meta["carry_z"]
        wps = [
            Waypoint(vec3(ee[0], ee[1], carry_z), speed=carry),
            Waypoint(vec3(tx, ty, carry_z), speed=carry),
            Waypoint(vec3(tx, ty, release_z), speed=carry * 0.8, action=("release",)),
        ]

    elif script_id == "lift":
        wps = [Waypoint(vec3(ee[0], ee[1], meta["carry_z"]), speed=meta["carry_speed"])]

    elif script_id == "lift_orient":
        wps = [Waypoint(vec3(ee[0], ee[1], meta["carry_z"]), speed=meta["carry_speed"], action=("orient_held",))]

    elif script_id == "transport":
        if "target" in params:
            t = state.objects[params["target"]].pose.t
            tx, ty = float(t[0]), float(t[1])
        else:
            lo, hi = scene.regions[params["target_region"]]
            tx, ty = float((lo[0] + hi[0]) / 2), float((lo[1] + hi[1]) / 2)
        wps = [Waypoint(vec3(tx, ty, meta["carry_z"]), speed=meta["carry_speed"])]

    elif script_id == "insert":
        holder = state.objects["holder"]
        pen_len = state.objects["pen"].shape.height
        carry, carry_z = meta["carry_speed"], meta["carry_z"]
        hx, hy = float(holder.pose.t[0]), float(holder.pose.t[1])
        # descend until the tip (pen_len below the EE) sits just above the bore floor
        ee_z = 0.025 + pen_len - 0.01
        wps = [
            Waypoint(vec3(hx, hy, carry_z), speed=carry),
            Waypoint(vec3(hx, hy, ee_z), speed=carry * 0.8, action=("release",)),
        ]

    elif script_id == "place_book":
        lo, hi = scene.regions["slot"]
        sx, sy = float((lo[0] + hi[0]) / 2), float((lo[1] + hi[1]) / 2)
        shelf, book = state.objects["shelf"], state.objects["book"]
        ee_z = shelf.top_z() + float(book.shape.extents[2]) + 0.004
        carry, carry_z = meta["carry_speed"], meta["carry_z"]
        wps = [
            Waypoint(vec3(sx, sy, carry_z), speed=carry),
            Waypoint(vec3(sx, sy, ee_z), speed=carry * 0.8, action=("release",)),
        ]

    elif script_id == "pour":
        tilt = math.radians(meta["pour_tilt_deg"])
        hold = meta["pour_hold_ticks"]
        rate = tilt / (20 * DT)  # 20 ticks each way
        q_tilt = quat_from_axis_angle([1.0, 0, 0], tilt)
        wps = [
            Waypoint(quat=q_tilt, ang_speed=rate),
            Waypoint(dwell=hold),
            Waypoint(quat=np.array([1.0, 0, 0, 0]), ang_speed=rate),
        ]

    elif script_id == "sweep":
        order = meta["blocks"]
        size = meta["group_size"]
        stroke = meta["stroke_speed"]
        groups = [order[i : i + size] for i in range(0, len(order), size)]
        wps = []
        for i, grp in enumerate(groups):
            pts = np.array([state.objects[o].pose.t[:2] for o in grp])
            c = pts.mean(axis=0)
            sx = 0.12 + 0.045 * (i % 4)
            sy = -0.11 + 0.075 * (i // 4)
            wps += [
                Waypoint(vec3(c[0], c[1], 0.10), speed=0.35),
                Waypoint(vec3(c[0], c[1], 0.01), speed=0.25, action=("push", tuple(grp))),
                Waypoint(vec3(sx, sy, 0.01), speed=stroke, action=("release",)),
                Waypoint(vec3(sx, sy, 0.10), speed=0.35),
            ]

    elif script_id == "relevel":
        wps = [Waypoint(action=("orient_held",))]

    else:
        raise ValueError(f"unknown script id '{script_id}'")

    return wps
