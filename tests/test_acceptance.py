"""Acceptance suite: directional claims A1-A6 on scaled analogues plus the
property/oracle suites P1-P7, each at its stated tolerance. Every test
prints one PASS line with the measured numbers."""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from camlab.camctl import bench_monitor
from camlab.conlang import evaluate, parse, pretty
from camlab.geom3d import NOISE, dbscan, fit_line, fit_plane, angle_between, quat_from_axis_angle, quat_rotate, vec3
from camlab.monitor import TrackerConfig, latency_report
from camlab.simlab import EpisodeConfig, run_episode
from camlab.simlab.disturb import standard_disturbances

SEEDS = {"A1": 1000, "A2": 2000, "A3": 3000, "A4": 4000, "A5": 5000, "P7": 7000}


def _cell(task, mode, n, base, sel="none", p=0.0, q=0.0, tracker=None, budget=1400):
    results = []
    t0 = time.time()
    for j in range(n):
        cfg = EpisodeConfig(
            template=task,
            monitor_mode=mode,
            disturbances=standard_disturbances(task, sel, p=p, q_cm=q),
            seed=base + j,
            budget_ticks=budget,
            tracker=tracker or TrackerConfig(),
        )
        results.append(run_episode(cfg))
    return results, time.time() - t0


def _rate(results):
    return sum(r.success for r in results) / len(results)


def _one_sided_z_pvalue(k1, n1, k2, n2):
    """H1: rate1 > rate2, normal approximation."""
    p1, p2 = k1 / n1, k2 / n2
    pool = (k1 + k2) / (n1 + n2)
    se = math.sqrt(pool * (1 - pool) * (1 / n1 + 1 / n2))
    if se == 0:
        return 0.0 if p1 > p2 else 1.0
    z = (p1 - p2) / se
    return 0.5 * math.erfc(z / math.sqrt(2))


# ---------------------------------------------------------------------------
# heavy shared cells


@pytest.fixture(scope="module")
def stack_p03():
    off, t_off = _cell("stack_in_order", "off", 200, SEEDS["A1"], p=0.3)
    full, t_full = _cell("stack_in_order", "full", 200, SEEDS["A1"], p=0.3)
    reactive, _ = _cell("stack_in_order", "reactive_only", 200, SEEDS["A1"], p=0.3)
    return {"off": off, "full": full, "reactive_only": reactive, "runtime_a1": t_off + t_full}


@pytest.fixture(scope="module")
def stack_q3():
    off, _ = _cell("stack_in_order", "off", 200, SEEDS["A2"], q=3.0)
    full, t_full = _cell("stack_in_order", "full", 200, SEEDS["A2"], q=3.0)
    return {"off": off, "full": full}


@pytest.fixture(scope="module")
def sweep_cells():
    noiseless = TrackerConfig(sigma=0.0, dropout=0.0)
    off, _ = _cell("sweep_half", "off", 100, SEEDS["A3"], tracker=noiseless)
    full, _ = _cell("sweep_half", "full", 100, SEEDS["A3"], tracker=noiseless)
    return {"off": off, "full": full}


@pytest.fixture(scope="module")
def slot_cells():
    out = {}
    for mode in ("full", "reactive_only", "proactive_only"):
        out[mode], _ = _cell("slot_pen", mode, 100, SEEDS["A5"], sel="abc")
    return out


# ---------------------------------------------------------------------------
# A criteria


def test_A1_drop_disturbance_monitor_gap(stack_p03):
    off_rate = _rate(stack_p03["off"])
    full_rate = _rate(stack_p03["full"])
    pval = _one_sided_z_pvalue(
        sum(r.success for r in stack_p03["full"]), 200, sum(r.success for r in stack_p03["off"]), 200
    )
    runtime = stack_p03["runtime_a1"]
    assert off_rate <= 0.45, f"monitor-off rate {off_rate:.1%} exceeds 45%"
    assert full_rate >= 0.85, f"monitor-full rate {full_rate:.1%} below 85%"
    assert pval < 0.001, f"z-test p-value {pval:.2e}"
    assert runtime <= 120.0, f"A1 cells took {runtime:.0f}s"
    print(f"\nA1 PASS: off={off_rate:.1%} full={full_rate:.1%} p={pval:.1e} runtime={runtime:.0f}s")


def test_A2_placement_noise_gap(stack_q3):
    off_rate = _rate(stack_q3["off"])
    full_rate = _rate(stack_q3["full"])
    gap = full_rate - off_rate
    assert gap >= 0.30, f"gap {gap:.1%} below 30 points (off={off_rate:.1%}, full={full_rate:.1%})"
    print(f"\nA2 PASS: off={off_rate:.1%} full={full_rate:.1%} gap={gap:.1%}")


def test_A3_sweep_band(sweep_cells):
    full_rate = _rate(sweep_cells["full"])
    off_rate = _rate(sweep_cells["off"])
    assert full_rate >= 0.95, f"monitored halt-in-band rate {full_rate:.1%} below 95%"
    assert off_rate == 0.0, f"monitor-off swept-everything rate should be 0%, got {off_rate:.1%}"
    print(f"\nA3 PASS: monitored in-band={full_rate:.1%} off={off_rate:.1%}")


def test_A4_pour_tilt_detection():
    k, resync = 3, 20
    tilted, _ = _cell("pour_tea", "full", 50, SEEDS["A4"], sel="a")
    latencies = []
    for r in tilted:
        level = [
            e
            for e in r.events
            if e["kind"] == "verdict"
            and e["payload"].get("outcome") == "violation"
            and e["payload"].get("mode") == "during"
            and e["payload"].get("cid", "").endswith(".level")
        ]
        assert level, "proactive tilt violation missing in an episode"
        rep = latency_report(r.events)
        assert rep.pairs, "no injection/verdict pair matched"
        latencies.append(rep.pairs[0][2])
    assert max(latencies) <= k + resync, f"latency {max(latencies)} beyond K + resync"
    clean, _ = _cell("pour_tea", "full", 50, SEEDS["A4"] + 500)
    false_pos = sum(latency_report(r.events).false_positives for r in clean)
    assert false_pos == 0, f"{false_pos} false positives in disturbance-free runs"
    print(f"\nA4 PASS: fired 50/50, max latency {max(latencies)} <= {k + resync}, clean FP=0")


def test_A5_mode_ablation(slot_cells):
    full = _rate(slot_cells["full"])
    reactive = _rate(slot_cells["reactive_only"])
    proactive = _rate(slot_cells["proactive_only"])
    assert full >= reactive, f"full {full:.1%} < reactive_only {reactive:.1%}"
    assert full >= proactive, f"full {full:.1%} < proactive_only {proactive:.1%}"
    print(f"\nA5 PASS: full={full:.1%} reactive={reactive:.1%} proactive={proactive:.1%}")


def test_A6_execution_time_reduction(stack_p03):
    full_ticks = [r.ticks for r in stack_p03["full"] if r.success]
    reactive_ticks = [r.ticks for r in stack_p03["reactive_only"] if r.success]
    mf = sum(full_ticks) / len(full_ticks)
    mr = sum(reactive_ticks) / len(reactive_ticks)
    reduction = 1 - mf / mr
    assert reduction >= 0.10, f"tick reduction {reduction:.1%} below 10%"
    print(f"\nA6 PASS: full={mf:.0f} ticks vs reactive_only={mr:.0f} -> {reduction:.1%} faster")


# ---------------------------------------------------------------------------
# P suites


def _oracle_dbscan(pts, eps, min_pts):
    n = len(pts)
    d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
    nb = d <= eps
    core = nb.sum(axis=1) >= min_pts
    labels = np.full(n, NOISE, dtype=np.int64)
    cluster = 0
    for i in range(n):
        if not core[i] or labels[i] != NOISE:
            continue
        comp = {i}
        frontier = [i]
        while frontier:
            j = frontier.pop()
            for kk in np.nonzero(nb[j] & core)[0]:
                if kk not in comp:
                    comp.add(int(kk))
                    frontier.append(int(kk))
        for j in comp:
            labels[j] = cluster
        cluster += 1
    for i in range(n):
        if labels[i] == NOISE and not core[i]:
            reach = [labels[j] for j in np.nonzero(nb[i])[0] if core[j]]
            if reach:
                labels[i] = min(reach)
    return labels


def test_P1_dbscan_oracle_500():
    rng = np.random.default_rng(101)
    for _ in range(500):
        n = int(rng.integers(1, 65))
        pts = rng.uniform(0, 1, size=(n, 3)) * float(rng.uniform(0.5, 2.0))
        eps = float(rng.uniform(0.05, 0.5))
        min_pts = int(rng.integers(1, 6))
        got = dbscan(pts, eps, min_pts).labels
        want = _oracle_dbscan(pts, eps, min_pts)
        assert np.array_equal(got, want)
    print("\nP1 PASS: dbscan == brute-force oracle on 500 instances")


def test_P2_unproject_raycast_residual():
    from camlab.geom3d import Box, CameraModel, Cylinder, Pose, raycast_depth
    from oracles import surface_distance, unproject

    rng = np.random.default_rng(202)
    cam = CameraModel(fx=30, fy=30, cx=10, cy=8, width=20, height=16)
    worst = 0.0
    for _ in range(100):
        prims = []
        for i in range(int(rng.integers(1, 4))):
            center = rng.uniform([-0.3, -0.3, 0.8], [0.3, 0.3, 1.6])
            q = quat_from_axis_angle(rng.normal(size=3) + 1e-3, float(rng.uniform(0, math.pi)))
            pose = Pose(q, center)
            if rng.random() < 0.5:
                solid = Box(rng.uniform(0.1, 0.4, size=3))
            else:
                solid = Cylinder(radius=float(rng.uniform(0.05, 0.2)), height=float(rng.uniform(0.1, 0.4)))
            prims.append((pose, solid, i))
        depth, inst = raycast_depth(prims, cam)
        for pose, solid, iid in prims:
            for p in unproject(depth, inst == iid, cam):
                worst = max(worst, surface_distance(p, pose, solid))
    assert worst < 1e-5, f"worst residual {worst:.2e}"
    print(f"\nP2 PASS: worst surface residual {worst:.2e} < 1e-5 over 100 scenes")


def test_P3_fit_accuracy_and_invariance():
    rng = np.random.default_rng(303)
    worst_ang = 0.0
    worst_rot = 0.0
    for _ in range(50):
        a, b = rng.uniform(-0.5, 0.5, size=2)
        xy = rng.uniform(-1, 1, size=(60, 2))
        pts = np.column_stack([xy, a * xy[:, 0] + b * xy[:, 1]])
        normal, _, _ = fit_plane(pts)
        want = np.array([-a, -b, 1.0])
        want /= np.linalg.norm(want)
        if want[2] < 0:
            want = -want
        worst_ang = max(worst_ang, angle_between(normal, want))
        q = quat_from_axis_angle(rng.normal(size=3) + 1e-3, float(rng.uniform(0, math.pi)))
        n2, _, _ = fit_plane(quat_rotate(q, pts))
        nr = quat_rotate(q, normal)
        worst_rot = max(worst_rot, min(angle_between(nr, n2), angle_between(-nr, n2)))
        t = rng.uniform(-1, 1, size=(40, 1))
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        line_pts = t * axis
        d, _, _ = fit_line(line_pts)
        worst_ang = max(worst_ang, min(angle_between(d, axis), angle_between(-d, axis)))
    assert worst_ang < 1e-6, f"fit error {worst_ang:.2e} rad"
    assert worst_rot < 1e-9, f"rotation invariance error {worst_rot:.2e} rad"
    print(f"\nP3 PASS: fit error {worst_ang:.2e} rad, rotation invariance {worst_rot:.2e} rad")


def test_P4_round_trip_and_eval_determinism():
    sys.path.insert(0, os.path.dirname(__file__))
    from test_conlang import _gen_program, compiled, ctx_for, level_elements

    rng = np.random.default_rng(404)
    for _ in range(1000):
        prog = _gen_program(rng)
        back = parse(pretty(prog))
        assert back.body == prog.body and back.tolerances == prog.tolerances
    p = parse(
        'constraint "level" mode during tol amax = 15 deg '
        "{ angle(normal(e(2)), axis_z) <= amax } "
        'fail "tilted {angle}"'
    )
    c = compiled(p, ctx_for(level_elements(tilt=math.radians(20))))
    outs = {evaluate(c) for _ in range(5)}
    assert len(outs) == 1
    print("\nP4 PASS: 1000 round trips structurally equal; evaluation byte-deterministic")


_P5_SNIPPET = """
import numpy as np
from camlab.elementizer import element_set_fingerprint, end_effector_element, extract_element, make_element_set
from camlab.simlab import build_scene, mask_bundle, render, scene_summary
from camlab.taskgen import Planner
state, scene = build_scene("pour_tea", np.random.default_rng(99))
planner = Planner("pour_tea", scene.meta)
sg = planner.plan_next(scene_summary(state, scene))
views = render(state, scene)
bundles = [mask_bundle(scene, views, state.objects[spec.oid], spec.part, spec.etype) for spec in sg.element_specs]
protos = [end_effector_element([state.ee_pose.t]), *extract_element(bundles, [v[0] for v in views], scene.cameras)]
print(element_set_fingerprint(make_element_set(protos, sg.sid)))
"""


def test_P5_pipeline_determinism_across_processes():
    prints = []
    for hashseed in ("1", "77"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        out = subprocess.run(
            [sys.executable, "-c", _P5_SNIPPET], capture_output=True, text=True, env=env, check=True
        )
        prints.append(out.stdout.strip())
    assert prints[0] == prints[1] and len(prints[0]) == 64
    print(f"\nP5 PASS: bit-identical element sets across processes ({prints[0][:12]}...)")


def test_P6_monitor_tick_latency():
    stats = bench_monitor(n_ticks=10000, n_elements=16, n_programs=8)
    assert stats["median_ms"] < 1.0, f"median {stats['median_ms']:.3f} ms"
    print(f"\nP6 PASS: median {stats['median_ms']:.3f} ms, p95 {stats['p95_ms']:.3f} ms over 10k ticks")


def test_P7_all_templates_validate_clean():
    templates = ("stack_in_order", "sweep_half", "slot_pen", "stow_book", "pour_tea")
    for template in templates:
        for j in range(20):
            r = run_episode(
                EpisodeConfig(template=template, monitor_mode="full", seed=SEEDS["P7"] + j)
            )
            assert r.success, (template, j, r.aborted)
            kinds = [e["kind"] for e in r.events]
            assert "validation_failure" not in kinds, (template, j)
            assert not any(
                e["kind"] == "verdict" and e["payload"].get("outcome") == "violation"
                for e in r.events
            ), (template, j)
    print("\nP7 PASS: 5 templates x 20 seeds validate and run violation-free")
