import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camlab.geom3d import Box, Cylinder, Pose, quat_from_axis_angle, quat_mul, raycast_depth, vec3
from camlab.simlab import (
    Disturbance,
    DisturbanceInjector,
    EpisodeConfig,
    Simulation,
    SimObject,
    SimState,
    Waypoint,
    build_scene,
    mask_bundle,
    oracle_success,
    render,
    run_episode,
    scene_summary,
)
from camlab.simlab.disturb import standard_disturbances
import camlab.simlab.episode as episode
from camlab.elementizer import POINT, SURFACE, MaskBundle
from camlab.errors import CamlabError, EmptyPointSet
from camlab.taskgen import Planner
from oracles import per_bundle_extract, settle_reference, unproject


def simple_world():
    state = SimState()
    state.objects["table"] = SimObject("table", Box((0.6, 0.6, 0.04)), Pose(t=vec3(0, 0, -0.02)))
    state.objects["blk"] = SimObject("blk", Box((0.04, 0.04, 0.04)), Pose(t=vec3(0.1, 0.0, 0.02)))
    state.ee_pose = Pose(t=vec3(0, 0, 0.2))
    return Simulation(state)


def _injections(sim):
    return [e for e in sim.state.events if e["kind"] == "injection"]


# ---------------------------------------------------------------------------
# stepping, attachment, settling


def test_step_without_policy_only_ticks():
    sim = simple_world()
    before = {oid: o.pose.t.copy() for oid, o in sim.state.objects.items()}
    sim.step()
    assert sim.state.tick == 1
    for oid, o in sim.state.objects.items():
        assert np.array_equal(o.pose.t, before[oid])


def test_release_drops_to_table():
    sim = simple_world()
    sim.state.ee_pose = Pose(t=vec3(0.1, 0.0, 0.04))
    sim.attach("blk")
    sim.state.ee_pose = Pose(t=vec3(0.2, 0.1, 0.12))  # carry somewhere 0.1 m up
    sim.refresh_attached()
    sim.detach("blk")
    assert sim.state.objects["blk"].pose.t[2] == pytest.approx(0.02)  # half extent


def test_release_stacks_on_block():
    sim = simple_world()
    other = SimObject("top", Box((0.04, 0.04, 0.04)), Pose(t=vec3(0.1, 0.0, 0.30)))
    sim.state.objects["top"] = other
    sim.drop_to_support("top")
    assert other.pose.t[2] == pytest.approx(0.06)  # rests on blk at 0.04 + 0.02


def test_held_object_follows_ee_exactly():
    sim = simple_world()
    sim.state.ee_pose = Pose(t=vec3(0.1, 0.0, 0.04))
    sim.attach("blk")
    offsets = []
    for x in (0.0, 0.05, 0.11):
        sim.state.ee_pose = Pose(t=vec3(x, 0.02, 0.15))
        sim.refresh_attached()
        offsets.append(sim.state.objects["blk"].pose.t - sim.state.ee_pose.t)
    assert np.allclose(offsets[0], offsets[1]) and np.allclose(offsets[1], offsets[2])


def test_pen_drops_into_bore():
    sim = simple_world()
    holder = SimObject(
        "holder", Cylinder(0.028, 0.08), Pose(t=vec3(0.2, 0.2, 0.04)),
        bore_radius=0.02, bore_floor_z=-0.03,
    )
    pen = SimObject("pen", Cylinder(0.009, 0.13), Pose(t=vec3(0.2, 0.2, 0.3)))
    sim.state.objects["holder"] = holder
    sim.state.objects["pen"] = pen
    sim.drop_to_support("pen")
    # rests on the bore floor (0.04 - 0.03 = 0.01) plus half length
    assert pen.pose.t[2] == pytest.approx(0.01 + 0.065)


def test_lying_pen_cannot_enter_bore():
    sim = simple_world()
    holder = SimObject(
        "holder", Cylinder(0.028, 0.08), Pose(t=vec3(0.2, 0.2, 0.04)),
        bore_radius=0.02, bore_floor_z=-0.03,
    )
    from camlab.geom3d import quat_from_axis_angle

    lying = quat_from_axis_angle([0, 1, 0], math.pi / 2)
    pen = SimObject("pen", Cylinder(0.009, 0.13), Pose(lying, vec3(0.2, 0.2, 0.3)))
    sim.state.objects["holder"] = holder
    sim.state.objects["pen"] = pen
    sim.drop_to_support("pen")
    # a pen lying across the rim rests on the holder top, not inside
    assert pen.pose.t[2] == pytest.approx(0.08 + 0.009)


@st.composite
def settling_scenes(draw):
    """A Simulation with 2-12 objects scattered over a small patch, so
    footprints overlap: boxes and cylinders, some stacked, some with a bore,
    some held by the end-effector, some rotated (about z, lying on a side
    and then turned about z, or about a random axis). Some centers sit on
    another object's half-extent along x or y or bore edge, or one ulp
    either side of it."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    state = SimState()
    state.objects["table"] = SimObject("table", Box((0.6, 0.6, 0.04)), Pose(t=vec3(0, 0, -0.02)))
    for i in range(draw(st.integers(2, 12))):
        if rng.random() < 0.5:
            shape = Box(rng.uniform(0.01, 0.08, size=3))
        else:
            shape = Cylinder(rng.uniform(0.005, 0.04), rng.uniform(0.01, 0.12))
        xy = rng.uniform(-0.06, 0.06, size=2)
        others = list(state.objects.values())[1:]
        if others and rng.random() < 0.4:
            other = others[rng.integers(len(others))]
            axis = rng.integers(2)
            edge = other.bore_radius if other.bore_radius > 0 and rng.random() < 0.5 else other.shape.half_extents()[axis]
            xy = other.pose.t[:2].copy()
            xy[axis] += rng.choice([-1.0, 1.0]) * edge
            if rng.random() < 0.5:
                xy[axis] = np.nextafter(xy[axis], rng.choice([-np.inf, np.inf]))
        q = np.array([1.0, 0.0, 0.0, 0.0])
        turn = rng.random()
        if turn < 0.15:
            q = quat_from_axis_angle([0.0, 0.0, 1.0], rng.uniform(-math.pi, math.pi))
        elif turn < 0.3:
            side = quat_from_axis_angle([1.0, 0.0, 0.0] if rng.random() < 0.5 else [0.0, 1.0, 0.0], math.pi / 2)
            q = quat_mul(quat_from_axis_angle([0.0, 0.0, 1.0], rng.uniform(-math.pi, math.pi)), side)
        elif turn < 0.5:
            q = quat_from_axis_angle(rng.normal(size=3), rng.uniform(0, math.pi))
        obj = SimObject(f"o{i}", shape, Pose(q, vec3(xy[0], xy[1], rng.uniform(0.0, 0.3))))
        if rng.random() < 0.3:
            obj.bore_radius = rng.uniform(0.005, 0.04)
            obj.bore_floor_z = rng.uniform(-0.05, 0.0)
        if rng.random() < 0.15:
            state.held.append(obj.oid)
        state.objects[obj.oid] = obj
    return Simulation(state)


@settings(max_examples=300, deadline=None)
@given(settling_scenes(), st.data())
def test_drop_to_support_matches_the_loop_over_every_object(sim, data):
    state = sim.state
    oids = list(state.objects)[1:]
    for oid in data.draw(st.permutations(oids)):
        obj = state.objects[oid]
        x, y, _ = obj.pose.t.tolist()
        low, high, in_bore = settle_reference(state, oid)
        sim.drop_to_support(oid)
        rest = state.events[-1]["payload"]["z"]
        assert obj.pose.t.tobytes() == np.array([x, y, rest]).tobytes()
        assert state.events[-1] == {"tick": 0, "kind": "settled", "payload": {"oid": oid, "z": rest, "in_bore": in_bore}}
        assert low <= rest <= high  # equal unless a hull boundary lies within rounding of the center


@pytest.mark.parametrize("offset", [0.0, 0.019, 0.021, 0.05, 0.1, -0.1])
def test_a_block_rests_on_a_lying_book_along_its_whole_length(offset):
    """The book lies on its side, its 0.22 m length along world x: every
    drop point over it is supported, not only the 4 cm its unrotated
    footprint would cover."""
    state = SimState()
    state.objects["table"] = SimObject("table", Box((0.6, 0.6, 0.04)), Pose(t=vec3(0, 0, -0.02)))
    lying = quat_from_axis_angle([0.0, 1.0, 0.0], math.pi / 2)
    state.objects["book"] = SimObject("book", Box((0.04, 0.15, 0.22)), Pose(lying, vec3(0.0, 0.0, 0.02)))
    state.objects["blk"] = SimObject("blk", Box((0.02, 0.02, 0.02)), Pose(t=vec3(offset, 0.03, 0.3)))
    sim = Simulation(state)
    sim.drop_to_support("blk")
    top = state.objects["book"].top_z()
    assert top == pytest.approx(0.04)
    assert state.objects["blk"].pose.t[2] == top + 0.01


def test_policy_moves_and_grasps():
    sim = simple_world()
    target = sim.grasp_point("blk")
    sim.set_policy([
        Waypoint(vec3(0.1, 0.0, 0.2), speed=0.5),
        Waypoint(target, speed=0.5, action=("grasp", "blk")),
    ])
    for _ in range(100):
        sim.step()
        if sim.motion_done:
            break
    assert "blk" in sim.state.held


def test_held_object_keeps_its_pose_while_the_ee_stands_still():
    sim = simple_world()
    sim.state.ee_pose = Pose(t=vec3(0.1, 0.0, 0.04))
    sim.attach("blk")
    blk = sim.state.objects["blk"]
    here = sim.state.ee_pose.t.copy()
    sim.set_policy([Waypoint(here, dwell=3), Waypoint(here + [0.0, 0.0, 0.1])])
    sim.step()  # arrive: the EE gets a new Pose with the same q and t
    pose = blk.pose
    for _ in range(3):  # dwell ticks
        sim.step()
        assert blk.pose is pose
    sim.step()  # moving toward the second waypoint
    assert blk.pose is not pose
    sim.policy.halt()
    pose = blk.pose
    for _ in range(3):
        sim.step()
        assert blk.pose is pose


def test_halt_freezes_policy_but_disturbances_continue():
    sim = simple_world()
    sim.set_policy([Waypoint(vec3(0.5, 0.5, 0.2), speed=0.1)])
    inj = DisturbanceInjector(
        [Disturbance(kind="move_object", oid="blk", delta=(0.05, 0, 0), tick=3)],
        np.random.default_rng(0),
    )
    sim.injector = inj
    start_blk = sim.state.objects["blk"].pose.t.copy()
    sim.step()
    ee1 = sim.state.ee_pose.t.copy()
    sim.policy.halt()
    assert sim.motion_done
    for _ in range(5):
        sim.step()
    assert not np.array_equal(ee1, vec3(0, 0, 0.2))  # moved before the halt
    assert np.array_equal(sim.state.ee_pose.t, ee1)  # frozen
    assert sim.state.objects["blk"].pose.t[0] == pytest.approx(start_blk[0] + 0.05)
    assert len(_injections(sim)) == 1


def test_drop_with_prob_one_releases_this_tick():
    sim = simple_world()
    sim.state.ee_pose = Pose(t=vec3(0.1, 0.0, 0.04))
    sim.attach("blk")
    sim.injector = DisturbanceInjector(
        [Disturbance(kind="drop_with_prob", p=1.0)], np.random.default_rng(1)
    )
    sim.step()
    assert sim.state.held == []
    kinds = [e["payload"]["kind"] for e in _injections(sim)]
    assert kinds == ["drop"]


def test_injections_logged_exactly_once():
    sim = simple_world()
    inj = DisturbanceInjector(
        [
            Disturbance(kind="move_object", oid="blk", delta=(0.01, 0, 0), tick=2),
            Disturbance(kind="rotate_object", oid="blk", axis="z", angle_deg=30, tick=4),
        ],
        np.random.default_rng(0),
    )
    sim.injector = inj
    for _ in range(10):
        sim.step()
    recorded = _injections(sim)
    assert len(recorded) == 2
    assert [e["tick"] for e in recorded] == [2, 4]


def test_phase_anchored_disturbance():
    sim = simple_world()
    inj = DisturbanceInjector(
        [Disturbance(kind="move_object", oid="blk", delta=(0.02, 0, 0), phase="pick", phase_offset=3)],
        np.random.default_rng(0),
    )
    sim.injector = inj
    for _ in range(5):
        sim.step()
    assert _injections(sim) == []  # phase never started
    inj.on_subgoal_start("pick", sim.state.tick)
    for _ in range(5):
        sim.step()
    recorded = _injections(sim)
    assert len(recorded) == 1
    assert recorded[0]["tick"] == 8  # 5 + offset 3


def test_disturbance_triggers_at_a_tick_or_a_phase_not_both():
    with pytest.raises(ValueError, match="not both"):
        Disturbance(kind="force_release", tick=3, phase="pick")


def test_due_triggers_fire_in_tick_then_list_order_and_are_disarmed():
    """Triggers that come due together fire by (tick, list index), each
    once; a trigger armed for a later tick waits."""
    sim = simple_world()
    inj = DisturbanceInjector(
        [
            Disturbance(kind="move_object", oid="blk", delta=(0.01, 0, 0), tick=3),
            Disturbance(kind="move_object", oid="blk", delta=(0.02, 0, 0), tick=2),
            Disturbance(kind="move_object", oid="blk", delta=(0.03, 0, 0), tick=2),
            Disturbance(kind="move_object", oid="blk", delta=(0.04, 0, 0), tick=9),
        ],
        np.random.default_rng(0),
    )
    sim.injector = inj
    sim.state.tick = 4  # the first step runs at tick 5: three triggers are due
    for _ in range(8):
        sim.step()
    fired = [(e["tick"], e["payload"]["delta"][0]) for e in _injections(sim)]
    assert fired == [(5, 0.02), (5, 0.03), (5, 0.01), (9, 0.04)]


# ---------------------------------------------------------------------------
# rendering


def reference_part_pixels(state, scene, views):
    """The part pass the renderer used to run, kept as the reference for
    mask_bundle: per view, unproject the union of every parted object's
    pixels, move each object's hit points into its frame, label the points
    in each part box with the part's id in a part image (a later part wins),
    then keep the instance's label-index pixels whose part id matches.
    Returns {(oid, part): [pixels per view]}."""
    part_ids = {}  # (oid, part) -> id, in registration order; 0 is body
    for oid, obj in state.objects.items():
        for pname in obj.parts:
            part_ids[(oid, pname)] = len(part_ids) + 1
    parted = [oid for oid, obj in state.objects.items() if obj.parts]
    parted_ids = np.array([scene.instance_ids[o] for o in parted], dtype=np.int32)
    out = {key: [] for key in part_ids}
    solids = [(obj.pose, obj.shape, scene.instance_ids[oid]) for oid, obj in state.objects.items()]
    for view, cam in zip(views, scene.cameras):
        depth, inst = view.depth, raycast_depth(solids, cam)[1]
        part = np.zeros(inst.shape, dtype=np.int32)
        hit = (depth > 0) & np.isin(inst, parted_ids)
        pts = unproject(depth, hit, cam)
        vv, uu = np.nonzero(hit)
        for oid in parted:
            obj = state.objects[oid]
            sel = inst[vv, uu] == scene.instance_ids[oid]
            if not sel.any():
                continue
            local = obj.pose.inverse().apply(pts[sel])
            for pname, (lo, hi) in obj.parts.items():
                inside = np.all((local >= lo) & (local <= hi), axis=1)
                if inside.any():
                    part[vv[sel][inside], uu[sel][inside]] = part_ids[(oid, pname)]
        for (oid, pname), pid in part_ids.items():
            pix = view.labels.of(scene.instance_ids[oid])
            out[(oid, pname)].append(pix[part.ravel()[pix] == pid])
    return out


def test_render_labels_pen_tip():
    state, scene = build_scene("slot_pen", np.random.default_rng(0))
    views = render(state, scene)
    b = mask_bundle(scene, views, state.objects["pen"], "tip", POINT)
    want = reference_part_pixels(state, scene, views)[("pen", "tip")]
    assert any(len(pix) > 0 for pix in b.pixels)
    for pix, ref in zip(b.pixels, want):
        assert np.array_equal(pix, ref)


_PARTED = {"slot_pen": ("pen", "tip"), "stow_book": ("book", "spine"), "pour_tea": ("teapot", "lid")}


def _resting(obj, q, xy):
    """Pose with rotation q whose lowest point touches the table at xy."""
    obj.pose = Pose(q, vec3(xy[0], xy[1], 0.0))
    obj.pose = Pose(q, vec3(xy[0], xy[1], obj.world_half_z()))


def _pose_cases(state, oid, rng):
    """Set the parted object as built, then lying, upright and tilted at a
    random pose on the table, then held by the end-effector at a random
    height and tilt, yielding a label after each."""
    obj = state.objects[oid]
    yield "built"
    for label in ("lying", "upright", "tilted"):
        yaw = quat_from_axis_angle([0, 0, 1], float(rng.uniform(-math.pi, math.pi)))
        if label == "lying":
            q = quat_mul(yaw, quat_from_axis_angle([0, 1, 0], math.pi / 2))
        elif label == "upright":
            q = yaw
        else:
            ax = float(rng.uniform(-math.pi, math.pi))
            tilt = quat_from_axis_angle([math.cos(ax), math.sin(ax), 0.0], float(rng.uniform(0.15, 1.4)))
            q = quat_mul(tilt, yaw)
        _resting(obj, q, rng.uniform(-0.25, 0.25, size=2))
        yield label
    sim = Simulation(state)
    state.ee_pose = Pose(t=sim.grasp_point(oid))
    sim.attach(oid)
    sim.run_action(("orient_held",))
    ax = float(rng.uniform(-math.pi, math.pi))
    tilt = quat_from_axis_angle([math.cos(ax), math.sin(ax), 0.0], float(rng.uniform(0.0, 1.0)))
    xy = rng.uniform(-0.2, 0.2, size=2)
    state.ee_pose = Pose(tilt, vec3(xy[0], xy[1], float(rng.uniform(0.12, 0.3))))
    sim.refresh_attached()
    yield "held"


@pytest.mark.parametrize("template", sorted(_PARTED))
def test_mask_bundle_parts_match_the_old_renderer(template):
    oid, pname = _PARTED[template]
    cases = seen = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        state, scene = build_scene(template, rng)
        for label in _pose_cases(state, oid, rng):
            views = render(state, scene)
            got = mask_bundle(scene, views, state.objects[oid], pname, POINT).pixels
            want = reference_part_pixels(state, scene, views)[(oid, pname)]
            for v, (pix, ref) in enumerate(zip(got, want)):
                assert np.array_equal(pix, ref), (template, seed, label, v)
            cases += 1
            seen += any(len(pix) > 0 for pix in got)
    # the comparison means something only where the part is in view
    assert seen >= cases // 2, (seen, cases)


def test_render_top_view_occlusion():
    state, scene = build_scene("stack_in_order", np.random.default_rng(0))
    # stack green exactly on red, then look from the top
    red = state.objects["red"]
    green = state.objects["green"]
    green.pose = Pose(green.pose.q, vec3(red.pose.t[0], red.pose.t[1], red.pose.t[2] + 0.04))
    views = render(state, scene)
    top = views[1].labels
    red_px = top.of(scene.instance_ids["red"])
    green_px = top.of(scene.instance_ids["green"])
    assert len(green_px) > 0
    # red's top face is fully hidden by green; only its sides might peek
    assert len(green_px) >= len(red_px)


def test_mask_bundle_subset():
    state, scene = build_scene("pour_tea", np.random.default_rng(0))
    views = render(state, scene)
    b = mask_bundle(scene, views, state.objects["teapot"], "lid", POINT)
    iid = scene.instance_ids["teapot"]
    want = reference_part_pixels(state, scene, views)[("teapot", "lid")]
    assert sum(len(pix) for pix in b.pixels) > 0
    for pix, v, ref in zip(b.pixels, views, want):
        # the lid's pixels are a subset of the teapot's, in raster order
        assert np.all(np.diff(pix) > 0)
        assert np.isin(pix, v.labels.of(iid)).all()
        assert np.array_equal(pix, ref)


# ---------------------------------------------------------------------------
# oracles


def test_oracle_perfect_stack():
    state, scene = build_scene("stack_in_order", np.random.default_rng(0))
    pad = state.objects["pad"]
    z = pad.top_z()
    for i, name in enumerate(("red", "green", "blue")):
        state.objects[name].pose = Pose(t=vec3(pad.pose.t[0], pad.pose.t[1], z + 0.02 + 0.04 * i))
    assert oracle_success(state, scene)


def test_oracle_green_on_table_fails():
    state, scene = build_scene("stack_in_order", np.random.default_rng(0))
    assert not oracle_success(state, scene)


def test_oracle_sweep_band():
    state, scene = build_scene("sweep_half", np.random.default_rng(0))
    lo, hi = scene.regions["target"]
    center = (lo + hi) / 2
    for i, oid in enumerate(scene.meta["blocks"][:20]):
        state.objects[oid].pose = Pose(t=vec3(center[0], center[1], 0.01))
    assert oracle_success(state, scene)  # 20 of 40 in the region
    for oid in scene.meta["blocks"][20:35]:
        state.objects[oid].pose = Pose(t=vec3(center[0], center[1], 0.01))
    assert not oracle_success(state, scene)  # 35 in: over the band


# ---------------------------------------------------------------------------
# the episode's element memo


def same_element(a, b):
    return (a.points.tobytes(), a.points.shape, a.connections, a.etype, a.entity, a.part, a.constraint) == (
        b.points.tobytes(), b.points.shape, b.connections, b.etype, b.entity, b.part, b.constraint
    )


@pytest.fixture
def memo_scene(monkeypatch):
    """A rendered pour_tea scene, a fresh memo on its cameras, and the
    batches of bundles that reached extract_element through the episode
    module (one list per call)."""
    state, scene = build_scene("pour_tea", np.random.default_rng(0))
    views = render(state, scene)
    calls = []
    real = episode.extract_element
    monkeypatch.setattr(episode, "extract_element", lambda b, d, c: calls.append(list(b)) or real(b, d, c))
    return state, scene, views, episode.ElementMemo(scene.cameras), calls


def test_memo_hit_is_a_fresh_extraction_with_the_new_labels(memo_scene):
    state, scene, views, memo, calls = memo_scene
    depths = [v.depth for v in views]
    teapot = state.objects["teapot"]
    [first] = memo.extract([mask_bundle(scene, views, teapot, "lid", POINT, "lid above cup")], depths)
    again = mask_bundle(scene, views, teapot, "lid", POINT, "lid level")
    [hit] = memo.extract([again], depths)
    assert len(calls) == 1
    assert same_element(hit, per_bundle_extract(again, depths, scene.cameras))
    assert hit.constraint == "lid level" and first.constraint == "lid above cup"
    # another kind over the same pixels is another extraction
    memo.extract([mask_bundle(scene, views, teapot, "lid", SURFACE, "lid level")], depths)
    assert len(calls) == 2


def test_memo_misses_when_one_depth_byte_of_the_bundle_changes(memo_scene):
    state, scene, views, memo, calls = memo_scene
    depths = [v.depth for v in views]
    bundle = mask_bundle(scene, views, state.objects["teapot"], "body", POINT, "c")
    memo.extract([bundle], depths)
    v = next(i for i, pix in enumerate(bundle.pixels) if len(pix))
    outside = np.setdiff1d(np.arange(depths[v].size), np.concatenate(bundle.pixels))[0]
    for pixel, misses in ((outside, 0), (bundle.pixels[v][len(bundle.pixels[v]) // 2], 1)):
        changed = [d.copy() for d in depths]
        changed[v].reshape(-1).view(np.uint8)[8 * pixel] ^= 1  # lowest mantissa byte
        [got] = memo.extract([bundle], changed)
        assert len(calls) == 1 + misses
        assert same_element(got, per_bundle_extract(bundle, changed, scene.cameras))


def test_memo_stores_no_failed_extraction(memo_scene):
    state, scene, views, memo, calls = memo_scene
    depths = [v.depth for v in views]
    empty = MaskBundle(tuple(np.zeros(0, dtype=np.int64) for _ in views), POINT, "c", "teapot", "body")
    for n in (1, 2):
        with pytest.raises(EmptyPointSet):
            memo.extract([empty], depths)
        assert len(calls) == n


def test_memo_extracts_a_key_asked_twice_in_one_bind_once(memo_scene):
    state, scene, views, memo, calls = memo_scene
    depths = [v.depth for v in views]
    teapot = state.objects["teapot"]
    lid, lid_again = (mask_bundle(scene, views, teapot, "lid", POINT, c) for c in ("a", "b"))
    body = mask_bundle(scene, views, teapot, "body", POINT, "c")
    els = memo.extract([lid, body, lid_again], depths)
    assert len(calls) == 1 and calls[0] == [lid, body]
    assert [e.constraint for e in els] == ["a", "c", "b"]
    for el, bundle in zip(els, (lid, body, lid_again)):
        assert same_element(el, per_bundle_extract(bundle, depths, scene.cameras))


def first_failure(bundles, depths, cams):
    """The error that extracting the bundles one by one, in order, raises."""
    for bundle in bundles:
        try:
            per_bundle_extract(bundle, depths, cams)
        except CamlabError as exc:
            return exc
    return None


def failing_bundles(views, good):
    """good, then a surface of one pixel per view (too few points: fails
    after fusion and filtering) and one of no pixels (fails in fusion)."""
    few = MaskBundle(tuple(pix[:1] for pix in good.pixels), SURFACE, "c", "teapot", "few")
    empty = MaskBundle(tuple(np.zeros(0, dtype=np.int64) for _ in views), POINT, "c", "teapot", "none")
    return good, few, empty


def test_memo_raises_the_first_failure_in_bundle_order_and_stores_nothing(memo_scene):
    state, scene, views, memo, calls = memo_scene
    depths = [v.depth for v in views]
    good, few, empty = failing_bundles(views, mask_bundle(scene, views, state.objects["teapot"], "body", POINT, "c"))
    for order in ([good, few, empty], [good, empty, few]):
        want = first_failure(order, depths, scene.cameras)
        assert type(want) is type(first_failure(order[1:2], depths, scene.cameras))  # the second bundle's
        with pytest.raises(CamlabError) as got:
            memo.extract(order, depths)
        assert type(got.value) is type(want) and str(got.value) == str(want)
    calls.clear()
    memo.extract([good], depths)  # nothing of the failed batches was stored
    assert calls == [[good]]


def test_a_bind_whose_second_spec_fails_raises_that_specs_error(monkeypatch):
    state, scene = build_scene("pour_tea", np.random.default_rng(0))
    sg = Planner("pour_tea", scene.meta).plan_next(scene_summary(state, scene))
    spec = sg.element_specs[0]
    sg = dataclasses.replace(sg, element_specs=(spec, spec, spec))
    views = render(state, scene)
    depths = [v.depth for v in views]
    good = mask_bundle(scene, views, state.objects[spec.oid], spec.part, spec.etype, sg.text)
    for order in ((0, 1, 2), (0, 2, 1)):
        bundles = [failing_bundles(views, good)[i] for i in order]
        queue = list(bundles)
        monkeypatch.setattr(episode, "mask_bundle", lambda *args: queue.pop(0))
        want = first_failure(bundles, depths, scene.cameras)
        assert type(want) is type(first_failure(bundles[1:2], depths, scene.cameras))
        with pytest.raises(CamlabError) as got:
            episode.extract_elements(sg, state, scene)
        assert type(got.value) is type(want) and str(got.value) == str(want)
        assert not queue


@pytest.mark.parametrize("template, selector", [("sweep_half", None), ("stow_book", "abc")])
def test_every_bind_of_an_episode_matches_extraction_bundle_by_bundle(monkeypatch, template, selector):
    binds = []
    real = episode.ElementMemo.extract

    def extract(memo, bundles, depths):
        want = first_failure(bundles, depths, memo._cams)
        if want is not None:
            with pytest.raises(CamlabError) as got:
                real(memo, bundles, depths)
            assert type(got.value) is type(want) and str(got.value) == str(want)
            raise got.value
        els = real(memo, bundles, depths)
        for el, bundle in zip(els, bundles, strict=True):
            assert same_element(el, per_bundle_extract(bundle, depths, memo._cams))
        binds.append(len(bundles))
        return els

    monkeypatch.setattr(episode.ElementMemo, "extract", extract)
    disturbances = standard_disturbances(template, selector=selector) if selector else ()
    run_episode(EpisodeConfig(template=template, monitor_mode="full", seed=0, disturbances=disturbances))
    if template == "sweep_half":
        assert 40 in binds  # the sweep's one bind reads every block
    else:
        assert len(binds) > 3  # the disturbances force rebinds


# ---------------------------------------------------------------------------
# determinism


def test_episode_determinism_bit_identical():
    cfg = EpisodeConfig(
        template="stack_in_order",
        monitor_mode="full",
        seed=123,
        disturbances=standard_disturbances("stack_in_order", p=0.3),
    )
    a = run_episode(cfg)
    b = run_episode(cfg)
    assert a.success == b.success and a.ticks == b.ticks
    ja = json.dumps(a.events, sort_keys=True, default=str)
    jb = json.dumps(b.events, sort_keys=True, default=str)
    assert ja == jb


def test_scene_summary_shape():
    state, scene = build_scene("pour_tea", np.random.default_rng(3))
    s = scene_summary(state, scene)
    assert "teapot" in s["objects"]
    assert len(s["objects"]["teapot"]["pos"]) == 3


def test_clean_runs_all_templates_monitored():
    for tpl in ("stack_in_order", "sweep_half", "slot_pen", "stow_book", "pour_tea"):
        r = run_episode(EpisodeConfig(template=tpl, monitor_mode="full", seed=5))
        assert r.success, (tpl, r.aborted)
        # oracle/monitor agreement: no violations on a clean run
        assert not any(
            e["kind"] == "verdict" and e["payload"].get("outcome") == "violation" for e in r.events
        ), tpl
