import numpy as np
import pytest

from camlab.conlang import Mode, load_default_kb, parse
from camlab.monitor import PointRing
from camlab.simlab import build_scene, extract_elements, scene_summary
from camlab.simlab.episode import load_program
from camlab.taskgen import (
    FailureFeedback,
    Planner,
    RecoveryRules,
    Subgoal,
    TaskAbort,
    TaskDone,
    load_default_rules,
)

KB = load_default_kb()


def planner_for(template, seed=0):
    state, scene = build_scene(template, np.random.default_rng(seed))
    return Planner(template, KB, scene.meta), state, scene


def summary_of(state, scene):
    return scene_summary(state, scene)


# ---------------------------------------------------------------------------
# nominal sequencing


def test_fresh_task_starts_with_first_pick():
    planner, state, scene = planner_for("stack_in_order")
    sg = planner.plan_next(summary_of(state, scene))
    assert isinstance(sg, Subgoal)
    assert sg.sid == "pick_red"


def test_success_chain_reaches_done():
    planner, state, scene = planner_for("slot_pen")
    sids = []
    while True:
        nxt = planner.plan_next(summary_of(state, scene), l_pre=sids[-1] if sids else None)
        if isinstance(nxt, TaskDone):
            break
        sids.append(nxt.sid)
    assert sids == ["reach_pen", "lift_pen", "move_pen", "insert_pen"]


# ---------------------------------------------------------------------------
# recovery


def test_drop_feedback_inserts_repick():
    planner, state, scene = planner_for("stack_in_order")
    s = summary_of(state, scene)
    planner.plan_next(s)  # pick_red
    planner.plan_next(s, "pick_red")  # place_red
    fb = FailureFeedback("place_red", "object left the gripper (0.15 m)", "place_red.hold", Mode.DURING)
    rec = planner.plan_next(s, "place_red", fb)
    assert rec.sid.startswith("pick_red")  # re-pick the dropped block first
    nxt = planner.plan_next(s, rec.sid)
    assert nxt.base_sid == "place_red"  # then retry the placement


def test_pour_tilt_feedback_inserts_relevel():
    planner, state, scene = planner_for("pour_tea")
    s = summary_of(state, scene)
    planner.plan_next(s)  # reach
    planner.plan_next(s, "reach_pot")  # lift
    planner.plan_next(s, "lift_pot")  # move
    fb = FailureFeedback("move_pot", "held surface tilted 0.3491 rad", "move_pot.level", Mode.DURING)
    rec = planner.plan_next(s, "move_pot", fb)
    assert rec.base_sid == "relevel"
    nxt = planner.plan_next(s, rec.sid)
    assert nxt.base_sid == "move_pot"  # resume the transport


def test_max_retries_aborts():
    planner, state, scene = planner_for("stack_in_order")
    planner.max_retries = 2
    s = summary_of(state, scene)
    sg = planner.plan_next(s)
    out = None
    for _ in range(5):
        fb = FailureFeedback(sg.sid, "grasp missed (0.1 m off the gripper axis)", f"{sg.sid}.grasp_hold", Mode.ON_COMPLETION)
        out = planner.plan_next(s, sg.sid, fb)
        if isinstance(out, TaskAbort):
            break
        sg = out
    assert isinstance(out, TaskAbort)


def test_internal_error_kind_maps_to_retry():
    planner, state, scene = planner_for("sweep_half")
    assert planner.kind_of("whatever", reason="monitor internal error") == "internal"
    assert planner.rules.lookup("sweep_half", "internal", Mode.DURING) == "retry"


# ---------------------------------------------------------------------------
# rule table


def test_rules_wildcards():
    rules = RecoveryRules.loads("*.hold.during = retry\nstack.hold.* = abort\n")
    assert rules.lookup("stack", "hold", Mode.DURING) == "abort"  # specific first
    assert rules.lookup("other", "hold", Mode.DURING) == "retry"
    assert rules.lookup("other", "nope", Mode.DURING) is None


def test_rules_reject_unknown_action():
    with pytest.raises(ValueError):
        RecoveryRules.loads("a.b.during = explode\n")


def test_closedness_every_emitted_kind_has_a_rule():
    # exhaustiveness: for every task, every constraint kind emitted by any
    # reachable subgoal resolves to a recovery action (or an explicit abort)
    rules = load_default_rules()
    for template in ("stack_in_order", "sweep_half", "slot_pen", "stow_book", "pour_tea"):
        planner, state, scene = planner_for(template)
        s = summary_of(state, scene)
        sg = planner.plan_next(s)
        while isinstance(sg, Subgoal):
            for specs, mode in ((sg.during, Mode.DURING), (sg.completion, Mode.ON_COMPLETION)):
                for spec in specs:
                    action = rules.lookup(template, spec.kind, mode)
                    assert action is not None, (template, spec.kind, mode)
            sg = planner.plan_next(s, sg.sid)
        assert rules.lookup(template, "internal", Mode.DURING) is not None


# ---------------------------------------------------------------------------
# emitted programs validate on a real scene


@pytest.mark.parametrize("template", ["stack_in_order", "slot_pen", "stow_book", "pour_tea", "sweep_half"])
def test_first_subgoal_programs_validate(template):
    planner, state, scene = planner_for(template, seed=4)
    sg = planner.plan_next(summary_of(state, scene))
    es, _ = extract_elements(sg, state, scene)
    ring = PointRing(es.elements, state.tick)
    for ps, mode in [(ps, Mode.DURING) for ps in sg.during] + [(ps, Mode.ON_COMPLETION) for ps in sg.completion]:
        assert load_program(ps.source, ps.cid, ring).mode is mode  # the monitor splits programs by parsed mode


def test_relaxed_rebuild_doubles_tolerances():
    planner, state, scene = planner_for("pour_tea")
    s = summary_of(state, scene)
    sg = planner.plan_next(s)
    p0 = parse(sg.during[0].source)
    sg2 = planner.rebuild_relaxed(s, relax=2.0)
    p2 = parse(sg2.during[0].source)
    assert p2.tolerances[0].value == pytest.approx(2 * p0.tolerances[0].value)
