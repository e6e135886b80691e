from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camlab.conlang import Mode, load_default_kb, parse
from camlab.monitor import INTERNAL_ERROR_REASON, PointRing, Verdict, VerdictKind
from camlab.simlab import TEMPLATES, build_scene, extract_elements, scene_summary
from camlab.simlab.episode import load_program
from camlab.taskgen import (
    _BUILDERS,
    _RELEVEL_PROGRAM,
    Planner,
    RecoveryRules,
    Subgoal,
    TaskAbort,
    TaskDone,
    _ProgramFactory,
    load_default_rules,
)
from oracles import ReferencePlanner


def violation(reason, cid, mode):
    """The monitor's verdict on a tick where program cid failed."""
    return Verdict(0, VerdictKind.VIOLATION, cid, mode, reason)


def planner_for(template, seed=0):
    state, scene = build_scene(template, np.random.default_rng(seed))
    return Planner(template, scene.meta), state, scene


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
        nxt = planner.plan_next(summary_of(state, scene))
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
    planner.plan_next(s)  # place_red
    fb = violation("object left the gripper (0.15 m)", "place_red.hold", Mode.DURING)
    rec = planner.plan_next(s, fb)
    assert rec.sid.startswith("pick_red")  # re-pick the dropped block first
    nxt = planner.plan_next(s)
    assert nxt.base_sid == "place_red"  # then retry the placement


def test_pour_tilt_feedback_inserts_relevel():
    planner, state, scene = planner_for("pour_tea")
    s = summary_of(state, scene)
    planner.plan_next(s)  # reach
    planner.plan_next(s)  # lift
    planner.plan_next(s)  # move
    fb = violation("held surface tilted 0.3491 rad", "move_pot.level", Mode.DURING)
    rec = planner.plan_next(s, fb)
    assert rec.base_sid == "relevel"
    nxt = planner.plan_next(s)
    assert nxt.base_sid == "move_pot"  # resume the transport


def test_max_retries_aborts():
    planner, state, scene = planner_for("stack_in_order")
    planner.max_retries = 2
    s = summary_of(state, scene)
    sg = planner.plan_next(s)
    out = None
    for _ in range(5):
        fb = violation("grasp missed (0.1 m off the gripper axis)", f"{sg.sid}.grasp_hold", Mode.ON_COMPLETION)
        out = planner.plan_next(s, fb)
        if isinstance(out, TaskAbort):
            break
        sg = out
    assert isinstance(out, TaskAbort)


def test_internal_error_kind_maps_to_retry():
    planner, state, scene = planner_for("sweep_half")
    assert planner.kind_of("whatever", reason="monitor internal error") == "internal"
    assert planner.rules.lookup("sweep_half", "internal", Mode.DURING) == "retry"


# ---------------------------------------------------------------------------
# failures resolved against the current subgoal, as the reference resolved them


@lru_cache(maxsize=None)
def _meta_and_summary(template):
    state, scene = build_scene(template, np.random.default_rng(0))
    return scene.meta, summary_of(state, scene)


_REASON = "object moved 0.05 m"

# a step: the subgoal completes; it fails, naming one of its programs (an
# index, taken modulo their number) or an unknown cid (None), with the
# monitor's internal-error text or another, in either mode; or its programs
# fail validation and it is rebuilt relaxed
_COMPLETE, _RELAX = ("complete",), ("relax",)
_STEPS = st.one_of(
    st.just(_COMPLETE),
    st.tuples(st.just("fail"), st.none() | st.integers(0, 3), st.booleans(), st.sampled_from(list(Mode))),
    st.just(_RELAX),
)


def drive_both(template, max_retries, steps):
    """Run the planner and the reference through `steps` until a TaskDone or
    TaskAbort, asserting after each step that both gave the same output;
    returns the planner's outputs."""
    meta, s = _meta_and_summary(template)
    planner = Planner(template, meta, max_retries)
    ref = ReferencePlanner(template, load_default_kb(), meta, max_retries)
    out = planner.plan_next(s)
    assert out == ref.plan_next(s)
    outs = [out]
    for step in steps:
        if not isinstance(out, Subgoal):
            break
        if step == _RELAX:
            want, out = ref.rebuild_relaxed(s), planner.rebuild_relaxed(s)
        elif step == _COMPLETE:
            want, out = ref.plan_next(s, out.sid), planner.plan_next(s)
        else:
            _, pick, internal, mode = step
            cids = [p.cid for p in out.during + out.completion]
            cid = "unknown.cid" if pick is None or not cids else cids[pick % len(cids)]
            fb = violation(INTERNAL_ERROR_REASON if internal else _REASON, cid, mode)
            want, out = ref.plan_next(s, out.sid, fb), planner.plan_next(s, fb)
        # Subgoal equality covers sid, text, script id and params, element
        # specs and every program's cid, kind and source
        assert out == want
        outs.append(out)
    return outs


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(TEMPLATES), st.integers(0, 5), st.lists(_STEPS, max_size=40))
def test_failures_resolve_as_the_reference_planner_resolves_them(template, max_retries, steps):
    drive_both(template, max_retries, steps)


@pytest.mark.parametrize(
    "template, max_retries, steps, reason",
    [
        ("stack_in_order", 0, [("fail", 0, False, Mode.ON_COMPLETION)], f"subgoal 'pick_red' failed 1 times: {_REASON}"),
        ("pour_tea", 1, [_RELAX, ("fail", 0, True, Mode.DURING)] * 2, f"subgoal 'reach_pot' failed 2 times: {INTERNAL_ERROR_REASON}"),
        ("sweep_half", 5, [("fail", 0, False, Mode.ON_COMPLETION)], f"no recovery for sweep_half.region_band.on_completion: {_REASON}"),
        ("slot_pen", 5, [("fail", 0, False, Mode.ON_COMPLETION)], f"no recovery for slot_pen.still.on_completion: {_REASON}"),
        # lift_pot's level program (index 1) fails in transit: re-level, then the re-level fails
        ("pour_tea", 5, [_COMPLETE, ("fail", 1, False, Mode.DURING), ("fail", 0, True, Mode.ON_COMPLETION)],
         "cannot rebuild unknown subgoal 'relevel'"),
        ("stow_book", 5, [_COMPLETE, _COMPLETE, ("fail", 1, False, Mode.DURING), _RELAX, ("fail", 0, False, Mode.DURING)],
         "cannot rebuild unknown subgoal 'relevel'"),
    ],
)
def test_every_abort_text_matches_the_reference(template, max_retries, steps, reason):
    assert drive_both(template, max_retries, steps)[-1] == TaskAbort(reason)


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


def test_rules_reject_a_repeated_key():
    with pytest.raises(ValueError, match="rules line 3: duplicate key 'a.b.during'"):
        RecoveryRules.loads("a.b.during = retry\n# the same key again\na.b.during = abort\n")


def test_rules_split_keys_into_three_stripped_segments():
    assert RecoveryRules.loads("a . b . during = abort\n").lookup("a", "b", Mode.DURING) == "abort"
    for key in ("a.b", "a.b.c.d", "a..during"):
        with pytest.raises(ValueError, match=r"rules line 1: expected 'task\.kind\.mode = action'"):
            RecoveryRules.loads(f"{key} = retry\n")


class _AskedKB(dict):
    """A KB that records every (task, kind) pair looked up in it."""

    def __init__(self, kb):
        super().__init__(kb)
        self.asked = set()

    def __getitem__(self, key):
        self.asked.add(key)
        return super().__getitem__(key)


def test_kb_holds_exactly_the_pairs_the_builders_ask_for():
    # every builder of every task, nominal and relaxed, and the relevel
    # builder; a pair the KB lacks raises KeyError here
    kb = _AskedKB(load_default_kb())
    for template in TEMPLATES:
        meta, s = _meta_and_summary(template)
        builders = [builder for _, builder in _BUILDERS[template](meta)]
        if template in _RELEVEL_PROGRAM:
            builders.append(Planner(template, meta)._relevel_builder())
        for builder in builders:
            for relax in (1.0, 2.0):
                builder(s, _ProgramFactory(template, kb, relax), "sg")
    assert kb.asked == set(kb)


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
            sg = planner.plan_next(s)
        assert rules.lookup(template, "internal", Mode.DURING) is not None


# ---------------------------------------------------------------------------
# emitted programs validate on a real scene


@pytest.mark.parametrize("template", ["stack_in_order", "slot_pen", "stow_book", "pour_tea", "sweep_half"])
def test_first_subgoal_programs_validate(template):
    planner, state, scene = planner_for(template, seed=4)
    sg = planner.plan_next(summary_of(state, scene))
    es, _ = extract_elements(sg, state, scene)
    ring = PointRing(es, state.tick)
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
