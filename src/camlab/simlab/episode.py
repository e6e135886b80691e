"""The full closed loop: plan, extract elements, monitor, step, recover.

One episode = one task template run end to end. At every subgoal start the
scene is rendered, constraint elements are extracted, DSL programs are
generated, type-checked, and white-box validated (one relaxed retry, then
abort). The monitor then runs per tick; violations feed back into the
planner; completion is confirmed with a settle hold. Monitor modes:

  off            no monitoring at all, policy runs open loop
  reactive_only  only on-completion checks
  proactive_only only during checks, subgoals complete at motion end
  full           both
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

# evaluate is unused here; perfbench's tracer patches it by name in this module
from camlab.conlang import evaluate, parse, typecheck, whitebox_validate
from camlab.conlang.check import ValidationFailure
from camlab.elementizer import element_set_fingerprint, end_effector_element, extract_element, make_element_set
from camlab.errors import CamlabError
from camlab.monitor import DebouncePolicy, RealTimeMonitor, SimTracker, TrackerConfig, TruthRow, VerdictKind
from camlab.simlab.disturb import DisturbanceInjector
from camlab.simlab.policy import build_script
from camlab.simlab.scenes import TaskBookkeeper, build_scene, mask_bundle, oracle_success, render, scene_summary
from camlab.simlab.world import Simulation
from camlab.taskgen import MAX_RETRIES, FailureFeedback, Planner, Subgoal, TaskAbort, TaskDone

__all__ = ["EpisodeConfig", "EpisodeResult", "run_episode", "extract_elements", "load_program", "MONITOR_MODES"]

MONITOR_MODES = ("off", "reactive_only", "proactive_only", "full")
BUDGET_TICKS = 1400  # per episode


@dataclass(frozen=True)
class EpisodeConfig:
    template: str
    monitor_mode: str = "full"
    disturbances: tuple = ()
    seed: int = 0
    budget_ticks: int = BUDGET_TICKS
    tracker: TrackerConfig = TrackerConfig()
    debounce: DebouncePolicy = DebouncePolicy()
    max_retries: int = MAX_RETRIES

    def __post_init__(self):
        if self.monitor_mode not in MONITOR_MODES:
            raise ValueError(f"monitor_mode must be one of {MONITOR_MODES}, got {self.monitor_mode!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed!r}")
        if self.budget_ticks < 1:
            raise ValueError(f"budget_ticks must be >= 1, got {self.budget_ticks!r}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries!r}")


@dataclass
class EpisodeResult:
    success: bool
    ticks: int
    events: list
    aborted: str | None = None


class _Bound:
    """One subgoal's tracker and monitor, and the ground-truth row the
    tracker steps from."""

    def __init__(self, tracker, monitor, truth_specs):
        self.tracker = tracker
        self.monitor = monitor
        ring = tracker.ring
        # per element: its span of the row, its object (None: the
        # end-effector), its points in the object's frame, the Pose its span
        # was last written from, and the rotation matrix and rotated points
        # of its last rotation
        self._elements = [[*ring.spans[eid], oid, local, None, None, None] for eid, oid, local in truth_specs]
        # packing the object-frame points checks that the specs cover the
        # ring's elements and point counts; the first truth() rewrites every span
        self.row = ring.pack(
            {eid: ring.points_at(eid, 0) if local is None else local for eid, _, local in truth_specs}
        )

    def truth(self, sim: Simulation) -> TruthRow:
        """The ground-truth row for the current tick (the end-effector
        element is its position).

        The row is rewritten in place, and only the spans of elements whose
        object holds a different Pose object than at the last write. Poses
        are frozen with read-only arrays and a moved object always gets a
        new Pose, so an unchanged Pose means unchanged points. A span is
        written as local @ R.T + t, the bits of pose.apply(local), and
        local @ R.T is kept while the Pose's rotation matrix is the same
        object (a translated Pose shares it)."""
        state = sim.state
        points = self.row.points
        for el in self._elements:
            lo, hi, oid, local, written, r, rotated = el
            pose = state.ee_pose if oid is None else state.objects[oid].pose
            if pose is written:
                continue
            el[4] = pose
            if local is None:
                points[lo:hi] = pose.t
                continue
            if pose.rotation() is not r:
                r = el[5] = pose.rotation()
                rotated = el[6] = local @ r.T
            np.add(rotated, pose.t, out=points[lo:hi])
        return self.row


class ElementMemo:
    """The elements one episode has extracted from one scene's cameras,
    keyed on everything extraction reads: the element kind and, per view,
    the pixel indices and the depth bytes at them. The entity, part and
    constraint text are labels that the geometry never reads, so a hit
    returns the stored element with the asking bundle's labels.

    extract_element is a pure function of each bundle's kind, pixels and
    depths and of the cameras, so a hit is bit-equal to a fresh extraction.
    A batch that raises stores nothing and raises again when asked."""

    def __init__(self, cams):
        self._cams = cams
        self._elements = {}

    def extract(self, bundles, depths) -> list:
        """One element per bundle. The misses, each key once and in bundle
        order, are extracted in one batch through this module's
        extract_element, which raises the first failure in bundle order
        (a hit cannot fail)."""
        keys = [
            (b.element_type, tuple((pix.tobytes(), d.ravel()[pix].tobytes()) for pix, d in zip(b.pixels, depths)))
            for b in bundles
        ]
        misses = {}
        for key, bundle in zip(keys, bundles):
            if key not in self._elements:
                misses.setdefault(key, bundle)
        if misses:
            self._elements.update(zip(misses, extract_element(list(misses.values()), depths, self._cams)))
        out = []
        for key, b in zip(keys, bundles):
            el = self._elements[key]
            if (el.entity, el.part, el.constraint) != (b.entity, b.part, b.constraint):
                el = replace(el, entity=b.entity, part=b.part, constraint=b.constraint)
            out.append(el)
        return out


def extract_elements(sg: Subgoal, state, scene, memo: ElementMemo | None = None):
    """Render the scene and extract the subgoal's elements: e(0) is the
    end-effector, e(i) binds sg.element_specs[i - 1]. memo is the episode's
    ElementMemo for this scene (None: a memo for this call only).

    Returns the element set and, per element, (eid, oid-or-None, points in
    the object's frame) for the ground truth. Raises CamlabError when an
    element cannot be extracted: the first failure in spec order."""
    if memo is None:
        memo = ElementMemo(scene.cameras)
    views = render(state, scene)
    objs = [state.objects[spec.oid] for spec in sg.element_specs]
    bundles = [mask_bundle(scene, views, obj, spec.part, spec.etype, sg.text) for obj, spec in zip(objs, sg.element_specs)]
    els = memo.extract(bundles, [v.depth for v in views])
    truth_specs = [(0, None, None)]
    for eid, (spec, obj, el) in enumerate(zip(sg.element_specs, objs, els), 1):
        truth_specs.append((eid, spec.oid, obj.pose.inverse().apply(el.points)))
    return make_element_set([end_effector_element([state.ee_pose.t]), *els], sg.sid), truth_specs


def load_program(source: str, cid: str | None, ring):
    """Parse, type-check and white-box validate one program on the tracker's
    ring (cid None: the constraint name); the one load path of the episode
    loop and `camctl validate`. Returns the program compiled onto the ring
    (conlang.CompiledProgram). Raises the first failure: DslSyntaxError,
    DuplicateTolerance or ValidationFailure."""
    compiled = typecheck(parse(source, cid=cid), ring)
    if compiled.issues:
        raise ValidationFailure(f"typecheck of '{compiled.cid}'", "; ".join(str(i) for i in compiled.issues))
    whitebox_validate(compiled)
    return compiled


def _bind_monitor(sg: Subgoal, sim, scene, cfg: EpisodeConfig, tracker_seed, memo: ElementMemo):
    """Extract elements (through the episode's memo), start the tracker on
    them, load programs on its ring, start the monitor.

    Raises CamlabError on any extraction or load problem; the caller gets
    one relaxed retry before aborting the episode.
    """
    state = sim.state
    es, truth_specs = extract_elements(sg, state, scene, memo)
    state.log(
        "element_extract",
        sid=sg.sid,
        ids=[e.eid for e in es.elements],
        types=[e.etype.value for e in es.elements],
        fingerprint=element_set_fingerprint(es),
    )

    mode = cfg.monitor_mode
    specs = (sg.during if mode in ("proactive_only", "full") else ()) + (
        sg.completion if mode in ("reactive_only", "full") else ()
    )
    tracker = SimTracker(cfg.tracker, tracker_seed, es.elements, state.tick, fk_eids=(0,))
    programs = [load_program(ps.source, ps.cid, tracker.ring) for ps in specs]
    state.log("programs", sid=sg.sid, sources=[ps.source for ps in specs])

    monitor = RealTimeMonitor(programs, cfg.debounce, halt_on_completion=sg.halt_on_completion)
    return _Bound(tracker, monitor, truth_specs)


def _run_subgoal(sg: Subgoal, sim, bound, book, cfg):
    """Tick until the subgoal resolves, asking the monitor for one verdict
    per tick.

    Returns "complete", "budget", or a FailureFeedback."""
    state = sim.state
    while state.tick < cfg.budget_ticks:
        sim.step()
        book.after_tick(state)
        if bound is None:
            if sim.motion_done:
                state.log("subgoal_complete", sid=sg.sid)
                return "complete"
            continue
        bound.tracker.step(bound.truth(sim), state.tick)
        v = bound.monitor.next_verdict(state.tick, sim.motion_done)
        if v.kind is VerdictKind.HALT:
            sim.policy.halt()
            sim.detach_all()
            state.log("halt", sid=sg.sid)
        elif v.is_violation:
            state.log("verdict", outcome="violation", cid=v.cid, mode=v.mode.value, reason=v.reason)
            return FailureFeedback(v.reason, v.cid, v.mode)
        elif v.kind is VerdictKind.SUBGOAL_COMPLETE:
            if v.mode is None:  # no completion programs confirmed it
                state.log("subgoal_complete", sid=sg.sid)
            else:
                state.log("verdict", outcome="subgoal_complete", sid=sg.sid)
            return "complete"
    return "budget"


def run_episode(cfg: EpisodeConfig) -> EpisodeResult:
    ss = np.random.SeedSequence(cfg.seed)
    layout_ss, disturb_ss, tracker_ss = ss.spawn(3)
    state, scene = build_scene(cfg.template, np.random.default_rng(layout_ss))
    injector = DisturbanceInjector(cfg.disturbances, np.random.default_rng(disturb_ss))
    sim = Simulation(state, injector)
    book = TaskBookkeeper(cfg.template)
    planner = Planner(cfg.template, scene.meta, max_retries=cfg.max_retries)
    tracker_seeds = tracker_ss.generate_state(64)
    memo = ElementMemo(scene.cameras)

    monitored = cfg.monitor_mode != "off"

    state.log("episode_start", template=cfg.template, mode=cfg.monitor_mode, seed=cfg.seed)
    f_pre = None
    aborted = None
    planner_done = False
    subgoal_n = 0

    while state.tick < cfg.budget_ticks:
        nxt = planner.plan_next(scene_summary(state, scene), f_pre)
        f_pre = None
        if isinstance(nxt, TaskDone):
            planner_done = True
            break
        if isinstance(nxt, TaskAbort):
            aborted = nxt.reason
            state.log("abort", reason=nxt.reason)
            break
        sg = nxt
        state.log("subgoal_start", sid=sg.sid, text=sg.text, script=sg.script_id)
        injector.on_subgoal_start(sg.base_sid, state.tick)
        sim.set_policy(build_script(sim, scene, sg.script_id, sg.script_params, injector))

        bound = None
        if monitored:
            seed = int(tracker_seeds[subgoal_n % len(tracker_seeds)])
            subgoal_n += 1
            try:
                bound = _bind_monitor(sg, sim, scene, cfg, seed, memo)
            except CamlabError as err:
                state.log("validation_failure", sid=sg.sid, error=str(err))
                sg = planner.rebuild_relaxed(scene_summary(state, scene))
                sim.set_policy(build_script(sim, scene, sg.script_id, sg.script_params, injector))
                try:
                    bound = _bind_monitor(sg, sim, scene, cfg, seed, memo)
                except CamlabError as err2:
                    aborted = f"program regeneration failed for '{sg.sid}': {err2}"
                    state.log("abort", reason=aborted)
                    break

        outcome = _run_subgoal(sg, sim, bound, book, cfg)
        if outcome == "budget":
            break
        if outcome != "complete":
            f_pre = outcome
            state.log("replan", sid=sg.sid, reason=outcome.reason)

    oracle = oracle_success(state, scene, book)
    success = bool(planner_done and oracle and aborted is None)
    state.log("episode_end", success=success, oracle=bool(oracle), ticks=state.tick,
              planner_done=planner_done, aborted=aborted)
    return EpisodeResult(success=success, ticks=state.tick, events=state.events, aborted=aborted)
