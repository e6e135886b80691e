"""Rule-based constraint generator and re-planner.

Maps the five task templates to subgoal sequences. Each subgoal bundles a
policy script reference, element specs (entity/part/type), and DSL monitor
programs instantiated from the threshold knowledge base and the current
scene summary. A monitor violation selects a recovery path from a declarative
rule table (retry, re-pick, re-level, abort); recovery never loops more than
max_retries per subgoal.

Element id convention: e(0) is always the end-effector; element_specs[i]
binds e(i+1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

from camlab.elementizer import LINE, POINT, SURFACE, ElementKind
from camlab.conlang import Mode, load_default_kb
from camlab.conlang.kb import key_value_lines
from camlab.monitor import INTERNAL_ERROR_REASON, Verdict

__all__ = [
    "ElementSpec",
    "ProgramSpec",
    "Subgoal",
    "TaskDone",
    "TaskAbort",
    "Planner",
    "RecoveryRules",
    "load_default_rules",
]

MAX_RETRIES = 5  # recoveries per subgoal before the task aborts


@dataclass(frozen=True)
class ElementSpec:
    oid: str
    part: str
    etype: ElementKind


@dataclass(frozen=True)
class ProgramSpec:
    cid: str
    kind: str
    source: str


@dataclass
class Subgoal:
    sid: str
    text: str
    script_id: str
    script_params: dict
    element_specs: tuple
    during: tuple  # ProgramSpec
    completion: tuple  # ProgramSpec
    halt_on_completion: bool = False

    @property
    def base_sid(self) -> str:
        return self.sid.split("#", 1)[0]


@dataclass(frozen=True)
class TaskDone:
    pass


@dataclass(frozen=True)
class TaskAbort:
    reason: str


# ---------------------------------------------------------------------------
# recovery rule table


class RecoveryRules:
    """(task, kind, mode) -> action, with '*' wildcards per segment."""

    ACTIONS = ("retry", "repick_then_retry", "repick_orient_then_retry", "relevel_then_retry", "abort")

    def __init__(self, rules: dict):
        self.rules = rules

    @classmethod
    def loads(cls, text: str) -> "RecoveryRules":
        rules = {}
        form = "task.kind.mode = action"
        for lineno, key, action in key_value_lines(text, "rules", form, segments=3):
            if action not in cls.ACTIONS:
                raise ValueError(f"rules line {lineno}: unknown action '{action}'")
            rules[key] = action
        return cls(rules)

    def lookup(self, task: str, kind: str, mode: Mode) -> str | None:
        m = mode.value
        # exact task beats wildcard task, then exact kind, then exact mode
        for key in (
            (task, kind, m),
            (task, kind, "*"),
            ("*", kind, m),
            ("*", kind, "*"),
            (task, "*", m),
            ("*", "*", m),
            ("*", "*", "*"),
        ):
            if key in self.rules:
                return self.rules[key]
        return None


@lru_cache(maxsize=1)
def load_default_rules() -> RecoveryRules:
    text = resources.files("camlab").joinpath("data/recovery_rules.txt").read_text(encoding="utf-8")
    return RecoveryRules.loads(text)


# ---------------------------------------------------------------------------
# program text helpers


def _f(x: float) -> str:
    return repr(float(x))


def _tol_line(name: str, value: float, unit: str) -> str:
    return f"tol {name} = {_f(value)} {unit}"


def _prog(name, mode, tol_lines, body, fail):
    head = f'constraint "{name}" mode {mode}'
    return "\n".join([head, *tol_lines, "{ " + body + " }", f'fail "{fail}"'])


class _ProgramFactory:
    def __init__(self, task: str, kb: dict, relax: float = 1.0):
        self.task = task
        self.kb = kb
        self.relax = relax

    def tol(self, kind: str) -> float:
        """The KB tolerance of `kind` for this task, relaxed; a pair the KB
        lacks is a KeyError (the KB holds every pair a builder asks for)."""
        return self.kb[(self.task, kind)] * self.relax

    def hold(self, sid, ei, mode="during") -> ProgramSpec:
        src = _prog(
            "hold", mode, [_tol_line("hmax", self.tol("hold"), "m")],
            f"dist(centroid(e({ei})), centroid(e(0))) <= hmax",
            "object left the gripper ({dist} m)",
        )
        return ProgramSpec(f"{sid}.hold", "hold", src)

    def grasp_hold(self, sid, ei) -> ProgramSpec:
        """At-grasp check: the object sits under the gripper (tight in xy)
        and within the carry envelope in 3D. Works for any grasp
        orientation, unlike a single absolute distance."""
        src = _prog(
            "grasped", "on_completion",
            [_tol_line("gmax", self.tol("grasp_hold"), "m"), _tol_line("hmax", self.tol("hold"), "m")],
            f"proj_xy(centroid(e({ei}))) within gmax of proj_xy(centroid(e(0)))"
            f" and dist(centroid(e({ei})), centroid(e(0))) <= hmax",
            "grasp missed ({within} m off the gripper axis)",
        )
        return ProgramSpec(f"{sid}.grasp_hold", "grasp_hold", src)

    def still(self, sid, ei) -> ProgramSpec:
        # displacement against the (clamped) oldest history entry, i.e. the
        # extraction snapshot: bias-free "has not moved since subgoal start"
        src = _prog(
            "still", "during", [_tol_line("smax", self.tol("still"), "m")],
            f"displacement(e({ei}), 250) <= smax",
            "object moved {displacement} m during approach",
        )
        return ProgramSpec(f"{sid}.still", "still", src)

    def orient_still(self, sid, ei) -> ProgramSpec:
        src = _prog(
            "orient_still", "during", [_tol_line("omax", self.tol("orient_still"), "rad")],
            f"rotation(e({ei}), 250) <= omax",
            "object rotated {rotation} rad during approach",
        )
        return ProgramSpec(f"{sid}.orient_still", "orient_still", src)

    def level(self, sid, ei, mode="during") -> ProgramSpec:
        src = _prog(
            "level", mode, [_tol_line("lmax", self.tol("level_surface"), "rad")],
            f"angle(normal(e({ei})), axis_z) <= lmax",
            "held surface tilted {angle} rad",
        )
        return ProgramSpec(f"{sid}.level", "level_surface", src)

    def vertical(self, sid, ei, mode="during") -> ProgramSpec:
        src = _prog(
            "vertical", mode, [_tol_line("vmax", self.tol("verticality"), "rad")],
            f"angle(dir(e({ei})), axis_z) <= vmax",
            "spine off vertical by {angle} rad",
        )
        return ProgramSpec(f"{sid}.vertical", "verticality", src)

    def placed_on(self, sid, ei, esup, dz) -> ProgramSpec:
        src = _prog(
            "placed", "on_completion", [_tol_line("near", self.tol("point_coincidence"), "m")],
            f"centroid(e({ei})) within near of centroid(e({esup})) + vec(0.0, 0.0, {_f(dz)})",
            "block not on support ({within} m)",
        )
        return ProgramSpec(f"{sid}.placed", "point_coincidence", src)

    def align_xy(self, sid, ei, etarget) -> ProgramSpec:
        src = _prog(
            "aligned", "on_completion", [_tol_line("amax", self.tol("align_xy"), "m")],
            f"proj_xy(centroid(e({ei}))) within amax of proj_xy(centroid(e({etarget})))",
            "not above the target ({within} m off)",
        )
        return ProgramSpec(f"{sid}.aligned", "align_xy", src)


# ---------------------------------------------------------------------------
# per-task subgoal builders


def _stack_builders(meta):
    order = meta["order"]
    supports = ["pad"] + order[:-1]
    builders = []
    for obj, sup in zip(order, supports):

        def pick(scene, pf, sid, obj=obj):
            return Subgoal(
                sid=sid,
                text=f"pick the {obj} block",
                script_id="approach",
                script_params={"oid": obj},
                element_specs=(ElementSpec(obj, "body", POINT),),
                during=(),
                completion=(pf.hold(sid, 1, "on_completion"),),
            )

        def place(scene, pf, sid, obj=obj, sup=sup):
            blk = scene["meta"]["block"]
            s = scene["objects"][sup]
            dz = (s["top_z"] - s["pos"][2]) + blk / 2  # support centroid -> block centroid
            return Subgoal(
                sid=sid,
                text=f"place the {obj} block on the {sup}",
                script_id="place",
                script_params={"oid": obj, "support": sup},
                element_specs=(ElementSpec(obj, "body", POINT), ElementSpec(sup, "body", POINT)),
                during=(pf.hold(sid, 1),),
                completion=(pf.placed_on(sid, 1, 2, dz),),
            )

        builders.append((f"pick_{obj}", pick))
        builders.append((f"place_{obj}", place))
    return builders


def _sweep_builders(meta):
    def sweep(scene, pf, sid):
        blocks = scene["meta"]["blocks"]
        lo, hi = scene["regions"]["target"]
        band_lo, band_hi = scene["meta"]["band"]
        mid = (band_lo + band_hi) / 2.0
        width = (band_hi - band_lo) / 2.0
        refs = ", ".join(f"e({i + 1})" for i in range(len(blocks)))
        box = ", ".join(_f(v) for v in (*lo, *hi))
        src = _prog(
            "half_swept", "on_completion", [f"tol band = {_f(width)} count"],
            f"count_within([{refs}], box({box})) within band of {_f(mid)}",
            "swept count {count_within} outside the band",
        )
        return Subgoal(
            sid=sid,
            text="sweep blocks until about half are in the target region",
            script_id="sweep",
            script_params={},
            element_specs=tuple(ElementSpec(b, "body", POINT) for b in blocks),
            during=(),
            completion=(ProgramSpec(f"{sid}.band", "region_band", src),),
            halt_on_completion=True,
        )

    return [("sweep", sweep)]


def _slot_pen_builders(meta):
    def reach(scene, pf, sid):
        return Subgoal(
            sid, "reach and grasp the pen", "approach", {"oid": "pen"},
            (ElementSpec("pen", "body", POINT),),
            during=(pf.still(sid, 1),),
            completion=(pf.grasp_hold(sid, 1),),
        )

    def lift(scene, pf, sid):
        return Subgoal(
            sid, "lift the pen and orient it tip-down", "lift_orient", {"oid": "pen"},
            (ElementSpec("pen", "body", POINT),),
            during=(pf.hold(sid, 1),),
            completion=(pf.hold(sid, 1, "on_completion"),),
        )

    def transport(scene, pf, sid):
        return Subgoal(
            sid, "move the pen above the holder", "transport", {"oid": "pen", "target": "holder"},
            (ElementSpec("pen", "body", POINT), ElementSpec("holder", "body", POINT)),
            during=(pf.hold(sid, 1),),
            completion=(pf.align_xy(sid, 1, 2),),
        )

    def insert(scene, pf, sid):
        bore = scene["meta"]["bore_radius"]
        src = _prog(
            "tip_in_bore", "on_completion", [_tol_line("axy", bore * pf.relax, "m")],
            f"proj_xy(centroid(e(1))) within axy of proj_xy(centroid(e(3)))"
            f" and above(centroid(e(3)), centroid(e(1)), 0.005)",
            "pen tip off the holder axis ({within} m)",
        )
        return Subgoal(
            sid, "insert the pen into the holder", "insert", {"oid": "pen"},
            (
                ElementSpec("pen", "tip", POINT),
                ElementSpec("pen", "body", POINT),
                ElementSpec("holder", "body", POINT),
            ),
            during=(pf.hold(sid, 2),),
            completion=(ProgramSpec(f"{sid}.tip_in_bore", "point_coincidence", src),),
        )

    return [("reach_pen", reach), ("lift_pen", lift), ("move_pen", transport), ("insert_pen", insert)]


def _stow_book_builders(meta):
    def reach(scene, pf, sid):
        return Subgoal(
            sid, "reach and grasp the book", "approach", {"oid": "book"},
            (ElementSpec("book", "body", POINT), ElementSpec("book", "spine", LINE)),
            during=(pf.still(sid, 1), pf.orient_still(sid, 2)),
            completion=(pf.grasp_hold(sid, 1),),
        )

    def lift(scene, pf, sid):
        return Subgoal(
            sid, "lift the book and orient the spine vertical", "lift_orient", {"oid": "book"},
            (ElementSpec("book", "body", POINT), ElementSpec("book", "spine", LINE)),
            during=(pf.hold(sid, 1),),
            completion=(pf.vertical(sid, 2, "on_completion"),),
        )

    def transport(scene, pf, sid):
        return Subgoal(
            sid, "carry the book above the shelf slot", "transport",
            {"oid": "book", "target_region": "slot"},
            (ElementSpec("book", "body", POINT), ElementSpec("book", "spine", LINE)),
            during=(pf.hold(sid, 1), pf.vertical(sid, 2)),
            completion=(),
        )

    def place(scene, pf, sid):
        lo, hi = scene["regions"]["slot"]
        box = ", ".join(_f(v) for v in (*lo, *hi))
        src = _prog(
            "stowed", "on_completion", [_tol_line("vmax", pf.tol("verticality"), "rad")],
            f"angle(dir(e(2)), axis_z) <= vmax and inside(centroid(e(1)), box({box}))",
            "book not stowed upright (tilt {angle} rad)",
        )
        return Subgoal(
            sid, "place the book upright on the shelf", "place_book", {"oid": "book"},
            (ElementSpec("book", "body", POINT), ElementSpec("book", "spine", LINE)),
            during=(pf.hold(sid, 1), pf.vertical(sid, 2)),
            completion=(ProgramSpec(f"{sid}.stowed", "verticality", src),),
        )

    return [("reach_book", reach), ("lift_book", lift), ("move_book", transport), ("place_book", place)]


def _pour_tea_builders(meta):
    def reach(scene, pf, sid):
        return Subgoal(
            sid, "reach and grasp the teapot", "approach", {"oid": "teapot"},
            (ElementSpec("teapot", "body", POINT),),
            during=(pf.still(sid, 1),),
            completion=(pf.grasp_hold(sid, 1),),
        )

    def lift(scene, pf, sid):
        return Subgoal(
            sid, "lift the teapot", "lift", {"oid": "teapot"},
            (ElementSpec("teapot", "body", POINT), ElementSpec("teapot", "lid", SURFACE)),
            during=(pf.hold(sid, 1), pf.level(sid, 2)),
            completion=(pf.hold(sid, 1, "on_completion"),),
        )

    def transport(scene, pf, sid):
        return Subgoal(
            sid, "carry the teapot above the teacup, keeping it level", "transport",
            {"oid": "teapot", "target": "teacup"},
            (
                ElementSpec("teapot", "body", POINT),
                ElementSpec("teapot", "lid", SURFACE),
                ElementSpec("teacup", "body", POINT),
            ),
            during=(pf.hold(sid, 1), pf.level(sid, 2)),
            completion=(pf.align_xy(sid, 1, 3),),
        )

    def pour(scene, pf, sid):
        src = _prog(
            "poured", "on_completion",
            [
                _tol_line("pmin", pf.tol("pour_min"), "rad"),
                _tol_line("lmax", pf.tol("level_surface"), "rad"),
            ],
            "angle(at(normal(e(1)), 30), axis_z) >= pmin and angle(normal(e(1)), axis_z) <= lmax",
            "pour incomplete (tilt now {angle} rad)",
        )
        return Subgoal(
            sid, "tilt to pour, then return level", "pour", {"oid": "teapot"},
            (ElementSpec("teapot", "lid", SURFACE),),
            during=(),
            completion=(ProgramSpec(f"{sid}.poured", "pour_done", src),),
        )

    return [("reach_pot", reach), ("lift_pot", lift), ("move_pot", transport), ("pour", pour)]


_BUILDERS = {
    "stack_in_order": _stack_builders,
    "sweep_half": _sweep_builders,
    "slot_pen": _slot_pen_builders,
    "stow_book": _stow_book_builders,
    "pour_tea": _pour_tea_builders,
}

# which grasp builder recovers a dropped/misplaced object, per task
_GRASP_SID = {
    "stack_in_order": "pick_{oid}",
    "slot_pen": "reach_pen",
    "stow_book": "reach_book",
    "pour_tea": "reach_pot",
}

_ORIENT_SID = {"stow_book": "lift_book", "slot_pen": "lift_pen"}

_RELEVEL_PROGRAM = {
    "pour_tea": (_ProgramFactory.level, ("teapot", "lid", SURFACE)),
    "stow_book": (_ProgramFactory.vertical, ("book", "spine", LINE)),
}


class Planner:
    """Per-episode subgoal state machine (Constraint Generator stand-in).

    `current` is the last subgoal handed out. It and the base sid and
    builder it was built from are the one record a failure is resolved
    against: the subgoal to retry, the failed program's kind and the object
    to re-pick all come from it."""

    def __init__(self, template: str, scene_meta: dict, max_retries: int = MAX_RETRIES):
        if template not in _BUILDERS:
            raise ValueError(f"unknown template '{template}'")
        self.template = template
        self.kb = load_default_kb()
        self.rules = load_default_rules()
        self.max_retries = max_retries
        self._queue = _BUILDERS[template](scene_meta)  # (base sid, builder) still to dispatch
        self._by_sid = dict(self._queue)
        self._retries: dict = {}
        self._dispatch_count: dict = {}
        self.current: Subgoal | None = None

    # -- internal dispatch

    def _build(self, base_sid: str, builder, scene: dict, relax: float = 1.0) -> Subgoal:
        n = self._dispatch_count.get(base_sid, 0)
        self._dispatch_count[base_sid] = n + 1
        sid = base_sid if n == 0 else f"{base_sid}#r{n}"
        pf = _ProgramFactory(self.template, self.kb, relax)
        self.current = builder(scene, pf, sid)
        self._current_builder = (base_sid, builder)
        return self.current

    def rebuild_relaxed(self, scene: dict, relax: float = 2.0) -> Subgoal:
        """One retry with relaxed tolerances after a validation failure."""
        base, builder = self._current_builder
        return self._build(base, builder, scene, relax=relax)

    def kind_of(self, cid: str, reason: str = "") -> str:
        """The kind of the current subgoal's program `cid`; "internal" for a
        monitor error or a cid the subgoal does not hold."""
        if reason != INTERNAL_ERROR_REASON and self.current is not None:
            for spec in self.current.during + self.current.completion:
                if spec.cid == cid:
                    return spec.kind
        return "internal"

    # -- the Eq.-style interface: next subgoal from observations + feedback

    def plan_next(self, scene: dict, f_pre: Verdict | None = None):
        """Next subgoal given the scene summary and the monitor's violation
        Verdict for the current subgoal, if it failed.

        Without a violation the next queued subgoal is dispatched; a
        violation consults the recovery rules on its cid, mode and reason and
        queues recovery work in front. Returns a Subgoal, TaskDone, or TaskAbort."""
        if f_pre is not None:
            outcome = self._handle_failure(f_pre)
            if outcome is not None:
                return outcome
        if not self._queue:
            return TaskDone()
        base, builder = self._queue.pop(0)
        return self._build(base, builder, scene)

    def _handle_failure(self, f_pre: Verdict):
        base, builder = self._current_builder
        n = self._retries[base] = self._retries.get(base, 0) + 1
        if n > self.max_retries:
            return TaskAbort(f"subgoal '{base}' failed {n} times: {f_pre.reason}")
        kind = self.kind_of(f_pre.cid, f_pre.reason)
        action = self.rules.lookup(self.template, kind, f_pre.mode)
        if action is None or action == "abort":
            return TaskAbort(f"no recovery for {self.template}.{kind}.{f_pre.mode.value}: {f_pre.reason}")
        if base not in self._by_sid:
            return TaskAbort(f"cannot rebuild unknown subgoal '{base}'")
        recovery: list = []
        if action in ("repick_then_retry", "repick_orient_then_retry"):
            grasp_base = _GRASP_SID[self.template].format(oid=self.current.script_params.get("oid", ""))
            recovery.append((grasp_base, self._by_sid[grasp_base]))
            if action == "repick_orient_then_retry":
                orient_base = _ORIENT_SID[self.template]
                recovery.append((orient_base, self._by_sid[orient_base]))
        elif action == "relevel_then_retry":
            recovery.append(("relevel", self._relevel_builder()))
        recovery.append((base, builder))
        self._queue[:0] = recovery
        return None

    def _relevel_builder(self):
        program, (oid, part, etype) = _RELEVEL_PROGRAM[self.template]

        def relevel(scene, pf, sid, program=program, oid=oid, part=part, etype=etype):
            return Subgoal(
                sid, "re-level the held object", "relevel", {"oid": oid},
                (ElementSpec(oid, "body", POINT), ElementSpec(oid, part, etype)),
                during=(),
                completion=(program(pf, sid, 2, "on_completion"),),
            )

        return relevel

