"""Evaluation of compiled monitor programs over element state + history.

typecheck (conlang.check) is the compile step: its one walk builds each
node of a program into a zero-argument closure from the factories below,
bound to the point ring the program was checked on (monitor.PointRing),
with every static fact resolved then, the centroid gathers included. No
closure looks at an AST node; an evaluation reads only the ring's current
entries, through points_at, centroids and, for count_within over one-point
elements whose spans follow each other, the ring rows themselves. History
access clamps to the oldest entry so programs stay total right after a
subgoal starts. Only what depends on run-time values raises EvalError
(division by zero, degenerate geometry, NaN); the monitor converts that
into a fail-safe violation instead of skipping the tick. An evaluation
returns only whether the program holds; fail_reason formats the fail text
from what it measured, for the one verdict that carries it.

Both operands of and/or are always evaluated: reason placeholders record the
last measured value of each builtin, and full evaluation keeps that record
independent of short-circuit luck.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass

import numpy as np

from camlab.errors import CamlabError, DegenerateGeometry
from camlab.conlang.ast import Mode
from camlab.geom3d import angle_between, cross, fit_line, fit_plane

__all__ = ["CompiledProgram", "EvalError", "evaluate", "fail_reason", "format_measured"]


def frozen(value):
    """value, an array or a box's (lo, hi) pair of arrays, set read-only, so a
    constant shared by every evaluation cannot be changed by one of them."""
    for arr in value if isinstance(value, tuple) else (value,):
        arr.setflags(write=False)
    return value


AXIS_VECS = {
    "axis_x": frozen(np.array([1.0, 0.0, 0.0])),
    "axis_y": frozen(np.array([0.0, 1.0, 0.0])),
    "axis_z": frozen(np.array([0.0, 0.0, 1.0])),
}

_ARITH_CMP = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "=": operator.eq,
}


class EvalError(CamlabError):
    """Raised when a program cannot be evaluated on the current state."""


def _oriented_direction(points: np.ndarray) -> np.ndarray:
    """fit_line direction oriented along the ordered point span, so tracked
    point identity (not the canonical sign) decides the sign."""
    d, _, _ = fit_line(points)
    span = points[-1] - points[0]
    if float(np.dot(d, span)) < 0:
        return -d
    return d


def _oriented_normal(points: np.ndarray) -> np.ndarray:
    """fit_plane normal oriented by the winding of the first three points."""
    n, _, _ = fit_plane(points)
    w = cross(points[1] - points[0], points[2] - points[0])
    if float(np.dot(n, w)) < 0:
        return -n
    return n


def _as_box(values) -> tuple:
    arr = np.asarray(values, dtype=np.float64).reshape(2, 3)
    return np.minimum(arr[0], arr[1]), np.maximum(arr[0], arr[1])


def _inside(p, box) -> bool:
    lo, hi = box
    if np.all(p >= lo) and np.all(p <= hi):
        return True
    # NaN compares outside; a NaN corner makes both lo and hi NaN
    if np.isnan(p).any() or np.isnan(lo).any():
        raise EvalError("inside: operand holds NaN")
    return False


# ---------------------------------------------------------------------------
# closure factories; `a`, `b`, ... are compiled operand closures


def const(value):
    return lambda: value


def unary(op: str, a):
    if op == "not":
        return lambda: not a()
    return lambda: -a()


def binop(op: str, a, b):
    if op == "and":
        return lambda: bool(a()) & bool(b())
    if op == "or":
        return lambda: bool(a()) | bool(b())
    if op == "/":

        def divide():
            x, y = a(), b()
            if abs(y) < 1e-12:
                raise EvalError("division by zero")
            return x / y

        return divide
    fn = _ARITH_CMP[op]
    return lambda: fn(a(), b())


def within(a, tol, b, vector: bool, measured: dict):
    def within():
        x, t, y = a(), tol(), b()
        dev = float(np.linalg.norm(x - y)) if vector else abs(x - y)
        if dev != dev:
            raise EvalError("within: measured NaN")
        measured["within"] = dev
        return dev <= t

    return within


def if_else(cond, then, other):
    return lambda: then() if cond() else other()


# Builtins: name -> factory(ring, back, *args) of the uncaught call. An
# element argument arrives as its id, an element list as its id tuple, an
# integer literal as its int; every other argument is a closure. Builtins that
# read centroids build their ring gather in the factory, at compile time.


def _rotation(ring, back, eid, delta):
    """The angle between the oriented fits of e(eid) `back` and `back + delta`
    entries before the newest. Each ring entry is fitted once: the oriented
    vector is kept per ring slot with the tick of the entry it was fitted on,
    and reused while that slot still holds that tick. An entry's points never
    change once the tracker step that pushed it has returned, and a slot
    that the ring overwrites gets a later tick, so a kept vector is never
    stale. A fit that raises keeps nothing and raises again next time."""
    orient = _oriented_direction if ring.kind_of(eid) == "line" else _oriented_normal
    lo, hi = ring.spans[eid]
    fitted_ticks = [None] * ring.capacity
    fitted = [None] * ring.capacity

    def oriented(b):
        slot = ring.slot(b)
        tick = ring.ticks[slot]
        if fitted_ticks[slot] != tick:
            fitted[slot] = orient(ring.view[slot, lo:hi])
            fitted_ticks[slot] = tick
        return fitted[slot]

    return lambda: float(angle_between(oriented(back), oriented(back + delta)))


def _proj_xy(ring, back, p):
    def proj_xy():
        v = p()
        return np.array([v[0], v[1], 0.0])

    return proj_xy


def _centroid(ring, back, eid):
    gather = ring.gather((eid,))
    return lambda: ring.centroids(gather, back)[0]


def _displacement(ring, back, eid, delta):
    gather = ring.gather((eid,))
    return lambda: float(np.linalg.norm(ring.centroids(gather, back)[0] - ring.centroids(gather, back + delta)[0]))


def _count_within(ring, back, eids, box):
    gather = ring.gather(eids)
    index, shape, _ = gather
    # one point per element, read in place: a centroid differs from its ring
    # row only in the sign of a zero, which >= and <= do not see
    rows = isinstance(index, slice) and shape[1] == 1

    def count_within():
        lo, hi = box()
        c = ring.view[ring.slot(back), index] if rows else ring.centroids(gather, back)
        ge, le = c >= lo, c <= hi
        n = np.count_nonzero((ge & le).all(axis=1))
        # with lo <= hi every number compares >= lo or <= hi; only NaN fails both
        if n < len(c) and np.count_nonzero(ge | le) < ge.size:
            raise EvalError("count_within: operand holds NaN")
        return float(n)

    return count_within


def _above(ring, back, a, b, margin):
    def above():
        x, floor = a()[2], b()[2] + margin()
        if x >= floor:
            return True
        if x != x or floor != floor:  # NaN compares below
            raise EvalError("above: operand holds NaN")
        return False

    return above


_BUILTINS = {
    "pos": lambda ring, back, eid, idx: lambda: ring.points_at(eid, back)[idx],
    "centroid": _centroid,
    "normal": lambda ring, back, eid: lambda: fit_plane(ring.points_at(eid, back))[0],
    "dir": lambda ring, back, eid: lambda: fit_line(ring.points_at(eid, back))[0],
    "dist": lambda ring, back, a, b: lambda: float(np.linalg.norm(a() - b())),
    "angle": lambda ring, back, a, b: lambda: float(angle_between(a(), b())),
    "proj_xy": _proj_xy,
    "displacement": _displacement,
    "rotation": _rotation,
    "count_within": _count_within,
    "inside": lambda ring, back, p, box: lambda: _inside(p(), box()),
    "above": _above,
    "vec": lambda ring, back, *xs: lambda: np.array([x() for x in xs], dtype=np.float64),
    "box": lambda ring, back, *xs: lambda: _as_box([x() for x in xs]),
}


def call(fn: str, ring, back: int, args, measured: dict | None):
    """Builtin `fn` on `args`, `back` ticks into the ring's history. Geometry
    and lookup errors, and a scalar measured as NaN (which no comparison
    would flag, so `not` would pass it), become EvalError("fn: ..."); the
    value is recorded in `measured` under `fn` unless that is None."""
    impl = _BUILTINS[fn](ring, back, *args)

    def run():
        try:
            value = impl()
        except (DegenerateGeometry, IndexError, KeyError) as err:
            raise EvalError(f"{fn}: {err}") from err
        if isinstance(value, float) and value != value:
            raise EvalError(f"{fn}: measured NaN")
        if measured is not None:
            measured[fn] = value
        return value

    return run


# ---------------------------------------------------------------------------
# compiled programs


@dataclass(frozen=True)
class CompiledProgram:
    """A program as typecheck compiled it onto one ring. `issues` lists the
    TypeIssues found; only a program without issues has a body to evaluate.
    `branches` holds (label, closure) for the cond, then and else of every
    conditional, inner conditionals first."""

    cid: str
    mode: Mode
    reason_template: str
    issues: list
    body: object
    branches: tuple
    tolerances: dict  # name -> SI value
    measured: dict  # builtin -> last value, rebuilt by every evaluation


_PLACEHOLDER_RE = re.compile(r"\{([A-Za-z_][A-Za-z0-9_]*)\}")


def format_measured(template: str, values: dict) -> str:
    """Substitute {name} placeholders with measured values at 4 significant
    digits; unknown placeholders are left untouched."""

    def sub(m):
        name = m.group(1)
        if name in values:
            return "%.4g" % values[name]
        return m.group(0)

    return _PLACEHOLDER_RE.sub(sub, template)


def evaluate(program: CompiledProgram) -> bool:
    """Evaluate a compiled program on its ring; returns whether it holds.

    Raises EvalError on runtime failure; the monitor treats that as a
    violation (fail-safe). fail_reason formats the fail text of an
    evaluation that returned False.
    """
    program.measured.clear()
    return bool(program.body())


def fail_reason(program: CompiledProgram) -> str:
    """The fail text of the program's last evaluation: its template with
    placeholders replaced by the tolerances and the values that evaluation
    measured. Call it after evaluate returned False, before the program is
    evaluated again."""
    return format_measured(program.reason_template, {**program.tolerances, **program.measured})
