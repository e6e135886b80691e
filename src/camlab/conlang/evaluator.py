"""Evaluation of monitor programs over element state + history.

Programs are evaluated on a context with three methods, which the tracker's
point ring (monitor.PointRing) provides:

  points_at(eid, back)  (k, 3) points of element eid, back ticks ago
  centroids(eids, back) (len(eids), 3) centroids of those elements
  kind_of(eid)          "point", "point_set", "line" or "surface"

`at(expr, n)` shifts the whole subexpression n ticks into the past. History
access clamps to the oldest available entry so programs stay total right
after a subgoal starts. An unknown element raises EvalError, as do other
runtime problems (division by zero, degenerate geometry); the monitor
converts those into fail-safe violations instead of skipping the tick.

Both operands of and/or are always evaluated: reason placeholders record the
last measured value of each builtin, and full evaluation keeps that record
(and white-box path coverage) independent of short-circuit luck.
"""

from __future__ import annotations

import re

import numpy as np

from camlab.errors import CamlabError, DegenerateGeometry
from camlab.conlang.ast import (
    ELEMENT_KINDS,
    At,
    AxisRef,
    BinOp,
    Call,
    ElemList,
    ElemRef,
    IfElse,
    MonitorProgram,
    Num,
    TolRef,
    Unary,
    Within,
    kind_mismatch,
)
from camlab.geom3d import angle_between, fit_line, fit_plane

__all__ = ["EvalError", "evaluate", "forced_walk", "format_measured"]

_AXIS_VECS = {
    "axis_x": np.array([1.0, 0.0, 0.0]),
    "axis_y": np.array([0.0, 1.0, 0.0]),
    "axis_z": np.array([0.0, 0.0, 1.0]),
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
    w = np.cross(points[1] - points[0], points[2] - points[0])
    if float(np.dot(n, w)) < 0:
        return -n
    return n


def _as_box(values) -> tuple:
    arr = np.asarray(values, dtype=np.float64).reshape(2, 3)
    return np.minimum(arr[0], arr[1]), np.maximum(arr[0], arr[1])


def _inside(p, box) -> bool:
    lo, hi = box
    return bool(np.all(p >= lo) and np.all(p <= hi))


class _Evaluator:
    def __init__(self, program: MonitorProgram, ctx, forced: bool = False):
        self.ctx = ctx
        self.forced = forced
        self.env = program.tolerance_env()
        self.measured: dict = {}

    # -- dispatch

    def eval(self, node, back: int):
        if isinstance(node, Num):
            return node.value
        if isinstance(node, TolRef):
            if node.name not in self.env:
                raise EvalError(f"unbound tolerance '{node.name}'")
            return self.env[node.name]
        if isinstance(node, AxisRef):
            return _AXIS_VECS[node.name]
        if isinstance(node, ElemRef):
            return node.eid
        if isinstance(node, ElemList):
            return node.eids
        if isinstance(node, At):
            return self.eval(node.expr, back + node.ticks)
        if isinstance(node, Unary):
            v = self.eval(node.operand, back)
            return (not v) if node.op == "not" else -v
        if isinstance(node, BinOp):
            return self._binop(node, back)
        if isinstance(node, Within):
            a = self.eval(node.lhs, back)
            tol = self.eval(node.tol, back)
            b = self.eval(node.rhs, back)
            dev = float(np.linalg.norm(a - b)) if isinstance(a, np.ndarray) else abs(a - b)
            self.measured["within"] = dev
            return dev <= tol
        if isinstance(node, IfElse):
            if self.forced:
                self._branch("if.cond", node.cond, back)
                then_v = self._branch("if.then", node.then, back)
                other_v = self._branch("if.else", node.other, back)
                return then_v if self.eval(node.cond, back) else other_v
            return self.eval(node.then if self.eval(node.cond, back) else node.other, back)
        if isinstance(node, Call):
            return self._call(node, back)
        raise EvalError(f"cannot evaluate node {type(node).__name__}")

    def _branch(self, label: str, node, back: int):
        try:
            return self.eval(node, back)
        except EvalError as err:
            raise EvalError(f"{label}: {err}") from err

    def _binop(self, node: BinOp, back: int):
        op = node.op
        a = self.eval(node.lhs, back)
        b = self.eval(node.rhs, back)
        if op == "and":
            return bool(a) and bool(b)
        if op == "or":
            return bool(a) or bool(b)
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            if abs(b) < 1e-12:
                raise EvalError("division by zero")
            return a / b
        if op == "<":
            return a < b
        if op == "<=":
            return a <= b
        if op == ">":
            return a > b
        if op == ">=":
            return a >= b
        if op == "=":
            return a == b
        raise EvalError(f"unknown operator '{op}'")

    def _call(self, node: Call, back: int):
        fn = node.fn
        try:
            value = self._call_inner(fn, node.args, back)
        except (DegenerateGeometry, IndexError, KeyError) as err:
            raise EvalError(f"{fn}: {err}") from err
        if isinstance(value, float):
            self.measured[fn] = value
        return value

    def _typed_elem(self, fn: str, arg, back: int):
        """(eid, kind) of an element argument; EvalError with the checker's
        message when `fn` does not take that kind."""
        eid = self.eval(arg, back)
        kind = self.ctx.kind_of(eid)
        if kind not in ELEMENT_KINDS[fn]:
            raise EvalError(kind_mismatch(fn, eid, kind))
        return eid, kind

    def _call_inner(self, fn: str, args, back: int):
        ctx = self.ctx
        if fn == "pos":
            eid = self.eval(args[0], back)
            idx = int(self.eval(args[1], back))
            pts = ctx.points_at(eid, back)
            if not 0 <= idx < len(pts):
                raise EvalError(f"pos index {idx} out of range for e({eid})")
            return pts[idx]
        if fn == "centroid":
            return ctx.centroids((self.eval(args[0], back),), back)[0]
        if fn == "normal":
            eid, _ = self._typed_elem(fn, args[0], back)
            n, _, _ = fit_plane(ctx.points_at(eid, back))
            return n
        if fn == "dir":
            eid, _ = self._typed_elem(fn, args[0], back)
            d, _, _ = fit_line(ctx.points_at(eid, back))
            return d
        if fn == "dist":
            a = self.eval(args[0], back)
            b = self.eval(args[1], back)
            return float(np.linalg.norm(a - b))
        if fn == "angle":
            return float(angle_between(self.eval(args[0], back), self.eval(args[1], back)))
        if fn == "proj_xy":
            p = self.eval(args[0], back)
            return np.array([p[0], p[1], 0.0])
        if fn == "displacement":
            eid = self.eval(args[0], back)
            delta = int(self.eval(args[1], back))
            now = ctx.centroids((eid,), back)[0]
            then = ctx.centroids((eid,), back + delta)[0]
            return float(np.linalg.norm(now - then))
        if fn == "rotation":
            eid, kind = self._typed_elem(fn, args[0], back)
            delta = int(self.eval(args[1], back))
            orient = _oriented_direction if kind == "line" else _oriented_normal
            a = orient(ctx.points_at(eid, back))
            b = orient(ctx.points_at(eid, back + delta))
            return float(angle_between(a, b))
        if fn == "count_within":
            eids = self.eval(args[0], back)
            box = self.eval(args[1], back)
            lo, hi = box
            c = ctx.centroids(eids, back)
            return float(np.count_nonzero(((c >= lo) & (c <= hi)).all(axis=1)))
        if fn == "inside":
            return _inside(self.eval(args[0], back), self.eval(args[1], back))
        if fn == "above":
            a = self.eval(args[0], back)
            b = self.eval(args[1], back)
            margin = self.eval(args[2], back)
            return bool(a[2] >= b[2] + margin)
        if fn == "vec":
            return np.array([self.eval(a, back) for a in args], dtype=np.float64)
        if fn == "box":
            return _as_box([self.eval(a, back) for a in args])
        raise EvalError(f"unknown builtin '{fn}'")


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


def evaluate(program: MonitorProgram, ctx):
    """Evaluate a program; returns (satisfied, reason-or-None).

    The reason string is the program's template with placeholders replaced by
    the offending measured values. Raises EvalError on runtime failure; the
    monitor treats that as a violation (fail-safe).
    """
    ev = _Evaluator(program, ctx)
    value = ev.eval(program.body, 0)
    if not isinstance(value, (bool, np.bool_)):
        raise EvalError(f"program body evaluated to {type(value).__name__}, not bool")
    if value:
        return True, None
    return False, format_measured(program.reason_template, {**ev.env, **ev.measured})


def forced_walk(program: MonitorProgram, ctx):
    """Evaluate with both branches of every conditional forced (white-box
    path coverage). Returns the program's value; raises EvalError with a
    branch-path prefix if any path fails."""
    ev = _Evaluator(program, ctx, forced=True)
    return ev.eval(program.body, 0)
