"""Compiled evaluation against the reference AST evaluator.

typecheck compiles a program into closures bound to a point ring. The
reference below is the AST-walking evaluator the closures replaced, with
its forced mode for white-box branch coverage. On random well-typed
programs over a random multi-entry ring, the compiled program must give the
same (ok, reason) bytes or the same EvalError text as the reference, both
on the ring it was compiled on and after more entries are pushed, and
whitebox_validate must accept exactly the programs the reference accepts.
"""

import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from camlab.conlang import (
    At,
    AxisRef,
    BinOp,
    Call,
    ElemList,
    ElemRef,
    EvalError,
    IfElse,
    Mode,
    MonitorProgram,
    Num,
    ToleranceDecl,
    TolRef,
    Unary,
    ValidationFailure,
    Within,
    evaluate,
    fail_reason,
    format_measured,
    typecheck,
    whitebox_validate,
)
from camlab.conlang import check, evaluator
from camlab.conlang.ast import ELEMENT_KINDS
from camlab.elementizer import LINE, POINT, SURFACE, ConstraintElement
from camlab.errors import DegenerateGeometry
from camlab.geom3d import angle_between, fit_line, fit_plane
from camlab.monitor import PointRing
from oracles import padded_centroids

# ---------------------------------------------------------------------------
# reference: the AST-walking evaluator

_AXIS_VECS = {
    "axis_x": np.array([1.0, 0.0, 0.0]),
    "axis_y": np.array([0.0, 1.0, 0.0]),
    "axis_z": np.array([0.0, 0.0, 1.0]),
}


def _oriented_direction(points):
    d, _, _ = fit_line(points)
    return -d if float(np.dot(d, points[-1] - points[0])) < 0 else d


def _oriented_normal(points):
    n, _, _ = fit_plane(points)
    w = np.cross(points[1] - points[0], points[2] - points[0])
    return -n if float(np.dot(n, w)) < 0 else n


class ReferenceEvaluator:
    def __init__(self, program, ctx, forced=False):
        self.ctx = ctx
        self.forced = forced
        self.env = {t.name: t.value for t in program.tolerances}
        self.measured = {}

    def eval(self, node, back):
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

    def _branch(self, label, node, back):
        try:
            return self.eval(node, back)
        except EvalError as err:
            raise EvalError(f"{label}: {err}") from err

    def _binop(self, node, back):
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

    def _call(self, node, back):
        fn = node.fn
        try:
            value = self._call_inner(fn, node.args, back)
        except (DegenerateGeometry, IndexError, KeyError) as err:
            raise EvalError(f"{fn}: {err}") from err
        if isinstance(value, float):
            self.measured[fn] = value
        return value

    def _typed_elem(self, fn, arg, back):
        eid = self.eval(arg, back)
        kind = self.ctx.kind_of(eid)
        allowed = ELEMENT_KINDS[fn]
        if kind not in allowed:
            raise EvalError(f"{fn} requires {' or '.join(k.upper() for k in allowed)}, e({eid}) is {kind.upper()}")
        return eid, kind

    def _call_inner(self, fn, args, back):
        ctx = self.ctx
        if fn == "pos":
            eid = self.eval(args[0], back)
            idx = int(self.eval(args[1], back))
            pts = ctx.points_at(eid, back)
            if not 0 <= idx < len(pts):
                raise EvalError(f"pos index {idx} out of range for e({eid})")
            return pts[idx]
        if fn == "centroid":
            return padded_centroids(ctx, (self.eval(args[0], back),), back)[0]
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
            now = padded_centroids(ctx, (eid,), back)[0]
            then = padded_centroids(ctx, (eid,), back + delta)[0]
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
            lo, hi = self.eval(args[1], back)
            c = padded_centroids(ctx, eids, back)
            return float(np.count_nonzero(((c >= lo) & (c <= hi)).all(axis=1)))
        if fn == "inside":
            p, (lo, hi) = self.eval(args[0], back), self.eval(args[1], back)
            return bool(np.all(p >= lo) and np.all(p <= hi))
        if fn == "above":
            a = self.eval(args[0], back)
            b = self.eval(args[1], back)
            margin = self.eval(args[2], back)
            return bool(a[2] >= b[2] + margin)
        if fn == "vec":
            return np.array([self.eval(a, back) for a in args], dtype=np.float64)
        if fn == "box":
            arr = np.asarray([self.eval(a, back) for a in args], dtype=np.float64).reshape(2, 3)
            return np.minimum(arr[0], arr[1]), np.maximum(arr[0], arr[1])
        raise EvalError(f"unknown builtin '{fn}'")


def reference_evaluate(program, ctx):
    ev = ReferenceEvaluator(program, ctx)
    value = ev.eval(program.body, 0)
    if not isinstance(value, (bool, np.bool_)):
        raise EvalError(f"program body evaluated to {type(value).__name__}, not bool")
    if value:
        return True, None
    return False, format_measured(program.reason_template, {**ev.env, **ev.measured})


def reference_whitebox_accepts(program, ctx) -> bool:
    """The forced walk over both branches of every conditional, then, for a
    DURING program, a normal evaluation that must hold."""
    try:
        value = ReferenceEvaluator(program, ctx, forced=True).eval(program.body, 0)
    except EvalError:
        return False
    if not isinstance(value, (bool,)) and value not in (True, False):
        return False
    return program.mode is not Mode.DURING or reference_evaluate(program, ctx)[0]


# ---------------------------------------------------------------------------
# random rings and well-typed programs

_ELEMENTS = {0: (POINT, 1), 1: (LINE, 3), 2: (SURFACE, 4), 3: (LINE, 2)}
_BY_KIND = {"line": [1, 3], "surface": [2], "line_or_surface": [1, 2, 3], "any": [0, 1, 2, 3]}
_VALUES = (0.0, 0.0, 0.01, 0.5, 1.0, 2.0, 3.0)
_DIMS = ("len", "ang", "count", "none")
_SCALAR_FNS = ("dist", "angle", "displacement", "rotation", "count_within")


def _entry(rng):
    """One tick's points per element; sometimes an element's points all
    coincide, so line and plane fits degenerate."""
    out = []
    for eid, (_, n) in _ELEMENTS.items():
        pts = rng.uniform(-0.2, 0.2, size=(n, 3))
        if rng.random() < 0.25:
            pts[:] = pts[0]
        out.append(pts)
    return out


@st.composite
def rings(draw):
    """(ring after its first entries, the entries still to push)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    capacity = draw(st.integers(8, 16))
    n_entries = draw(st.integers(1, 20))
    first = draw(st.integers(1, n_entries))
    entries = [_entry(rng) for _ in range(n_entries)]
    elements = [
        ConstraintElement(eid=eid, etype=etype, points=pts, connections=(), entity=f"o{eid}", part="p", constraint="")
        for (eid, (etype, _)), pts in zip(_ELEMENTS.items(), entries[0])
    ]
    ring = PointRing(elements, 0, capacity=capacity)
    for tick in range(1, first):
        ring.push(tick, np.concatenate(entries[tick]))
    return ring, [(tick, entries[tick]) for tick in range(first, n_entries)]


@st.composite
def programs(draw):
    tols = tuple(
        ToleranceDecl(f"t{i}", draw(st.sampled_from(_VALUES)), draw(st.sampled_from(_DIMS[:3])))
        for i in range(draw(st.integers(0, 3)))
    )

    def pick(xs):
        return draw(st.sampled_from(xs))

    def ticks():
        return Num(float(draw(st.integers(0, 5))), "none")

    def elem(kind="any"):
        return ElemRef(pick(_BY_KIND[kind]))

    def choose(depth, leaves, inner):
        options = leaves + (inner if depth > 0 else [])
        return options[draw(st.integers(0, len(options) - 1))]()

    def scalar(dim, depth):
        d = depth - 1
        named = [t for t in tols if t.dim == dim]
        leaves = [lambda: Num(pick(_VALUES), dim)] + ([lambda: TolRef(pick(named).name)] if named else [])
        builtins = {
            "len": [lambda: Call("dist", (vec(d), vec(d))), lambda: Call("displacement", (elem(), ticks()))],
            "ang": [lambda: Call("angle", (vec(d), vec(d))),
                    lambda: Call("rotation", (elem("line_or_surface"), ticks()))],
            "count": [lambda: Call("count_within", (ElemList(tuple(sorted(set(draw(
                st.lists(st.sampled_from(_BY_KIND["any"]), min_size=1, max_size=3)))))), box(d)))],
            "none": [lambda: (lambda dim: BinOp("/", scalar(dim, d), scalar(dim, d)))(pick(_DIMS))],
        }[dim]
        inner = builtins + [
            lambda: BinOp(pick(["+", "-"]), scalar(dim, d), scalar(dim, d)),
            lambda: BinOp("*", scalar(dim, d), scalar("none", d)),
            lambda: BinOp("/", scalar(dim, d), scalar("none", d)),
            lambda: Unary("-", scalar(dim, d)),
            lambda: IfElse(boolean(d), scalar(dim, d), scalar(dim, d)),
            lambda: At(scalar(dim, d), draw(st.integers(0, 3))),
        ]
        return choose(depth, leaves, inner)

    def vec(depth):
        d = depth - 1
        leaves = [
            lambda: AxisRef(pick(["axis_x", "axis_y", "axis_z"])),
            lambda: Call("centroid", (elem(),)),
            lambda: (lambda e: Call("pos", (e, Num(float(draw(st.integers(0, _ELEMENTS[e.eid][1] - 1))), "none"))))(
                elem()),
        ]
        inner = [
            lambda: Call("normal", (elem("surface"),)),
            lambda: Call("dir", (elem("line"),)),
            lambda: Call("proj_xy", (vec(d),)),
            lambda: Call("vec", tuple(scalar("len", d) for _ in range(3))),
            lambda: Unary("-", vec(d)),
            lambda: BinOp(pick(["+", "-"]), vec(d), vec(d)),
            lambda: IfElse(boolean(d), vec(d), vec(d)),
            lambda: At(vec(d), draw(st.integers(0, 3))),
        ]
        return choose(depth, leaves, inner)

    def box(depth):
        d = depth - 1
        leaves = [lambda: Call("box", tuple(Num(pick(_VALUES) - 1.0, "len") for _ in range(6)))]
        inner = [
            lambda: Call("box", tuple(scalar("len", d) for _ in range(6))),
            lambda: IfElse(boolean(d), box(d), box(d)),
            lambda: At(box(d), draw(st.integers(0, 3))),
        ]
        return choose(depth, leaves, inner)

    def boolean(depth):
        d = depth - 1
        leaves = [lambda: BinOp(pick(["<", "<=", ">", ">=", "="]), Num(pick(_VALUES)), Num(pick(_VALUES)))]
        inner = [
            lambda: (lambda dim: BinOp(pick(["<", "<=", ">", ">=", "="]), scalar(dim, d), scalar(dim, d)))(
                pick(_DIMS)),
            lambda: BinOp(pick(["and", "or"]), boolean(d), boolean(d)),
            lambda: BinOp(pick(["and", "or"]), boolean(d), boolean(d)),
            lambda: Unary("not", boolean(d)),
            lambda: (lambda dim: Within(scalar(dim, d), scalar(pick([dim, "none"]), d), scalar(dim, d)))(
                pick(_DIMS)),
            lambda: Within(vec(d), scalar(pick(["len", "none"]), d), vec(d)),
            lambda: Call("inside", (vec(d), box(d))),
            lambda: Call("above", (vec(d), vec(d), scalar("len", d))),
            lambda: IfElse(boolean(d), boolean(d), boolean(d)),
            lambda: IfElse(boolean(d), boolean(d), boolean(d)),
            lambda: At(boolean(d), draw(st.integers(0, 3))),
        ]
        return choose(depth, leaves, inner)

    body = boolean(draw(st.integers(1, 4)))
    used = [fn for fn in _SCALAR_FNS if _mentions(body, fn)]
    template = "r {within}" + "".join(f" {{{name}}}" for name in used + [t.name for t in tols])
    mode = pick([Mode.DURING, Mode.ON_COMPLETION])
    return MonitorProgram("gen", mode, tols, body, template, cid="gen")


def _mentions(node, fn) -> bool:
    if isinstance(node, Call) and node.fn == fn:
        return True
    children = node.__dict__.values()
    return any(_mentions(c, fn) for v in children for c in (v if isinstance(v, tuple) else (v,))
               if hasattr(c, "__dict__"))


def evaluated(compiled):
    """(holds, fail text or None) of one evaluation of a compiled program."""
    ok = evaluate(compiled)
    return ok, None if ok else fail_reason(compiled)


def _outcome(fn):
    try:
        ok, reason = fn()
    except EvalError as err:
        return "error", str(err)
    return ok, None if reason is None else reason.encode()


def _accepts(program) -> bool:
    try:
        whitebox_validate(program)
    except ValidationFailure:
        return False
    return True


@settings(
    max_examples=1000, derandomize=True, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(rings(), programs())
def test_compiled_program_matches_reference_evaluator(ring_and_rest, program):
    ring, rest = ring_and_rest
    compiled = typecheck(program, ring)
    assume(not compiled.issues)
    assert _accepts(compiled) == reference_whitebox_accepts(program, ring)
    assert _outcome(lambda: evaluated(compiled)) == _outcome(lambda: reference_evaluate(program, ring))
    for tick, points in rest:
        ring.push(tick, np.concatenate(points))
    assert _outcome(lambda: evaluated(compiled)) == _outcome(lambda: reference_evaluate(program, ring))


# ---------------------------------------------------------------------------
# literal box(...) and vec(...) calls fold into read-only constants

_literal = st.one_of(
    st.builds(lambda x: Num(x, "len"), st.sampled_from(_VALUES + (-0.0, 0.25, -1.5))),
    st.builds(lambda x: Unary("-", Num(x, "len")), st.sampled_from(_VALUES)),
    st.just(TolRef("t0")),
)


def _uses_of(v, b):
    """A node per builtin (and operator) that takes a vector or a box, with
    the vector v or the box b in that place."""
    c0, c1 = Call("centroid", (ElemRef(0),)), Call("centroid", (ElemRef(1),))
    return {
        "dist": Call("dist", (v, c1)),
        "angle": Call("angle", (c0, v)),
        "proj_xy": Call("proj_xy", (v,)),
        "above": Call("above", (v, c0, Num(0.01, "len"))),
        "above_rhs": Call("above", (c0, v, Num(0.0, "len"))),
        "inside": Call("inside", (v, b)),
        "inside_box": Call("inside", (c0, b)),
        "count_within": Call("count_within", (ElemList((0, 1, 2, 3)), b)),
        "within": Within(v, TolRef("t0"), c1),
        "neg": Unary("-", v),
        "add": BinOp("+", v, c0),
        "sub": BinOp("-", c1, v),
        "if": IfElse(BinOp("<", Num(1.0), Num(2.0)), v, c0),
    }


def _compile_node(program, ring, node):
    t, f = check._Checker(program, ring).compile(node)
    assert f is not None, t
    return f


@settings(max_examples=60, deadline=None)
@given(
    st.tuples(*[_literal] * 3),
    st.tuples(*[_literal] * 6),
    st.sampled_from(_VALUES),
    st.integers(0, 2**32 - 1),
)
def test_literal_box_and_vec_fold_to_read_only_constants(v_args, b_args, tol, seed):
    rng = np.random.default_rng(seed)
    elements = [
        ConstraintElement(eid=eid, etype=etype, points=rng.uniform(-0.2, 0.2, (n, 3)), connections=(),
                          entity=f"o{eid}", part="p", constraint="")
        for eid, (etype, n) in _ELEMENTS.items()
    ]
    ring = PointRing(elements, 0)
    program = MonitorProgram("p", Mode.DURING, (ToleranceDecl("t0", tol, "len"),), Num(1.0), "r", cid="p")
    v, b = Call("vec", v_args), Call("box", b_args)
    folded_v, folded_b = _compile_node(program, ring, v), _compile_node(program, ring, b)
    assert folded_v() is folded_v() and not folded_v().flags.writeable
    assert folded_b() is folded_b() and not any(a.flags.writeable for a in folded_b())
    folded = {name: _compile_node(program, ring, node) for name, node in _uses_of(v, b).items()}
    with mock.patch.object(check, "_is_literal", lambda node: False):
        unfolded_v = _compile_node(program, ring, v)
        assert unfolded_v() is not unfolded_v() and unfolded_v().flags.writeable
        unfolded = {name: _compile_node(program, ring, node) for name, node in _uses_of(v, b).items()}
    assert folded_v().tobytes() == unfolded_v().tobytes()
    for name, f in folded.items():
        try:
            want = unfolded[name]()
        except EvalError as err:
            with pytest.raises(EvalError, match=re.escape(str(err))):
                f()
            continue
        got = f()
        assert type(got) is type(want), name
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), name


def test_axis_vectors_are_read_only():
    for vec in evaluator.AXIS_VECS.values():
        with pytest.raises(ValueError):
            vec[0] = 2.0


# ---------------------------------------------------------------------------
# rotation fits each ring entry once


def _rotation_entry(rng, kind, n):
    """One entry's points of a LINE or SURFACE element; sometimes they all
    coincide, or (for a surface) lie on one line, so the fit raises."""
    pts = rng.uniform(-0.2, 0.2, size=(n, 3))
    r = rng.random()
    if r < 0.15:
        pts[:] = pts[0]
    elif r < 0.3 and kind is SURFACE:
        pts[:] = pts[0] + np.outer(rng.uniform(-1.0, 1.0, n), rng.uniform(-0.1, 0.1, 3))
    return pts


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([(LINE, 2), (LINE, 5), (SURFACE, 3), (SURFACE, 6)]),
    st.integers(1, 5),
    st.integers(0, 7),
    st.integers(0, 3),
    st.integers(0, 2**32 - 1),
)
def test_rotation_fits_each_entry_once_and_matches_the_uncached_fits(element, capacity, delta, back, seed):
    """at(rotation(e(1), delta), back) on a ring that wraps, evaluated after
    every push: the same float bits or EvalError text as fitting both
    entries afresh, and one successful fit per distinct entry over all
    evaluations."""
    kind, n = element
    rng = np.random.default_rng(seed)
    orient = _oriented_direction if kind is LINE else _oriented_normal
    elements = [
        ConstraintElement(eid=1, etype=kind, points=_rotation_entry(rng, kind, n), connections=(),
                          entity="o1", part="p", constraint="")
    ]
    ring = PointRing(elements, 0, capacity=capacity)
    pushed = [0]  # tick of every entry, oldest first
    program = MonitorProgram("p", Mode.DURING, (), Num(1.0), "r", cid="p")
    node = Call("rotation", (ElemRef(1), Num(float(delta), "none")))
    if back:
        node = At(node, back)
    fits = []

    def counted(fit):
        def fit_and_count(points):
            out = fit(points)
            fits.append(1)
            return out

        return fit_and_count

    fitted = set()  # ticks of the entries that the uncached computation fitted

    def uncached():
        vecs = []
        for b in (back, back + delta):
            tick = pushed[max(len(pushed) - 1 - b, len(pushed) - capacity, 0)]
            try:
                vecs.append(orient(ring.points_at(1, b)))
            except DegenerateGeometry as err:
                raise EvalError(f"rotation: {err}") from err
            fitted.add(tick)
        return float(angle_between(*vecs))

    def outcome(fn):
        try:
            return fn().hex()
        except EvalError as err:
            return "error", str(err)

    with mock.patch.object(evaluator, "fit_line", counted(fit_line)), \
            mock.patch.object(evaluator, "fit_plane", counted(fit_plane)):
        compiled = _compile_node(program, ring, node)
        for tick in range(1, 3 * capacity + 8):
            assert outcome(compiled) == outcome(uncached)
            assert len(fits) == len(fitted)
            ring.push(tick, _rotation_entry(rng, kind, n))
            pushed.append(tick)
