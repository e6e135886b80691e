import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camlab.conlang import (
    At,
    AxisRef,
    BinOp,
    Call,
    DslSyntaxError,
    DuplicateTolerance,
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
    load_default_kb,
    loads_kb,
    parse,
    typecheck,
    whitebox_validate,
)
from camlab.elementizer import LINE, POINT, SURFACE, ConstraintElement
from camlab.monitor import PointRing
from oracles import pretty

LEVEL_SRC = (
    'constraint "level" mode during\n'
    "tol amax = 15 deg\n"
    "{ angle(normal(e(2)), axis_z) <= amax }\n"
    'fail "pan tilted {angle}"'
)


def element(eid, etype, points):
    return ConstraintElement(
        eid=eid, etype=etype, points=np.asarray(points, dtype=float), connections=(),
        entity=f"ent{eid}", part="body", constraint="",
    )


def square(z=0.5, tilt=0.0, side=0.1):
    s = side / 2
    pts = np.array([[-s, -s, 0], [s, -s, 0], [s, s, 0], [-s, s, 0]], dtype=float)
    if tilt:
        c, sn = math.cos(tilt), math.sin(tilt)
        rot = np.array([[1, 0, 0], [0, c, -sn], [0, sn, c]])  # about x
        pts = pts @ rot.T
    pts[:, 2] += z
    return pts


def level_elements(tilt=0.0):
    return (
        element(0, POINT, [[0, 0, 0.4]]),
        element(1, LINE, [[0, 0, 0], [0.1, 0, 0]]),
        element(2, SURFACE, square(tilt=tilt)),
    )


def ctx_for(elements, tick=0):
    """Evaluation context holding one snapshot of the elements."""
    return PointRing(elements, tick)


def compiled(prog, ring):
    """prog compiled onto ring by typecheck, which must find no issue."""
    out = typecheck(prog, ring)
    assert out.issues == [], out.issues
    return out


def history_ctx(hist, etype):
    """Evaluation context for one element e(0) whose points were hist[0],
    hist[1], ..., hist[-1] (the newest) on consecutive ticks."""
    ring = PointRing([element(0, etype, hist[0])], 0)
    for tick, points in enumerate(hist[1:], 1):
        ring.push(tick, points)
    return ring


def false_reason(program):
    """The fail text of an evaluation of program, which must not hold."""
    assert evaluate(program) is False
    return fail_reason(program)


# ---------------------------------------------------------------------------
# parsing


def test_parse_level_program():
    p = parse(LEVEL_SRC)
    assert p.mode is Mode.DURING
    assert p.name == "level"
    assert len(p.tolerances) == 1
    assert p.tolerances[0].name == "amax"
    assert p.tolerances[0].value == pytest.approx(0.2618, abs=1e-4)  # 15 degrees in radians
    assert p.tolerances[0].dim == "ang"
    assert p.reason_template == "pan tilted {angle}"


def test_parse_incomplete_comparison():
    with pytest.raises(DslSyntaxError):
        parse('constraint "x" mode during { 1 < } fail "y"')


def test_parse_error_carries_position():
    try:
        parse('constraint "x" mode during { 1 < } fail "y"')
    except DslSyntaxError as err:
        assert err.line == 1
        assert err.col > 0
        assert err.expected


def test_parse_duplicate_tolerance():
    src = 'constraint "x" mode during tol a = 1 m tol a = 2 m { dist(pos(e(0), 0), pos(e(0), 0)) <= a } fail "r"'
    with pytest.raises(DuplicateTolerance):
        parse(src)


def test_parse_unknown_name():
    with pytest.raises(DslSyntaxError):
        parse('constraint "x" mode during { bogus <= 1 } fail "r"')


def test_parse_modes():
    src = 'constraint "done" mode on_completion { 1 < 2 } fail "r"'
    assert parse(src).mode is Mode.ON_COMPLETION


def test_parse_unit_conversion_cm():
    p = parse('constraint "x" mode during tol d = 3 cm { 1 < 2 } fail "r"')
    assert p.tolerances[0].value == pytest.approx(0.03)
    assert p.tolerances[0].dim == "len"


def test_parse_within_and_lists():
    src = (
        'constraint "x" mode during tol t = 2 cm '
        "{ centroid(e(0)) within t of centroid(e(1)) and count_within([e(0), e(1)], "
        "box(0, 0, 0, 1, 1, 1)) >= 1 } "
        'fail "r"'
    )
    p = parse(src)
    assert isinstance(p.body, BinOp)
    assert isinstance(p.body.lhs, Within)


@pytest.mark.parametrize(
    "body",
    ["dist(centroid(e(1e309)), centroid(e(0))) <= 1", "at(dist(pos(e(0), 0), pos(e(0), 0)), 1e999) <= 1", "1e309 > 1"],
)
def test_parse_non_finite_number_is_syntax_error(body):
    with pytest.raises(DslSyntaxError):
        parse(f'constraint "x" mode during {{ {body} }} fail "r"')


@pytest.mark.parametrize("decl", ["1e309 m", "1e400 deg", "-1 m", "-0.5 cm"])
def test_parse_rejects_non_finite_or_negative_tolerance(decl):
    # an infinite tolerance would make the comparison always true
    with pytest.raises(DslSyntaxError) as err:
        parse(f'constraint "x" mode during tol a = {decl} {{ dist(pos(e(0), 0), pos(e(1), 0)) <= a }} fail "r"')
    assert "finite non-negative tolerance" in str(err.value)


_FUZZ_SEEDS = (
    LEVEL_SRC,
    'constraint "x" mode during tol t = 2 cm tol n = 3 count '
    "{ centroid(e(0)) within t of centroid(e(1)) and count_within([e(0), e(1)], "
    'box(0, 0, 0, 1, 1, 1)) >= n } fail "r {within}"',
    'constraint "y" mode on_completion tol s = 3 cm '
    "{ if above(pos(e(1), 0), proj_xy(pos(e(2), 1)), 0.01 m) then displacement(e(1), 250) <= s "
    'else not (at(dist(centroid(e(1)), vec(0, 0, 1)), 5) > -s / 2) } fail "moved {displacement}"',
)
_FUZZ_TOKENS = (
    "(", ")", "[", "]", ",", "{", "}", '"', "=", "-", "/", "e", "at", "tol", "m", "deg", "count",
    "within", "of", "if", "then", "else", "not", "and", "1e309", "-1", "0.5", "1e-400", "inf",
    "nan", "9" * 400, "#", "\n", "1.5e", ".", "e(", "tol t = 1 m",
)


@st.composite
def _mutated_program(draw):
    text = draw(st.sampled_from(_FUZZ_SEEDS))
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(text)))
        op = draw(st.sampled_from(("insert", "delete", "replace")))
        if op == "insert":
            text = text[:pos] + draw(st.sampled_from(_FUZZ_TOKENS)) + text[pos:]
        elif op == "delete":
            text = text[:pos] + text[draw(st.integers(pos, min(len(text), pos + 8))):]
        else:
            text = text[:pos] + draw(st.text(max_size=3)) + text[pos + 1:]
    return text


@settings(max_examples=400, deadline=None)
@given(_mutated_program())
def test_parse_fails_only_with_documented_errors(text):
    try:
        prog = parse(text)
    except (DslSyntaxError, DuplicateTolerance):
        return
    assert all(math.isfinite(t.value) and t.value >= 0 for t in prog.tolerances)


# ---------------------------------------------------------------------------
# round trip


def _gen_expr(rng, tolnames, depth):
    if depth <= 0:
        choice = rng.integers(0, 4)
        if choice == 0:
            dim = rng.choice(["none", "len", "ang", "count"])
            value = float(np.round(rng.uniform(0, 10), 4))
            return Num(value, str(dim))
        if choice == 1 and tolnames:
            return TolRef(str(rng.choice(tolnames)))
        if choice == 2:
            return AxisRef(str(rng.choice(["axis_x", "axis_y", "axis_z"])))
        return ElemRef(int(rng.integers(0, 9)))
    kind = rng.integers(0, 8)
    sub = lambda: _gen_expr(rng, tolnames, depth - 1)  # noqa: E731
    if kind == 0:
        op = str(rng.choice(["+", "-", "*", "/", "and", "or", "<", "<=", ">", ">=", "="]))
        return BinOp(op, sub(), sub())
    if kind == 1:
        return Unary(str(rng.choice(["-", "not"])), sub())
    if kind == 2:
        return IfElse(sub(), sub(), sub())
    if kind == 3:
        return Within(sub(), sub(), sub())
    if kind == 4:
        return At(sub(), int(rng.integers(0, 50)))
    if kind == 5:
        return ElemList(tuple(int(x) for x in rng.integers(0, 9, size=rng.integers(1, 4))))
    fn = str(
        rng.choice(
            ["pos", "centroid", "normal", "dir", "dist", "angle", "proj_xy",
             "displacement", "rotation", "count_within", "inside", "above", "vec", "box"]
        )
    )
    nargs = int(rng.integers(1, 4))
    return Call(fn, tuple(sub() for _ in range(nargs)))


def _gen_text(rng, stem):
    """stem and up to five characters drawn from a set holding the two that
    pretty escapes, `"` and `\\`."""
    return stem + "".join(rng.choice(['"', "\\", " ", "x", "{", "}"], size=rng.integers(0, 6)))


def _gen_program(rng):
    tolnames = [f"t{i}" for i in range(rng.integers(0, 3))]
    tols = tuple(
        ToleranceDecl(n, float(np.round(rng.uniform(0, 5), 4)), str(rng.choice(["len", "ang", "count"])))
        for n in tolnames
    )
    return MonitorProgram(
        name=_gen_text(rng, f"gen{rng.integers(0, 1000)}"),
        mode=Mode.DURING if rng.random() < 0.5 else Mode.ON_COMPLETION,
        tolerances=tols,
        body=_gen_expr(rng, tolnames, int(rng.integers(1, 5))),
        reason_template=_gen_text(rng, "value {dist} tol {t0}"),
    )


def test_parse_pretty_round_trip_1000():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        prog = _gen_program(rng)
        text = pretty(prog)
        back = parse(text)
        assert back.body == prog.body, text
        assert back.tolerances == prog.tolerances
        assert back.mode == prog.mode
        assert (back.name, back.reason_template) == (prog.name, prog.reason_template), text
        # fixpoint: printing again yields byte-identical source
        assert pretty(back) == text


def test_round_trip_of_parsed_source():
    p1 = parse(LEVEL_SRC)
    p2 = parse(pretty(p1))
    assert p1.body == p2.body and p1.tolerances == p2.tolerances


# ---------------------------------------------------------------------------
# typecheck


def test_typecheck_normal_requires_surface():
    src = 'constraint "x" mode during tol a = 1 rad { angle(normal(e(0)), axis_z) <= a } fail "r"'
    issues = typecheck(parse(src), ctx_for(level_elements())).issues
    assert any("requires SURFACE" in str(i) for i in issues)


def test_typecheck_ok_program():
    src = (
        'constraint "x" mode during tol d = 3 cm '
        "{ dist(centroid(e(0)), centroid(e(0))) <= d } "
        'fail "off by {dist}"'
    )
    assert typecheck(parse(src), ctx_for(level_elements())).issues == []


def test_typecheck_unit_mismatch():
    src = 'constraint "x" mode during tol d = 3 cm { angle(normal(e(2)), axis_z) <= d } fail "r"'
    issues = typecheck(parse(src), ctx_for(level_elements())).issues
    assert any("compare" in str(i) for i in issues)


def test_typecheck_unknown_element():
    src = 'constraint "x" mode during { dist(centroid(e(9)), centroid(e(0))) <= 1 } fail "r"'
    issues = typecheck(parse(src), ctx_for(level_elements())).issues
    assert any("e(9)" in str(i) for i in issues)


def test_typecheck_dir_requires_line():
    src = 'constraint "x" mode during { angle(dir(e(2)), axis_z) <= 1 } fail "r"'
    issues = typecheck(parse(src), ctx_for(level_elements())).issues
    assert any("requires LINE" in str(i) for i in issues)


def test_typecheck_body_must_be_bool():
    src = 'constraint "x" mode during { dist(centroid(e(0)), centroid(e(1))) } fail "r"'
    issues = typecheck(parse(src), ctx_for(level_elements())).issues
    assert any("boolean" in str(i) for i in issues)


def test_typecheck_bad_placeholder():
    src = 'constraint "x" mode during { 1 < 2 } fail "oops {nope}"'
    issues = typecheck(parse(src), ctx_for(level_elements())).issues
    assert any("placeholder" in str(i) for i in issues)


def test_typecheck_within_placeholder_needs_a_within():
    # {within} is the deviation a `within` measured: in a program with no
    # `within` every violation would log the literal text "{within}"
    src = (
        'constraint "x" mode during tol lim = 1 m '
        "{ dist(centroid(e(0)), centroid(e(2))) <= lim } "
        'fail "off by {within} m"'
    )
    issues = typecheck(parse(src), ctx_for(level_elements())).issues
    assert [i.message for i in issues] == ["reason placeholder {within} matches no measured builtin or tolerance"]
    measured = src.replace("dist(centroid(e(0)), centroid(e(2))) <= lim", "centroid(e(0)) within lim of centroid(e(2))")
    assert typecheck(parse(measured), ctx_for(level_elements())).issues == []


@pytest.mark.parametrize(
    "body, message",
    [
        ("angle(normal(e(1)), axis_z) <= 1", "normal requires SURFACE, e(1) is LINE"),
        ("angle(dir(e(2)), axis_z) <= 1", "dir requires LINE, e(2) is SURFACE"),
        ("rotation(e(0), 1) <= 1", "rotation requires LINE or SURFACE, e(0) is POINT"),
    ],
    ids=["normal", "dir", "rotation"],
)
def test_kind_violation_message_from_typecheck(body, message):
    prog = parse(f'constraint "x" mode during {{ {body} }} fail "r"')
    assert [i.message for i in typecheck(prog, ctx_for(level_elements())).issues] == [message]


def test_typecheck_pos_index_range():
    src = 'constraint "x" mode during { dist(pos(e(0), 5), centroid(e(0))) <= 1 } fail "r"'
    issues = typecheck(parse(src), ctx_for(level_elements())).issues
    assert any("out of range" in str(i) for i in issues)


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_level_flat():
    p = parse(LEVEL_SRC)
    assert evaluate(compiled(p, ctx_for(level_elements(tilt=0.0)))) is True


def test_evaluate_level_tilted_20deg_reason():
    c = compiled(parse(LEVEL_SRC), ctx_for(level_elements(tilt=math.radians(20))))
    assert evaluate(c) is False
    assert fail_reason(c) == "pan tilted 0.3491"  # 20 degrees = 0.34906... rad at 4 sig digits


def test_evaluate_displacement_2cm():
    # scripted +2 cm x-translation over 10 ticks
    hist = [np.array([[0.002 * i, 0.0, 0.1]]) for i in range(11)]
    ctx = history_ctx(hist, POINT)
    src = 'constraint "moved" mode during tol dmin = 2 cm { displacement(e(0), 10) >= dmin } fail "r"'
    ok = evaluate(compiled(parse(src), ctx))
    assert ok
    # exact value check
    src2 = 'constraint "m" mode during { displacement(e(0), 10) = 0.02 } fail "r {displacement}"'
    ok2 = evaluate(compiled(parse(src2), ctx))
    assert ok2


def test_evaluate_rotation_half_turn():
    # line rotates 180 degrees about z; tracked point identity keeps the sign
    a = np.array([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0]])
    b = np.array([[0.0, 0.0, 0.0], [-0.1, 0.0, 0.0]])
    ctx = history_ctx([a, b], LINE)
    src = 'constraint "turn" mode during { rotation(e(0), 1) >= 3.14 } fail "r"'
    ok = evaluate(compiled(parse(src), ctx))
    assert ok
    src_exact = 'constraint "turn" mode during { rotation(e(0), 1) <= 3.15 } fail "r"'
    assert evaluate(compiled(parse(src_exact), ctx))


def test_evaluate_division_by_zero():
    src = 'constraint "x" mode during { 1 / (1 - 1) < 2 } fail "r"'
    with pytest.raises(EvalError):
        evaluate(compiled(parse(src), ctx_for(level_elements())))


def test_evaluate_determinism_bytes():
    p = parse(LEVEL_SRC)
    ctx = ctx_for(level_elements(tilt=math.radians(20)))
    c = compiled(p, ctx)
    r1 = evaluate(c), fail_reason(c)
    r2 = evaluate(c), fail_reason(c)
    assert r1 == r2
    assert r1[1].encode() == r2[1].encode()


def test_evaluate_scale_consistency():
    els = level_elements(tilt=math.radians(12))
    base = ctx_for(els)
    scaled = ctx_for([element(e.eid, e.etype, e.points * 3.0) for e in els])
    dist_src = 'constraint "d" mode during { dist(centroid(e(0)), centroid(e(2))) < 1000 } fail "{dist}"'
    ang_src = 'constraint "a" mode during { angle(normal(e(2)), axis_z) < 0.01 } fail "{angle}"'
    d1 = false_reason(compiled(parse(dist_src.replace("< 1000", "< 0")), base))
    d3 = false_reason(compiled(parse(dist_src.replace("< 1000", "< 0")), scaled))
    assert float(d3) == pytest.approx(3.0 * float(d1), rel=1e-9)
    a1 = false_reason(compiled(parse(ang_src), base))
    a3 = false_reason(compiled(parse(ang_src), scaled))
    assert float(a1) == pytest.approx(float(a3), abs=1e-9)


def test_evaluate_monotone_level_crossing():
    p = parse(LEVEL_SRC)
    tol = p.tolerances[0].value
    ok_below = evaluate(compiled(p, ctx_for(level_elements(tilt=tol - 0.01))))
    ok_above = evaluate(compiled(p, ctx_for(level_elements(tilt=tol + 0.01))))
    assert ok_below and not ok_above


def test_evaluate_inside_and_above():
    els = level_elements()
    src = (
        'constraint "x" mode during '
        "{ inside(centroid(e(0)), box(-1, -1, 0, 1, 1, 1)) and "
        "above(centroid(e(2)), centroid(e(0)), 0.05) } "
        'fail "r"'
    )
    ok = evaluate(compiled(parse(src), ctx_for(els)))
    assert ok  # surface centroid z=0.5 is > point z=0.4 + 0.05


def test_evaluate_count_within():
    els = level_elements()
    src = (
        'constraint "x" mode during '
        "{ count_within([e(0), e(1), e(2)], box(-1, -1, 0.3, 1, 1, 1)) = 2 } "
        'fail "saw {count_within}"'
    )
    ok = evaluate(compiled(parse(src), ctx_for(els)))
    assert ok  # point at z=0.4 and surface at z=0.5; line at z=0 is outside


_NAN = "(big * 10 - big * 10)"  # inf - inf


@st.composite
def nan_operand_programs(draw):
    """A program calling inside or above with NaN at one or more drawn
    operand positions and finite values elsewhere: a point's or a box
    corner's coordinate, or above's margin (above compares only z, so its
    NaN goes into a z or the margin)."""
    fn = draw(st.sampled_from(["inside", "above"]))
    n = 9 if fn == "inside" else 3
    nan_at = draw(st.sets(st.integers(0, n - 1), min_size=1))
    args = [_NAN if i in nan_at else f"{draw(st.floats(-2.0, 2.0)):.3f}" for i in range(n)]
    if fn == "inside":
        body = f"inside(vec({', '.join(args[:3])}), box({', '.join(args[3:])}))"
    else:
        body = f"above(vec(0, 0, {args[0]}), vec(1, 1, {args[1]}), {args[2]})"
    return f'constraint "nan" mode during\ntol big = 1e308 m\n{{ {body} }}\nfail "r"'


@settings(max_examples=300, deadline=None)
@given(nan_operand_programs())
def test_boolean_builtins_raise_on_a_nan_operand(source):
    with pytest.raises(EvalError, match="operand holds NaN"), np.errstate(all="ignore"):
        evaluate(compiled(parse(source), ctx_for(level_elements())))


@pytest.mark.parametrize("eids", ["e(0)", "e(2)", "e(0), e(2)", "e(2), e(1), e(0)"])
def test_count_within_raises_on_a_nan_centroid(eids):
    # a NaN ring point compares outside every box: read as a one-point row,
    # summed in place into its element's centroid, or through the padded gather
    _, line, surface = level_elements()
    nan_surface = surface.points.copy()
    nan_surface[1, 0] = math.nan
    ring = ctx_for([element(0, POINT, [[0, math.nan, 0.4]]), line, element(2, SURFACE, nan_surface)])
    src = f'constraint "nan" mode during {{ count_within([{eids}], box(-1, -1, -1, 1, 1, 1)) >= 0 }} fail "r"'
    with pytest.raises(EvalError, match="count_within: operand holds NaN"):
        evaluate(compiled(parse(src), ring))


def test_evaluate_at_shifts_history():
    hist = [np.array([[0.0, 0, 0]]), np.array([[1.0, 0, 0]])]
    ctx = history_ctx(hist, POINT)
    src = 'constraint "x" mode during { dist(at(centroid(e(0)), 1), centroid(e(0))) = 1.0 } fail "r"'
    assert evaluate(compiled(parse(src), ctx))


# ---------------------------------------------------------------------------
# whitebox validation


def test_whitebox_unknown_element():
    # typecheck rejects the program, so it never reaches white-box validation
    src = 'constraint "x" mode during { dist(centroid(e(99)), centroid(e(0))) <= 1 } fail "r"'
    prog = typecheck(parse(src), ctx_for(level_elements()))
    assert [i.message for i in prog.issues] == ["element e(99) is not in the bound element set"]


def test_whitebox_history_clamp_ok():
    # at(...,50) with history depth 1: clamped access validates fine
    src = 'constraint "x" mode during { displacement(e(0), 50) <= 1 m } fail "r"'
    whitebox_validate(compiled(parse(src), ctx_for(level_elements())))


def test_whitebox_during_false_rejected():
    src = 'constraint "x" mode during { 2 < 1 } fail "r"'
    with pytest.raises(ValidationFailure) as exc:
        whitebox_validate(compiled(parse(src), ctx_for(level_elements())))
    assert "subgoal start" in str(exc.value)


def test_whitebox_on_completion_false_allowed():
    src = 'constraint "x" mode on_completion { 2 < 1 } fail "r"'
    whitebox_validate(compiled(parse(src), ctx_for(level_elements())))


def test_whitebox_forces_both_branches():
    # the taken branch is fine; the untaken one divides by zero
    src = 'constraint "x" mode during { (if 1 < 2 then 1.0 else 1 / 0) < 2 } fail "r"'
    with pytest.raises(ValidationFailure) as exc:
        whitebox_validate(compiled(parse(src), ctx_for(level_elements())))
    assert "if.else" in str(exc.value)


def test_whitebox_ok_implies_evaluate_never_raises():
    src = (
        'constraint "x" mode during tol a = 1 rad '
        "{ if angle(normal(e(2)), axis_z) <= a then 1 < 2 else dist(centroid(e(0)), centroid(e(2))) < 9 } "
        'fail "r"'
    )
    p = parse(src)
    ctx = ctx_for(level_elements())
    c = compiled(p, ctx)
    whitebox_validate(c)
    evaluate(c)  # must not raise


# ---------------------------------------------------------------------------
# history reach


def test_max_history_ticks():
    # at() shifts add to displacement's ticks: 37 back needs 38 ring entries
    prog = parse('constraint "x" mode during { at(displacement(e(0), 30), 7) <= 1 m } fail "r"')
    els = level_elements()
    assert typecheck(prog, PointRing(els, 0, capacity=38)).issues == []
    issues = typecheck(prog, PointRing(els, 0, capacity=37)).issues
    assert [i.message for i in issues] == ["reaches 37 ticks back, ring capacity 37"]


# ---------------------------------------------------------------------------
# threshold KB


def test_kb_level_surface_default():
    assert load_default_kb()[("pour_tea", "level_surface")] == pytest.approx(math.radians(15))


def test_kb_stack_point_coincidence():
    assert load_default_kb()[("stack_in_order", "point_coincidence")] == pytest.approx(0.03)


def test_kb_rejects_a_repeated_key():
    with pytest.raises(ValueError, match="KB line 2: duplicate key 'pour_tea.hold'"):
        loads_kb("pour_tea.hold = 0.08 m\npour_tea.hold = 8 m\n")


def test_kb_rejects_a_key_repeated_with_spaces():
    # the segments are stripped before the repeated-key check
    with pytest.raises(ValueError, match="KB line 2: duplicate key 'pour_tea.hold'"):
        loads_kb("pour_tea.hold = 0.08 m\npour_tea . hold = 8 m\n")


@pytest.mark.parametrize("key", ["a.b.c", "a", "a.b.", ". b"])
def test_kb_rejects_a_key_without_two_segments(key):
    with pytest.raises(ValueError, match=r"KB line 1: expected 'task\.kind = value unit'"):
        loads_kb(f"{key} = 1 m\n")


def test_kb_parse_roundtrip():
    kb = loads_kb("a.b = 2 cm\n# comment\n c . d = 90 deg\n")
    assert kb == {("a", "b"): pytest.approx(0.02), ("c", "d"): pytest.approx(math.pi / 2)}
