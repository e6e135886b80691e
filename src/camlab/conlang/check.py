"""Static type/unit checking, compilation and white-box validation of
monitor programs.

typecheck walks a program once against the tracker's point ring. It checks
element references, builtin arities and argument kinds (ast.ELEMENT_KINDS),
units (an angle is never compared to meters), that the body is boolean,
that at() shifts a builtin rather than a bare element reference, and that
the history reach stays below the ring's capacity; issues come back
in-band. The same walk compiles each accepted node into a closure bound to
that ring (conlang.evaluator), so evaluation never revisits the AST. A
box(...) or vec(...) call whose arguments are all literals is evaluated
once, then and there, into a read-only constant.

whitebox_validate calls the cond, then and else closures of every
conditional (branch coverage), then the body, on the subgoal's first-tick
state; any runtime error on any path, or a during-constraint that is
already false before motion starts, fails validation so the caller can
regenerate the program.
"""

from __future__ import annotations

from dataclasses import dataclass

from camlab.errors import CamlabError
from camlab.conlang import evaluator as ev
from camlab.conlang.ast import (
    BUILTINS,
    ELEMENT_KINDS,
    At,
    AxisRef,
    BinOp,
    Call,
    ElemList,
    ElemRef,
    IfElse,
    Mode,
    MonitorProgram,
    Num,
    TolRef,
    Unary,
    Within,
    _print,
)
from camlab.conlang.evaluator import CompiledProgram, EvalError, evaluate, fail_reason, _PLACEHOLDER_RE

__all__ = ["TypeIssue", "typecheck", "ValidationFailure", "whitebox_validate"]


@dataclass(frozen=True)
class TypeIssue:
    message: str
    where: str

    def __str__(self):
        return f"{self.message} (in: {self.where})"


class ValidationFailure(CamlabError):
    def __init__(self, path: str, cause):
        self.path = path
        self.cause = cause
        super().__init__(f"{path}: {cause}")


_BOOL = ("bool",)
_VEC = ("vec",)
_BOX = ("box",)
_ERR = ("error",)


def _scalar(dim: str):
    return ("scalar", dim)


def _join_dims(a: str, b: str):
    if a == "none":
        return b
    if b == "none" or a == b:
        return a
    return None


class _Checker:
    """compile(node) returns (type, closure); an element reference gives its
    id and an element list its id tuple in place of a closure. The closure
    is None for a node with an issue (type _ERR), or whose arguments had one."""

    def __init__(self, program: MonitorProgram, ring):
        self.ring = ring
        self.tols = {t.name: t for t in program.tolerances}
        self.issues: list = []
        self.scalar_fns: set = set()
        self.measured: dict = {}
        self.branches: list = []
        self.back = 0  # history offset of the node being checked
        self.reach = 0  # largest history offset seen

    def issue(self, message: str, node):
        self.issues.append(TypeIssue(message, _print(node, 0)))
        return _ERR, None

    def compile(self, node):
        if isinstance(node, Num):
            return _scalar(node.dim), ev.const(node.value)
        if isinstance(node, TolRef):
            if node.name not in self.tols:
                return self.issue(f"unbound tolerance '{node.name}'", node)
            tol = self.tols[node.name]
            return _scalar(tol.dim), ev.const(tol.value)
        if isinstance(node, AxisRef):
            if node.name not in ev.AXIS_VECS:
                return self.issue(f"unknown axis '{node.name}'", node)
            return _VEC, ev.const(ev.AXIS_VECS[node.name])
        if isinstance(node, ElemRef):
            if node.eid not in self.ring.spans:
                return self.issue(f"element e({node.eid}) is not in the bound element set", node)
            return ("elem", node.eid), node.eid
        if isinstance(node, ElemList):
            for eid in node.eids:
                if eid not in self.ring.spans:
                    self.issue(f"element e({eid}) is not in the bound element set", node)
            return ("elemlist", node.eids), node.eids
        if isinstance(node, At):
            if isinstance(node.expr, (ElemRef, ElemList)):
                # builtins read an element's points at their own offset, so a
                # shift around the reference itself would be ignored
                return self.issue(
                    f"at() cannot shift an element reference; wrap the builtin instead, "
                    f"e.g. at(centroid(e(0)), {node.ticks})",
                    node,
                )
            self.back += node.ticks
            self.reach = max(self.reach, self.back)
            compiled = self.compile(node.expr)
            self.back -= node.ticks
            return compiled
        if isinstance(node, Unary):
            t, f = self.compile(node.operand)
            if t == _ERR:
                return _ERR, None
            if node.op == "not":
                if t != _BOOL:
                    return self.issue("'not' needs a boolean operand", node)
                return _BOOL, ev.unary("not", f)
            if t == _VEC or t[0] == "scalar":
                return t, ev.unary("-", f)
            return self.issue("unary '-' needs a scalar or vector", node)
        if isinstance(node, BinOp):
            return self._binop(node)
        if isinstance(node, Within):
            return self._within(node)
        if isinstance(node, IfElse):
            return self._if_else(node)
        if isinstance(node, Call):
            return self._call(node)
        return self.issue(f"unknown node {type(node).__name__}", node)

    def _if_else(self, node: IfElse):
        tc, fc = self.compile(node.cond)
        if tc not in (_BOOL, _ERR):
            self.issue("if-condition must be boolean", node.cond)
        tt, ft = self.compile(node.then)
        te, fe = self.compile(node.other)
        if _ERR in (tt, te):
            return _ERR, None
        if tt[0] == "scalar" and te[0] == "scalar":
            dim = _join_dims(tt[1], te[1])
            if dim is None:
                return self.issue("if-branches have incompatible units", node)
            t = _scalar(dim)
        elif tt != te:
            return self.issue("if-branches have different types", node)
        else:
            t = tt
        self.branches += [("if.cond", fc), ("if.then", ft), ("if.else", fe)]
        return t, ev.if_else(fc, ft, fe)

    def _binop(self, node: BinOp):
        op = node.op
        (lt, lf), (rt, rf) = self.compile(node.lhs), self.compile(node.rhs)
        if _ERR in (lt, rt):
            return _ERR, None
        scalars = lt[0] == "scalar" and rt[0] == "scalar"
        if op in ("and", "or"):
            if lt != _BOOL or rt != _BOOL:
                return self.issue(f"'{op}' needs boolean operands", node)
            t = _BOOL
        elif op in ("+", "-"):
            if lt == _VEC and rt == _VEC:
                t = _VEC
            elif not scalars:
                return self.issue(f"'{op}' needs two scalars or two vectors", node)
            elif _join_dims(lt[1], rt[1]) is None:
                return self.issue(f"cannot {op} {lt[1]} and {rt[1]}", node)
            else:
                t = _scalar(_join_dims(lt[1], rt[1]))
        elif op == "*":
            if not scalars:
                return self.issue("'*' needs scalar operands", node)
            if lt[1] != "none" and rt[1] != "none":
                return self.issue("products of two dimensioned values are not supported", node)
            t = _scalar(_join_dims(lt[1], rt[1]))
        elif op == "/":
            if not scalars:
                return self.issue("'/' needs scalar operands", node)
            if lt[1] != rt[1] and rt[1] != "none":
                return self.issue(f"cannot divide {lt[1]} by {rt[1]}", node)
            t = _scalar("none" if lt[1] == rt[1] else lt[1])
        elif op not in ("<", "<=", ">", ">=", "="):
            return self.issue(f"unknown operator '{op}'", node)
        elif not scalars:
            return self.issue(f"'{op}' compares scalars only", node)
        elif _join_dims(lt[1], rt[1]) is None:
            return self.issue(f"cannot compare {lt[1]} with {rt[1]}", node)
        else:
            t = _BOOL
        return t, ev.binop(op, lf, rf)

    def _within(self, node: Within):
        (lt, lf), (tt, tf), (rt, rf) = self.compile(node.lhs), self.compile(node.tol), self.compile(node.rhs)
        if _ERR in (lt, tt, rt):
            return _ERR, None
        if tt[0] != "scalar":
            return self.issue("within-tolerance must be a scalar", node)
        if lt == _VEC and rt == _VEC:
            if _join_dims(tt[1], "len") is None:
                return self.issue("vector within needs a length tolerance", node)
        elif lt[0] == "scalar" and rt[0] == "scalar":
            dim = _join_dims(lt[1], rt[1])
            if dim is None or _join_dims(tt[1], dim) is None:
                return self.issue("within operands/tolerance have incompatible units", node)
        else:
            return self.issue("within needs two scalars or two vectors", node)
        self.scalar_fns.add("within")
        return _BOOL, ev.within(lf, tf, rf, lt == _VEC, self.measured)

    def _call(self, node: Call):
        spec = BUILTINS.get(node.fn)
        if spec is None:
            return self.issue(f"unknown builtin '{node.fn}'", node)
        arg_spec, result = spec
        if len(node.args) != len(arg_spec):
            return self.issue(
                f"{node.fn} takes {len(arg_spec)} argument(s), got {len(node.args)}", node
            )
        n_issues = len(self.issues)
        elem_args = []
        args = []
        for want, arg in zip(arg_spec, node.args):
            if want in ("intlit", "ticks"):
                if not (isinstance(arg, Num) and arg.dim == "none" and arg.value == int(arg.value) and arg.value >= 0):
                    self.issue(f"{node.fn} needs a non-negative integer literal here", node)
                    continue
                if want == "ticks":
                    self.reach = max(self.reach, self.back + int(arg.value))
                args.append(int(arg.value))
                continue
            got, f = self.compile(arg)
            if got == _ERR:
                return _ERR, None
            args.append(f)
            if want == "elem":
                if got[0] != "elem":
                    self.issue(f"{node.fn} needs an element reference", node)
                else:
                    elem_args.append(got[1])
            elif want == "vec":
                if got != _VEC:
                    self.issue(f"{node.fn} needs a vector argument", node)
            elif want == "box":
                if got != _BOX:
                    self.issue(f"{node.fn} needs a box argument", node)
            elif want == "elemlist":
                if got[0] != "elemlist":
                    self.issue(f"{node.fn} needs an element list", node)
            elif isinstance(want, tuple) and want[0] == "scalar":
                if got[0] != "scalar" or _join_dims(got[1], want[1]) is None:
                    self.issue(f"{node.fn} needs a {want[1]} scalar here", node)
        if elem_args:
            eid = elem_args[0]
            kind = self.ring.kind_of(eid)
            allowed = ELEMENT_KINDS.get(node.fn, (kind,))
            if kind not in allowed:
                wanted = " or ".join(k.upper() for k in allowed)
                self.issue(f"{node.fn} requires {wanted}, e({eid}) is {kind.upper()}", node)
            if node.fn == "pos" and isinstance(node.args[1], Num):
                idx = int(node.args[1].value)
                if idx >= len(self.ring.points_at(eid, 0)):
                    self.issue(f"pos index {idx} out of range for e({eid})", node)
        measured = None
        if isinstance(result, tuple) and result[0] == "scalar":
            self.scalar_fns.add(node.fn)
            t, measured = result, self.measured
        else:
            t = {"vec": _VEC, "box": _BOX}.get(result, _BOOL)
        if len(self.issues) > n_issues:
            return t, None
        compiled = ev.call(node.fn, self.ring, self.back, args, measured)
        if node.fn in ("box", "vec") and all(map(_is_literal, node.args)):
            return t, ev.const(ev.frozen(compiled()))
        return t, compiled


def _is_literal(node) -> bool:
    """A number, a tolerance or a negated number: a value fixed at compile
    time."""
    if isinstance(node, Unary) and node.op == "-":
        return isinstance(node.operand, Num)
    return isinstance(node, (Num, TolRef))


def typecheck(program: MonitorProgram, ring) -> CompiledProgram:
    """Check a program against a point ring and compile it onto that ring.

    The result's `issues` lists every TypeIssue (empty means ok); only then
    may it be evaluated. The history reach (largest sum of at() shifts and
    displacement/rotation ticks on a path) must be below the ring capacity:
    beyond it history clamps, so the meaning would depend on the capacity."""
    checker = _Checker(program, ring)
    body_type, body = checker.compile(program.body)
    if body_type not in (_BOOL, _ERR):
        checker.issue("program body must evaluate to a boolean", program.body)
    if checker.reach >= ring.capacity:
        checker.issue(f"reaches {checker.reach} ticks back, ring capacity {ring.capacity}", program.body)
    known = checker.scalar_fns | set(checker.tols)
    for name in _PLACEHOLDER_RE.findall(program.reason_template):
        if name not in known:
            checker.issues.append(
                TypeIssue(
                    f"reason placeholder {{{name}}} matches no measured builtin or tolerance",
                    program.reason_template,
                )
            )
    return CompiledProgram(
        cid=program.cid,
        mode=program.mode,
        reason_template=program.reason_template,
        issues=checker.issues,
        body=None if checker.issues else body,
        branches=tuple(checker.branches),
        tolerances={name: t.value for name, t in checker.tols.items()},
        measured=checker.measured,
    )


def whitebox_validate(program: CompiledProgram) -> None:
    """Path-coverage validation of a compiled program against its ring, which
    holds the subgoal's first-tick state.

    Calls the cond, then and else closure of every conditional, then the
    body, and requires that none errors; a DURING program must additionally
    be satisfied on this state (violated-before-motion means bad program or
    bad elements). Raises ValidationFailure; returns None when the program
    is good to load.
    """
    try:
        for label, branch in program.branches:
            try:
                branch()
            except EvalError as err:
                raise EvalError(f"{label}: {err}") from err
        program.body()
    except EvalError as err:
        raise ValidationFailure("branch coverage", err) from err
    if program.mode is Mode.DURING and not evaluate(program):
        raise ValidationFailure("during constraint false at subgoal start", fail_reason(program))
