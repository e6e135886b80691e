"""Static type/unit checking and white-box validation of monitor programs.

Both run on the tracker's point ring. typecheck verifies element references,
builtin arities and argument kinds (ast.ELEMENT_KINDS), unit consistency (an
angle is never compared to meters), that the body is boolean, that at()
shifts a builtin rather than a bare element reference, and that the history
reach stays below the ring's capacity. Issues come back in-band.

whitebox_validate exercises every conditional branch against the subgoal's
first-tick state; any runtime error on any path, or a during-constraint that
is already false before motion starts, fails validation so the caller can
regenerate the program.
"""

from __future__ import annotations

from dataclasses import dataclass

from camlab.errors import CamlabError
from camlab.conlang.ast import (
    BUILTINS,
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
    kind_mismatch,
)
from camlab.conlang.evaluator import EvalError, evaluate, forced_walk, _PLACEHOLDER_RE

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
    def __init__(self, program: MonitorProgram, ring):
        self.ring = ring
        self.tols = {t.name: t.dim for t in program.tolerances}
        self.issues: list = []
        self.scalar_fns: set = set()
        self.back = 0  # history offset of the node being checked
        self.reach = 0  # largest history offset seen

    def issue(self, message: str, node):
        self.issues.append(TypeIssue(message, _print(node, 0)))
        return _ERR

    def type_of(self, node):
        if isinstance(node, Num):
            return _scalar(node.dim)
        if isinstance(node, TolRef):
            if node.name not in self.tols:
                return self.issue(f"unbound tolerance '{node.name}'", node)
            return _scalar(self.tols[node.name])
        if isinstance(node, AxisRef):
            return _VEC
        if isinstance(node, ElemRef):
            if node.eid not in self.ring.spans:
                return self.issue(f"element e({node.eid}) is not in the bound element set", node)
            return ("elem", node.eid)
        if isinstance(node, ElemList):
            for eid in node.eids:
                if eid not in self.ring.spans:
                    self.issue(f"element e({eid}) is not in the bound element set", node)
            return ("elemlist", node.eids)
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
            t = self.type_of(node.expr)
            self.back -= node.ticks
            return t
        if isinstance(node, Unary):
            t = self.type_of(node.operand)
            if t == _ERR:
                return _ERR
            if node.op == "not":
                if t != _BOOL:
                    return self.issue("'not' needs a boolean operand", node)
                return _BOOL
            if t == _VEC or t[0] == "scalar":
                return t
            return self.issue("unary '-' needs a scalar or vector", node)
        if isinstance(node, BinOp):
            return self._binop(node)
        if isinstance(node, Within):
            return self._within(node)
        if isinstance(node, IfElse):
            tc = self.type_of(node.cond)
            if tc not in (_BOOL, _ERR):
                self.issue("if-condition must be boolean", node.cond)
            tt = self.type_of(node.then)
            te = self.type_of(node.other)
            if _ERR in (tt, te):
                return _ERR
            if tt[0] == "scalar" and te[0] == "scalar":
                dim = _join_dims(tt[1], te[1])
                if dim is None:
                    return self.issue("if-branches have incompatible units", node)
                return _scalar(dim)
            if tt != te:
                return self.issue("if-branches have different types", node)
            return tt
        if isinstance(node, Call):
            return self._call(node)
        return self.issue(f"unknown node {type(node).__name__}", node)

    def _binop(self, node: BinOp):
        op = node.op
        lt = self.type_of(node.lhs)
        rt = self.type_of(node.rhs)
        if _ERR in (lt, rt):
            return _ERR
        if op in ("and", "or"):
            if lt != _BOOL or rt != _BOOL:
                return self.issue(f"'{op}' needs boolean operands", node)
            return _BOOL
        if op in ("+", "-"):
            if lt == _VEC and rt == _VEC:
                return _VEC
            if lt[0] == "scalar" and rt[0] == "scalar":
                dim = _join_dims(lt[1], rt[1])
                if dim is None:
                    return self.issue(f"cannot {op} {lt[1]} and {rt[1]}", node)
                return _scalar(dim)
            return self.issue(f"'{op}' needs two scalars or two vectors", node)
        if op == "*":
            if lt[0] == "scalar" and rt[0] == "scalar":
                if lt[1] != "none" and rt[1] != "none":
                    return self.issue("products of two dimensioned values are not supported", node)
                return _scalar(_join_dims(lt[1], rt[1]))
            return self.issue("'*' needs scalar operands", node)
        if op == "/":
            if lt[0] == "scalar" and rt[0] == "scalar":
                if lt[1] == rt[1]:
                    return _scalar("none")
                if rt[1] == "none":
                    return _scalar(lt[1])
                return self.issue(f"cannot divide {lt[1]} by {rt[1]}", node)
            return self.issue("'/' needs scalar operands", node)
        # comparisons
        if lt[0] == "scalar" and rt[0] == "scalar":
            if _join_dims(lt[1], rt[1]) is None:
                return self.issue(f"cannot compare {lt[1]} with {rt[1]}", node)
            return _BOOL
        return self.issue(f"'{op}' compares scalars only", node)

    def _within(self, node: Within):
        lt = self.type_of(node.lhs)
        tt = self.type_of(node.tol)
        rt = self.type_of(node.rhs)
        if _ERR in (lt, tt, rt):
            return _ERR
        if tt[0] != "scalar":
            return self.issue("within-tolerance must be a scalar", node)
        if lt == _VEC and rt == _VEC:
            if _join_dims(tt[1], "len") is None:
                return self.issue("vector within needs a length tolerance", node)
            return _BOOL
        if lt[0] == "scalar" and rt[0] == "scalar":
            dim = _join_dims(lt[1], rt[1])
            if dim is None or _join_dims(tt[1], dim) is None:
                return self.issue("within operands/tolerance have incompatible units", node)
            return _BOOL
        return self.issue("within needs two scalars or two vectors", node)

    def _call(self, node: Call):
        spec = BUILTINS.get(node.fn)
        if spec is None:
            return self.issue(f"unknown builtin '{node.fn}'", node)
        arg_spec, result = spec
        if len(node.args) != len(arg_spec):
            return self.issue(
                f"{node.fn} takes {len(arg_spec)} argument(s), got {len(node.args)}", node
            )
        elem_args = []
        for want, arg in zip(arg_spec, node.args):
            if want in ("intlit", "ticks"):
                if not (isinstance(arg, Num) and arg.dim == "none" and arg.value == int(arg.value) and arg.value >= 0):
                    self.issue(f"{node.fn} needs a non-negative integer literal here", node)
                elif want == "ticks":
                    self.reach = max(self.reach, self.back + int(arg.value))
                continue
            got = self.type_of(arg)
            if got == _ERR:
                return _ERR
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
            mismatch = kind_mismatch(node.fn, eid, self.ring.kind_of(eid))
            if mismatch:
                self.issue(mismatch, node)
            if node.fn == "pos" and isinstance(node.args[1], Num):
                idx = int(node.args[1].value)
                if idx >= len(self.ring.points_at(eid, 0)):
                    self.issue(f"pos index {idx} out of range for e({eid})", node)
        if isinstance(result, tuple) and result[0] == "scalar":
            self.scalar_fns.add(node.fn)
            return result
        if result == "vec":
            return _VEC
        if result == "box":
            return _BOX
        return _BOOL


def typecheck(program: MonitorProgram, ring) -> list:
    """Check a program against a point ring; returns a list of TypeIssue
    (empty means ok). The history reach (largest sum of at() shifts and
    displacement/rotation ticks on a path) must be below the ring capacity:
    beyond it history clamps, so the meaning would depend on the capacity."""
    checker = _Checker(program, ring)
    body_type = checker.type_of(program.body)
    if body_type not in (_BOOL, _ERR):
        checker.issue("program body must evaluate to a boolean", program.body)
    if checker.reach >= ring.capacity:
        checker.issue(f"reaches {checker.reach} ticks back, ring capacity {ring.capacity}", program.body)
    known = checker.scalar_fns | set(checker.tols) | {"within"}
    for name in _PLACEHOLDER_RE.findall(program.reason_template):
        if name not in known:
            checker.issues.append(
                TypeIssue(
                    f"reason placeholder {{{name}}} matches no measured builtin or tolerance",
                    program.reason_template,
                )
            )
    return checker.issues


def whitebox_validate(program: MonitorProgram, ctx) -> None:
    """Path-coverage validation against the subgoal's first-tick state
    (an evaluation context, see conlang.evaluator).

    Forces both branches of every conditional and requires that no path
    errors; a DURING program must additionally be satisfied on this state
    (violated-before-motion means bad program or bad elements). Raises
    ValidationFailure; returns None when the program is good to load.
    """
    try:
        value = forced_walk(program, ctx)
    except EvalError as err:
        raise ValidationFailure("branch coverage", err) from err
    if not isinstance(value, (bool,)) and value not in (True, False):
        raise ValidationFailure("branch coverage", f"body is {type(value).__name__}, not bool")
    if program.mode is Mode.DURING:
        ok, reason = evaluate(program, ctx)
        if not ok:
            raise ValidationFailure("during constraint false at subgoal start", reason)
