"""AST for the monitor DSL.

A program is one constraint expression with a mode (checked every tick
during a subgoal, or held upon its completion), named tolerance bindings,
and a failure-reason template. Nodes are frozen dataclasses so structural
equality is plain ==.

Units: surface syntax accepts m/cm/mm, rad/deg, count. Values are converted
to SI (meters, radians) at parse time and every dimension is tracked as one
of "len", "ang", "count", "none".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

__all__ = [
    "Mode",
    "Num",
    "TolRef",
    "AxisRef",
    "ElemRef",
    "ElemList",
    "Call",
    "At",
    "Unary",
    "BinOp",
    "Within",
    "IfElse",
    "ToleranceDecl",
    "MonitorProgram",
    "UNITS",
    "CANONICAL_UNIT",
    "BUILTINS",
    "AXES",
    "ELEMENT_KINDS",
]


class Mode(str, Enum):
    DURING = "during"
    ON_COMPLETION = "on_completion"


# unit name -> (dimension, factor to SI)
UNITS = {
    "m": ("len", 1.0),
    "cm": ("len", 0.01),
    "mm": ("len", 0.001),
    "rad": ("ang", 1.0),
    "deg": ("ang", math.pi / 180.0),
    "count": ("count", 1.0),
}

CANONICAL_UNIT = {"len": "m", "ang": "rad", "count": "count"}

AXES = ("axis_x", "axis_y", "axis_z")

# builtin name -> (argument spec, result kind); argument/result kinds are
# checked in conlang.check, this table also freezes the callable vocabulary.
# An "intlit" is a non-negative integer literal; "ticks" is one that reaches
# that many ticks into the element history.
BUILTINS = {
    "pos": (("elem", "intlit"), "vec"),
    "centroid": (("elem",), "vec"),
    "normal": (("elem",), "vec"),
    "dir": (("elem",), "vec"),
    "dist": (("vec", "vec"), ("scalar", "len")),
    "angle": (("vec", "vec"), ("scalar", "ang")),
    "proj_xy": (("vec",), "vec"),
    "displacement": (("elem", "ticks"), ("scalar", "len")),
    "rotation": (("elem", "ticks"), ("scalar", "ang")),
    "count_within": (("elemlist", "box"), ("scalar", "count")),
    "inside": (("vec", "box"), "bool"),
    "above": (("vec", "vec", ("scalar", "len")), "bool"),
    "vec": ((("scalar", "len"), ("scalar", "len"), ("scalar", "len")), "vec"),
    "box": (tuple([("scalar", "len")] * 6), "box"),
}

# builtin -> element kinds its element argument may have; conlang.check
# rejects any other kind before load, so evaluation never sees one
ELEMENT_KINDS = {"normal": ("surface",), "dir": ("line",), "rotation": ("line", "surface")}


@dataclass(frozen=True)
class Num:
    value: float  # SI
    dim: str = "none"


@dataclass(frozen=True)
class TolRef:
    name: str


@dataclass(frozen=True)
class AxisRef:
    name: str


@dataclass(frozen=True)
class ElemRef:
    eid: int


@dataclass(frozen=True)
class ElemList:
    eids: tuple


@dataclass(frozen=True)
class Call:
    fn: str
    args: tuple


@dataclass(frozen=True)
class At:
    expr: object
    ticks: int


@dataclass(frozen=True)
class Unary:
    op: str  # "-" or "not"
    operand: object


@dataclass(frozen=True)
class BinOp:
    op: str  # + - * / and or < <= > >= =
    lhs: object
    rhs: object


@dataclass(frozen=True)
class Within:
    lhs: object
    tol: object
    rhs: object


@dataclass(frozen=True)
class IfElse:
    cond: object
    then: object
    other: object


@dataclass(frozen=True)
class ToleranceDecl:
    name: str
    value: float  # SI
    dim: str


@dataclass(frozen=True)
class MonitorProgram:
    name: str
    mode: Mode
    tolerances: tuple
    body: object
    reason_template: str
    cid: str = ""


# ---------------------------------------------------------------------------
# canonical printer

_PREC = {
    "if": 1,
    "or": 2,
    "and": 3,
    "not": 4,
    "cmp": 5,
    "+": 6,
    "-": 6,
    "*": 7,
    "/": 7,
    "neg": 8,
    "atom": 9,
}

_CMP_OPS = ("<", "<=", ">", ">=", "=")


def _fmt_num(n: Num) -> str:
    if n.dim == "none":
        return repr(n.value)
    return f"{repr(n.value)} {CANONICAL_UNIT[n.dim]}"


def _print(node, parent_prec: int) -> str:
    if isinstance(node, Num):
        text, prec = _fmt_num(node), _PREC["atom"]
        if node.value < 0:
            prec = _PREC["neg"]
    elif isinstance(node, TolRef):
        text, prec = node.name, _PREC["atom"]
    elif isinstance(node, AxisRef):
        text, prec = node.name, _PREC["atom"]
    elif isinstance(node, ElemRef):
        text, prec = f"e({node.eid})", _PREC["atom"]
    elif isinstance(node, ElemList):
        text = "[" + ", ".join(f"e({i})" for i in node.eids) + "]"
        prec = _PREC["atom"]
    elif isinstance(node, Call):
        text = f"{node.fn}(" + ", ".join(_print(a, 0) for a in node.args) + ")"
        prec = _PREC["atom"]
    elif isinstance(node, At):
        text, prec = f"at({_print(node.expr, 0)}, {node.ticks})", _PREC["atom"]
    elif isinstance(node, Unary):
        if node.op == "not":
            text, prec = f"not {_print(node.operand, _PREC['not'])}", _PREC["not"]
        else:
            text, prec = f"-{_print(node.operand, _PREC['neg'])}", _PREC["neg"]
    elif isinstance(node, BinOp):
        if node.op in _CMP_OPS:
            # comparisons are non-associative: parenthesize nested comparisons
            prec = _PREC["cmp"]
            text = f"{_print(node.lhs, prec + 1)} {node.op} {_print(node.rhs, prec + 1)}"
        else:
            prec = _PREC[node.op]
            # left associative: right child needs strictly higher precedence
            text = f"{_print(node.lhs, prec)} {node.op} {_print(node.rhs, prec + 1)}"
    elif isinstance(node, Within):
        prec = _PREC["cmp"]
        text = (
            f"{_print(node.lhs, prec + 1)} within {_print(node.tol, prec + 1)}"
            f" of {_print(node.rhs, prec + 1)}"
        )
    elif isinstance(node, IfElse):
        prec = _PREC["if"]
        text = (
            f"if {_print(node.cond, prec)} then {_print(node.then, prec)}"
            f" else {_print(node.other, prec)}"
        )
    else:
        raise TypeError(f"unknown AST node {type(node).__name__}")
    if prec < parent_prec:
        return f"({text})"
    return text
