"""The monitor DSL: grammar, parser, checker, evaluator, threshold KB."""

from camlab.conlang.ast import (
    AXES,
    BUILTINS,
    UNITS,
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
    ToleranceDecl,
    TolRef,
    Unary,
    Within,
)
from camlab.conlang.check import TypeIssue, ValidationFailure, typecheck, whitebox_validate
from camlab.conlang.evaluator import CompiledProgram, EvalError, evaluate, format_measured
from camlab.conlang.kb import load_default_kb, loads_kb
from camlab.conlang.parser import MAX_NESTING, DslSyntaxError, DuplicateTolerance, parse

__all__ = [
    "AXES",
    "BUILTINS",
    "UNITS",
    "At",
    "AxisRef",
    "BinOp",
    "Call",
    "CompiledProgram",
    "DslSyntaxError",
    "DuplicateTolerance",
    "ElemList",
    "ElemRef",
    "EvalError",
    "IfElse",
    "MAX_NESTING",
    "Mode",
    "MonitorProgram",
    "Num",
    "TolRef",
    "ToleranceDecl",
    "TypeIssue",
    "Unary",
    "ValidationFailure",
    "Within",
    "evaluate",
    "format_measured",
    "load_default_kb",
    "loads_kb",
    "parse",
    "typecheck",
    "whitebox_validate",
]
