"""Lexer + recursive-descent parser for the monitor DSL.

Grammar (EBNF):

    program   := "constraint" STRING "mode" ("during" | "on_completion")
                 tolDecl* "{" expr "}" "fail" STRING
    tolDecl   := "tol" IDENT "=" NUMBER UNIT
    expr      := "if" expr "then" expr "else" expr | orExpr
    orExpr    := andExpr ("or" andExpr)*
    andExpr   := notExpr ("and" notExpr)*
    notExpr   := "not" notExpr | cmp
    cmp       := sum (("<" | "<=" | ">" | ">=" | "=") sum
                      | "within" sum "of" sum)?
    sum       := term (("+" | "-") term)*
    term      := factor (("*" | "/") factor)*
    factor    := "-" factor | atom
    atom      := NUMBER UNIT? | "e" "(" INT ")" | BUILTIN "(" args ")"
               | "at" "(" expr "," INT ")" | AXIS | TOLNAME
               | "(" expr ")" | "[" "e" "(" INT ")" ("," "e" "(" INT ")")* "]"

Numbers with a unit are converted to SI at parse time. Parse errors carry
line, column, and the expected-token set.

Nesting limit: an expression nests at most MAX_NESTING levels deep, counted
as the height of its syntax tree with each parenthesised group as one more
level. A leaf is one level; each operator, call, at(), if and parenthesis
adds one above its deepest operand. Operator chains build left-deep trees,
so `a + b + c` is three levels and a chain of n operands is n levels. A
deeper program raises DslSyntaxError, so parsing, checking and evaluating
it never run out of stack.
"""

from __future__ import annotations

import math
import re

from camlab.errors import CamlabError
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

__all__ = ["parse", "DslSyntaxError", "DuplicateTolerance", "MAX_NESTING"]

MAX_NESTING = 32

KEYWORDS = {
    "constraint",
    "mode",
    "during",
    "on_completion",
    "tol",
    "fail",
    "and",
    "or",
    "not",
    "if",
    "then",
    "else",
    "within",
    "of",
}

RESERVED = KEYWORDS | set(UNITS) | set(BUILTINS) | set(AXES) | {"e", "at"}


class DslSyntaxError(CamlabError):
    def __init__(self, line: int, col: int, expected, found: str):
        self.line = line
        self.col = col
        self.expected = tuple(expected) if not isinstance(expected, str) else (expected,)
        self.found = found
        exp = " or ".join(self.expected)
        super().__init__(f"line {line}, col {col}: expected {exp}, found {found}")


class DuplicateTolerance(CamlabError):
    pass


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r]+)
  | (?P<nl>\n)
  | (?P<comment>\#[^\n]*)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<number>\d+\.\d+(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<sym><=|>=|[{}()\[\],+\-*/<>=])
    """,
    re.VERBOSE,
)


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col

    def __repr__(self):
        return f"{self.kind}({self.text!r})"


def _lex(source: str):
    tokens = []
    line, col, pos = 1, 1, 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise DslSyntaxError(line, col, "a token", repr(source[pos]))
        kind = m.lastgroup
        text = m.group()
        if kind == "nl":
            line += 1
            col = 1
        elif kind in ("ws", "comment"):
            col += len(text)
        else:
            tokens.append(_Token(kind, text, line, col))
            col += len(text)
        pos = m.end()
    tokens.append(_Token("eof", "<eof>", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0
        self.tolerances: dict = {}
        self.open = 0  # levels entered and not yet left

    # The expression methods return (node, height): the height of the node's
    # tree as MAX_NESTING counts it.

    # -- token helpers

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, expected):
        tok = self.peek()
        raise DslSyntaxError(tok.line, tok.col, expected, tok.text)

    def expect(self, text: str) -> _Token:
        tok = self.peek()
        if tok.text != text:
            self.fail(f"'{text}'")
        return self.next()

    def expect_kind(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            self.fail(kind)
        return self.next()

    def at_text(self, text: str) -> bool:
        return self.peek().text == text

    def too_deep(self, tok: _Token):
        raise DslSyntaxError(tok.line, tok.col, f"an expression nested at most {MAX_NESTING} deep", tok.text)

    def level(self, tok: _Token, *heights: int) -> int:
        """The height of a node at `tok` over children of these heights."""
        height = 1 + max(heights)
        if height > MAX_NESTING:
            self.too_deep(tok)
        return height

    def nested(self, parse):
        """parse() one level further in, so the parser's own recursion stops
        at the limit (each level it enters adds one to the final height)."""
        self.open += 1
        if self.open > MAX_NESTING:
            self.too_deep(self.peek())
        result = parse()
        self.open -= 1
        return result

    # -- grammar

    def program(self, cid=None) -> MonitorProgram:
        self.expect("constraint")
        name = self.string()
        self.expect("mode")
        tok = self.peek()
        if tok.text == "during":
            mode = Mode.DURING
        elif tok.text == "on_completion":
            mode = Mode.ON_COMPLETION
        else:
            self.fail(("'during'", "'on_completion'"))
        self.next()
        decls = []
        while self.at_text("tol"):
            decls.append(self.tol_decl())
        self.expect("{")
        body, _ = self.expr()
        self.expect("}")
        self.expect("fail")
        template = self.string()
        if self.peek().kind != "eof":
            self.fail("end of program")
        return MonitorProgram(
            name=name,
            mode=mode,
            tolerances=tuple(decls),
            body=body,
            reason_template=template,
            cid=cid if cid is not None else name,
        )

    def string(self) -> str:
        tok = self.expect_kind("string")
        return tok.text[1:-1].replace('\\"', '"').replace("\\\\", "\\")

    def tol_decl(self) -> ToleranceDecl:
        self.expect("tol")
        tok = self.expect_kind("ident")
        name = tok.text
        if name in RESERVED:
            raise DslSyntaxError(tok.line, tok.col, "a fresh tolerance name", name)
        if name in self.tolerances:
            raise DuplicateTolerance(f"tolerance '{name}' declared twice")
        self.expect("=")
        sign = 1.0
        if self.at_text("-"):
            self.next()
            sign = -1.0
        num = self.expect_kind("number")
        unit_tok = self.expect_kind("ident")
        if unit_tok.text not in UNITS:
            raise DslSyntaxError(unit_tok.line, unit_tok.col, "a unit (m/cm/mm/rad/deg/count)", unit_tok.text)
        dim, factor = UNITS[unit_tok.text]
        value = sign * float(num.text) * factor
        # an infinite tolerance would silently make its comparison always true
        if not math.isfinite(value) or value < 0:
            raise DslSyntaxError(num.line, num.col, "a finite non-negative tolerance", num.text)
        decl = ToleranceDecl(name=name, value=value, dim=dim)
        self.tolerances[name] = decl
        return decl

    def expr(self):
        tok = self.peek()
        if tok.text == "if":
            self.next()
            cond, hc = self.nested(self.expr)
            self.expect("then")
            then, ht = self.nested(self.expr)
            self.expect("else")
            other, ho = self.nested(self.expr)
            return IfElse(cond, then, other), self.level(tok, hc, ht, ho)
        return self.or_expr()

    def chain(self, operand, ops):
        """operand (op operand)*, folded left as a BinOp chain."""
        node, height = operand()
        while self.peek().text in ops:
            tok = self.next()
            rhs, hr = operand()
            node, height = BinOp(tok.text, node, rhs), self.level(tok, height, hr)
        return node, height

    def or_expr(self):
        return self.chain(self.and_expr, ("or",))

    def and_expr(self):
        return self.chain(self.not_expr, ("and",))

    def not_expr(self):
        tok = self.peek()
        if tok.text == "not":
            self.next()
            operand, height = self.nested(self.not_expr)
            return Unary("not", operand), self.level(tok, height)
        return self.cmp()

    def cmp(self):
        node, height = self.sum()
        tok = self.peek()
        if tok.text in ("<", "<=", ">", ">=", "="):
            self.next()
            rhs, hr = self.sum()
            return BinOp(tok.text, node, rhs), self.level(tok, height, hr)
        if tok.text == "within":
            self.next()
            tol, ht = self.sum()
            self.expect("of")
            rhs, hr = self.sum()
            return Within(node, tol, rhs), self.level(tok, height, ht, hr)
        return node, height

    def sum(self):
        return self.chain(self.term, ("+", "-"))

    def term(self):
        return self.chain(self.factor, ("*", "/"))

    def factor(self):
        tok = self.peek()
        if tok.text == "-":
            self.next()
            operand, height = self.nested(self.factor)
            return Unary("-", operand), self.level(tok, height)
        return self.atom()

    def int_literal(self) -> int:
        tok = self.expect_kind("number")
        value = float(tok.text)
        if not math.isfinite(value) or value != int(value) or value < 0:
            raise DslSyntaxError(tok.line, tok.col, "a non-negative integer", tok.text)
        return int(value)

    def atom(self):
        tok = self.peek()
        if tok.kind == "number":
            self.next()
            value = float(tok.text)
            if not math.isfinite(value):
                raise DslSyntaxError(tok.line, tok.col, "a finite number", tok.text)
            nxt = self.peek()
            if nxt.kind == "ident" and nxt.text in UNITS:
                self.next()
                dim, factor = UNITS[nxt.text]
                return Num(value * factor, dim), 1
            return Num(value, "none"), 1
        if tok.text == "(":
            self.next()
            node, height = self.nested(self.expr)
            self.expect(")")
            return node, self.level(tok, height)
        if tok.text == "[":
            self.next()
            eids = [self.elem_ref().eid]
            while self.at_text(","):
                self.next()
                eids.append(self.elem_ref().eid)
            self.expect("]")
            return ElemList(tuple(eids)), 1
        if tok.kind == "ident":
            if tok.text == "e":
                return self.elem_ref(), 1
            if tok.text == "at":
                self.next()
                self.expect("(")
                inner, height = self.nested(self.expr)
                self.expect(",")
                ticks = self.int_literal()
                self.expect(")")
                return At(inner, ticks), self.level(tok, height)
            if tok.text in BUILTINS:
                self.next()
                self.expect("(")
                args = [self.nested(self.expr)]
                while self.at_text(","):
                    self.next()
                    args.append(self.nested(self.expr))
                self.expect(")")
                return Call(tok.text, tuple(a for a, _ in args)), self.level(tok, *(h for _, h in args))
            if tok.text in AXES:
                self.next()
                return AxisRef(tok.text), 1
            if tok.text in self.tolerances:
                self.next()
                return TolRef(tok.text), 1
            raise DslSyntaxError(
                tok.line, tok.col, "a declared tolerance, builtin, axis, or e(id)", tok.text
            )
        self.fail("an expression")

    def elem_ref(self) -> ElemRef:
        self.expect("e")
        self.expect("(")
        eid = self.int_literal()
        self.expect(")")
        return ElemRef(eid)


def parse(source: str, cid: str | None = None) -> MonitorProgram:
    """Parse DSL source into a MonitorProgram.

    Raises DslSyntaxError (with line/col/expected), also for an expression
    nested deeper than MAX_NESTING, or DuplicateTolerance.
    """
    return _Parser(_lex(source)).program(cid=cid)
