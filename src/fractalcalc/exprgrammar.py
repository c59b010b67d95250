"""Tiny expression grammar for command-line function arguments.

Supported: the variable x, the staircase value S(x), numeric literals, the
named constants pi and e, the operators + - * / ^ (right-associative power),
unary sign, parentheses, and the functions exp, sin, cos.

x is used as a float everywhere except as the bare argument of S: ``S(x)``
gets x unchanged, so an exact quantile output reaches the staircase exactly
instead of through a float.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass


class ExprError(ValueError):
    """Raised when an expression fails to parse or evaluate."""


_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)

_FUNCTIONS = {"exp": math.exp, "sin": math.sin, "cos": math.cos}
_CONSTANTS = {"pi": math.pi, "e": math.e}


def _tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ExprError(f"unexpected character {text[pos:].lstrip()[0]!r}")
        if m.group("num") is not None:
            tokens.append(m.group(0).strip())
        else:
            tokens.append(m.group("name") or m.group("op"))
        pos = m.end()
    return tokens


@dataclass(frozen=True)
class ParsedExpr:
    """Callable expression; needs a staircase only when it references S.

    ``x_outside_staircase`` says whether x appears anywhere but inside
    ``S(...)``, i.e. whether the expression can be smooth in x but not in S(x).
    ``x_in_staircase_expression`` says whether some ``S(...)`` takes an
    argument that depends on x but is not x itself, such as ``S(x^2)``: the
    staircase of anything but x is not a smooth function of S(x).
    """

    source: str
    _eval: object
    uses_staircase: bool
    x_outside_staircase: bool
    x_in_staircase_expression: bool

    def __call__(self, x, sf=None) -> float:
        if self.uses_staircase and sf is None:
            raise ExprError("expression references S(x) but no staircase given")
        return self._eval(x, sf)


def _variable(x, sf):
    return float(x)


class _Parser:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0
        self.uses_staircase = False
        self.x_outside_staircase = False
        self.x_in_staircase_expression = False
        self.x_uses = 0
        self.staircase_nesting = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ExprError("unexpected end of expression")
        self.pos += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.take()
        if got != tok:
            raise ExprError(f"expected {tok!r}, got {got!r}")

    def parse(self):
        node = self.expr()
        if self.peek() is not None:
            raise ExprError(f"trailing input at {self.peek()!r}")
        return node

    def expr(self):
        node = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            node = self._binary(op, node, rhs)
        return node

    def term(self):
        node = self.factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.factor()
            node = self._binary(op, node, rhs)
        return node

    def factor(self):
        node = self.unary()
        if self.peek() == "^":
            self.take()
            rhs = self.factor()
            node = self._binary("^", node, rhs)
        return node

    def unary(self):
        if self.peek() in ("+", "-"):
            op = self.take()
            inner = self.unary()
            if op == "-":
                return lambda x, sf: -inner(x, sf)
            return inner
        return self.atom()

    def atom(self):
        tok = self.take()
        if tok == "(":
            node = self.expr()
            self.expect(")")
            return node
        if re.fullmatch(r"(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?", tok):
            value = float(tok)
            return lambda x, sf: value
        if tok == "x":
            self.x_uses += 1
            if not self.staircase_nesting:
                self.x_outside_staircase = True
            return _variable
        if tok == "S":
            self.expect("(")
            self.staircase_nesting += 1
            x_uses = self.x_uses
            inner = self.expr()
            self.staircase_nesting -= 1
            self.expect(")")
            self.uses_staircase = True
            if inner is _variable:
                return lambda x, sf: sf.eval(x)
            if self.x_uses > x_uses:
                self.x_in_staircase_expression = True
            return lambda x, sf: sf.eval(inner(x, sf))
        if tok in _FUNCTIONS:
            fn = _FUNCTIONS[tok]
            self.expect("(")
            inner = self.expr()
            self.expect(")")
            return lambda x, sf: fn(inner(x, sf))
        if tok in _CONSTANTS:
            value = _CONSTANTS[tok]
            return lambda x, sf: value
        raise ExprError(f"unknown token {tok!r}")

    @staticmethod
    def _binary(op: str, lhs, rhs):
        if op == "+":
            return lambda x, sf: lhs(x, sf) + rhs(x, sf)
        if op == "-":
            return lambda x, sf: lhs(x, sf) - rhs(x, sf)
        if op == "*":
            return lambda x, sf: lhs(x, sf) * rhs(x, sf)
        if op == "/":
            return lambda x, sf: lhs(x, sf) / rhs(x, sf)
        return lambda x, sf: lhs(x, sf) ** rhs(x, sf)


def parse_expression(text: str) -> ParsedExpr:
    if not text or not text.strip():
        raise ExprError("empty expression")
    parser = _Parser(_tokenize(text))
    evaluator = parser.parse()
    return ParsedExpr(
        text,
        evaluator,
        parser.uses_staircase,
        parser.x_outside_staircase,
        parser.x_in_staircase_expression,
    )
