"""Tiny expression grammar for command-line function arguments.

Supported: x, the staircase value S(x), numeric literals, pi, e, + - * /, a
right-associative ^ that binds tighter than a unary sign (-x^2 is -(x^2)),
parentheses, and exp, sin, cos. Python's parser reads the text, ^ as **, and
one walk over its tree accepts only these nodes, each as a closure: Python
evaluates nothing. A tree more than 200 levels deep is refused. x is a float
everywhere except as the bare argument of S: ``S(x)`` gets x unchanged, so an
exact quantile reaches the staircase exactly.
"""

from __future__ import annotations

import ast
import math
import operator
import re
from dataclasses import dataclass

from .exceptions import DomainError


class ExprError(ValueError):
    """Raised when an expression fails to parse or evaluate."""


_FOREIGN = re.compile(r"[^0-9A-Za-z_.+\-*/^()\s]|\*\*")  # ^ is the only power
_NUMBER = re.compile(r"(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?")
_FUNCTIONS = {"exp": math.exp, "sin": math.sin, "cos": math.cos}
_CONSTANTS = {"pi": math.pi, "e": math.e}
_MAX_DEPTH = 200  # as deep as Python's parser nests parentheses


def _power(base, exponent):
    if isinstance(value := base**exponent, complex):
        raise DomainError(f"negative base {base} raised to the non-integer power {exponent}")
    return value


_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
           ast.Div: operator.truediv, ast.Pow: _power}


@dataclass(frozen=True)
class ParsedExpr:
    """Callable expression; needs a staircase only when it references S.

    ``x_outside_staircase``: x appears outside ``S(...)``, so the expression
    can be smooth in x but not in S(x). ``x_in_staircase_expression``: some
    ``S(...)`` takes an argument that depends on x but is not x itself, such as
    ``S(x^2)``; the staircase of anything but x is not smooth in S(x).
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


def parse_expression(text: str) -> ParsedExpr:
    if foreign := _FOREIGN.search(text):
        raise ExprError(f"unexpected {foreign.group()!r} in {text!r}")
    source = " ".join(text.split()).replace("^", "**")
    try:
        tree = ast.parse(source, mode="eval")
    except SyntaxError as exc:
        raise ExprError(f"cannot parse {text!r}: {exc.msg}") from None
    except (RecursionError, MemoryError):
        raise ExprError(f"expression nests deeper than {_MAX_DEPTH} levels") from None
    # the walk and the closures it builds recurse once per level
    stack = [(tree.body, 1)]
    while stack:
        node, depth = stack.pop()
        if depth > _MAX_DEPTH:
            raise ExprError(f"expression nests deeper than {_MAX_DEPTH} levels")
        stack.extend((child, depth + 1) for child in ast.iter_child_nodes(node))
    seen = set()  # "S"; "x" outside S; "x in S": x in an argument of S other than x

    def walk(node, in_s):
        if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
            op, lhs, rhs = _BINARY[type(node.op)], walk(node.left, in_s), walk(node.right, in_s)
            return lambda x, sf: op(lhs(x, sf), rhs(x, sf))
        if isinstance(node, ast.UnaryOp) and type(node.op) in (ast.UAdd, ast.USub):
            inner = walk(node.operand, in_s)
            return inner if type(node.op) is ast.UAdd else lambda x, sf: -inner(x, sf)
        literal = ast.get_source_segment(source, node)
        if literal == "x":
            if not in_s:
                seen.add("x")
            return _variable
        if literal in _CONSTANTS or isinstance(node, ast.Constant) and _NUMBER.fullmatch(literal):
            value = _CONSTANTS[literal] if literal in _CONSTANTS else float(literal)
            return lambda x, sf: value
        # a bare name (not "(exp)(x)") called on one positional argument
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and len(node.args) == 1
                and not node.keywords and node.func.col_offset == node.col_offset):
            if node.func.id == "S":
                seen.add("S")
                inner = walk(node.args[0], True)
                if inner is _variable:
                    return lambda x, sf: sf.eval(x)
                if any(getattr(n, "id", None) == "x" for n in ast.walk(node.args[0])):
                    seen.add("x in S")
                return lambda x, sf: sf.eval(inner(x, sf))
            if node.func.id in _FUNCTIONS:
                fn, inner = _FUNCTIONS[node.func.id], walk(node.args[0], in_s)
                return lambda x, sf: fn(inner(x, sf))
        raise ExprError(f"unsupported {literal.replace('**', '^')!r} in {text!r}")

    evaluator = walk(tree.body, False)
    return ParsedExpr(text, evaluator, "S" in seen, "x" in seen, "x in S" in seen)
