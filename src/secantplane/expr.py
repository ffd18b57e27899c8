"""Expressions in two variables: parser, evaluator, printer.

Grammar, lowest to highest precedence:

    expr    := term (('+' | '-') term)*            left-associative
    term    := unary (('*' | '/') unary)*          left-associative
    unary   := '-' unary | power
    power   := atom ('^' unary)?                   right-associative
    atom    := NUMBER | 'x' | 'y' | 'pi' | 'e'
             | FUNC '(' expr ')' | '(' expr ')'
    FUNC    := sin | cos | tan | exp | log | sqrt | abs
    NUMBER  := digits ('.' digits)? (('e'|'E') ('+'|'-')? digits)?   finite

``^`` binds tighter than unary minus, so ``-x^2`` is ``-(x^2)``. Implicit
multiplication is not supported, whitespace is insignificant, and ``log`` is
the natural logarithm.

Evaluation is strict binary64: out-of-domain operations (log of non-positive,
sqrt of negative, division by exact zero) and non-finite results raise
:class:`EvaluationError` carrying the offending node and the input point,
instead of letting NaN or infinity propagate.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from math import isfinite
from typing import Union

from .errors import EvaluationError, ParseError
from .geometry import Point2, ScalarField

FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt", "abs")
CONSTANTS = {"pi": math.pi, "e": math.e}
_BINOPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": operator.truediv, "^": math.pow}


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str  # 'x' or 'y'


@dataclass(frozen=True)
class Const:
    name: str  # 'pi' or 'e'


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expr"


Expr = Union[Num, Var, Const, Neg, BinOp, Call]


_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
      | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<op>\^|[-+*/()])
    """,
    re.VERBOSE,
)


def _byte_offset(source: str, pos: int) -> int:
    return len(source[:pos].encode("utf-8"))


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ParseError(_byte_offset(source, pos), "a number, name, or operator")
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.idx = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.idx]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def fail(self, expected: str) -> ParseError:
        kind, _, pos = self.peek()
        return ParseError(_byte_offset(self.source, pos), expected)

    def parse(self) -> Expr:
        node = self.expr()
        if self.peek()[0] != "end":
            raise self.fail("an operator or end of input")
        return node

    def expr(self) -> Expr:
        node = self.term()
        while self.peek()[1] in ("+", "-"):
            op = self.advance()[1]
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Expr:
        node = self.unary()
        while self.peek()[1] in ("*", "/"):
            op = self.advance()[1]
            node = BinOp(op, node, self.unary())
        return node

    def unary(self) -> Expr:
        if self.peek()[1] == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        node = self.atom()
        if self.peek()[1] == "^":
            self.advance()
            # exponent re-enters at unary, giving right associativity and
            # allowing x^-2
            return BinOp("^", node, self.unary())
        return node

    def atom(self) -> Expr:
        kind, text, _ = self.peek()
        if kind == "number":
            if not math.isfinite(float(text)):
                raise self.fail("a number literal within the binary64 range")
            self.advance()
            return Num(float(text))
        if kind == "name":
            if text in ("x", "y"):
                self.advance()
                return Var(text)
            if text in CONSTANTS:
                self.advance()
                return Const(text)
            if text in FUNCTIONS:
                self.advance()
                if self.peek()[1] != "(":
                    raise self.fail("'(' after function name")
                return Call(text, self.atom())
            raise self.fail("a variable (x, y), constant (pi, e), or function name")
        if text == "(":
            self.advance()
            node = self.expr()
            if self.peek()[1] != ")":
                raise self.fail("')'")
            self.advance()
            return node
        raise self.fail("an expression")


def parse(source: str) -> Expr:
    """Parse ``source`` into an expression tree.

    Raises:
        ParseError: with the byte offset of the failure and a description of
            what was expected there.
    """
    return _Parser(source).parse()


def _domain_error(message: str, node: Expr, point: Point2) -> EvaluationError:
    return EvaluationError(f"{message} at ({point.x}, {point.y})",
                           node=node, point=point)


def _finite(value: float, node: Expr, point: Point2) -> float:
    if not math.isfinite(value):
        raise _domain_error(f"non-finite result {value!r}", node, point)
    return value


def evaluate(e: Expr, p: Point2) -> float:
    """Evaluate the tree at a point with strict binary64 semantics."""
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        return p.x if e.name == "x" else p.y
    if isinstance(e, Const):
        return CONSTANTS[e.name]
    if isinstance(e, Neg):
        return -evaluate(e.operand, p)
    if isinstance(e, BinOp):
        left = evaluate(e.left, p)
        right = evaluate(e.right, p)
        try:
            value = _BINOPS[e.op](left, right)
        except ZeroDivisionError:
            raise _domain_error("division by zero", e, p) from None
        except (ValueError, OverflowError):
            # Only math.pow raises these; float +, -, * and / overflow to inf.
            raise _domain_error(f"invalid power {left!r} ^ {right!r}", e, p) from None
        return _finite(value, e, p)
    # Call
    arg = evaluate(e.arg, p)
    try:
        value = getattr(math, e.func)(arg) if e.func != "abs" else abs(arg)
    except (ValueError, OverflowError):
        raise _domain_error(f"{e.func} undefined for {arg!r}", e, p) from None
    return _finite(value, e, p)


def _compile(e: Expr) -> ScalarField:
    """One closure per node doing what :func:`evaluate` does at that node.

    A node whose own operation raises, or gives a non-finite result, returns
    ``evaluate`` of itself at the point instead: that raises the reference
    error, so every message is defined once, in :func:`evaluate`. Errors of
    child nodes propagate unchanged.
    """
    if isinstance(e, Num):
        value = e.value
        return lambda x, y: value
    if isinstance(e, Var):
        return (lambda x, y: x) if e.name == "x" else (lambda x, y: y)
    if isinstance(e, Const):
        value = CONSTANTS[e.name]
        return lambda x, y: value
    if isinstance(e, Neg):
        operand = _compile(e.operand)
        return lambda x, y: -operand(x, y)
    if isinstance(e, BinOp):
        op, left_of, right_of = _BINOPS[e.op], _compile(e.left), _compile(e.right)

        def binop(x, y):
            left = left_of(x, y)
            right = right_of(x, y)
            try:
                value = op(left, right)
            except (ZeroDivisionError, ValueError, OverflowError):
                value = math.nan
            return value if isfinite(value) else evaluate(e, Point2(x, y))
        return binop
    # Call
    func, arg_of = abs if e.func == "abs" else getattr(math, e.func), _compile(e.arg)

    def call(x, y):
        arg = arg_of(x, y)
        try:
            value = func(arg)
        except (ValueError, OverflowError):
            value = math.nan
        return value if isfinite(value) else evaluate(e, Point2(x, y))
    return call


def as_function(e: Expr) -> ScalarField:
    """Compile a tree into a plain ``f(x, y) -> float`` callable.

    The tree is compiled once into nested closures that do what
    :func:`evaluate` does, node for node: the same operations in the same
    order and the same domain checks. A failing node raises through
    :func:`evaluate`, so the errors are the same too.
    """
    run = _compile(e)

    def f(x, y):
        if not (isfinite(x) and isfinite(y)):
            Point2(x, y)   # raises for the first non-finite coordinate
        return run(x, y)
    return f


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}
_ATOM_PREC = 5


def _prec(e: Expr) -> int:
    if isinstance(e, BinOp):
        return _PREC[e.op]
    if isinstance(e, Neg):
        return _PREC["neg"]
    return _ATOM_PREC


def to_source(e: Expr) -> str:
    """Render a tree back to source that re-parses to an identical tree."""
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, (Var, Const)):
        return e.name
    if isinstance(e, Neg):
        inner = to_source(e.operand)
        if _prec(e.operand) < _PREC["neg"]:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(e, Call):
        return f"{e.func}({to_source(e.arg)})"
    mine = _PREC[e.op]
    left = to_source(e.left)
    right = to_source(e.right)
    if e.op == "^":
        # left operand must be an atom; exponent re-parses at unary level
        if _prec(e.left) <= mine:
            left = f"({left})"
        if _prec(e.right) < _PREC["neg"]:
            right = f"({right})"
    else:
        if _prec(e.left) < mine:
            left = f"({left})"
        if _prec(e.right) <= mine:
            right = f"({right})"
    return f"{left}{e.op}{right}"
