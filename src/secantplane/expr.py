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

The nodes' fields are public, so a tree may also be built by hand. Every
variable, constant, function and operator name is read from the module's
tables (``CONSTANTS``, ``FUNCTIONS`` and two private ones). A malformed node
raises :class:`EvaluationError` with ``node`` set to it, from
:func:`evaluate`, :func:`as_function` and :func:`to_source` alike: a name
that ``parse`` never builds, a ``Num`` whose value is not a ``float`` (an
``int``, a ``bool`` or a ``str`` included), or a value that is not a node.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from functools import partial
from math import isfinite
from typing import Callable, Union

from .errors import EvaluationError, ParseError
from .geometry import Point2, ScalarField

FUNCTIONS = {"sin": math.sin, "cos": math.cos, "tan": math.tan, "exp": math.exp,
             "log": math.log, "sqrt": math.sqrt, "abs": abs}
CONSTANTS = {"pi": math.pi, "e": math.e}
# Each variable's name and the coordinate of (x, y) it reads.
_VARIABLES = {"x": lambda x, y: x, "y": lambda x, y: y}
_BINOPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": operator.truediv, "^": math.pow}
# Binding strength, shared by the parser and the printer: levels 1 and 2 are
# the left-associative chains, "neg" is unary minus, and atoms bind tightest.
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}
_ATOM_PREC = 5

# The parser, the evaluator, the compiler and the printer each recurse once per
# nesting level. These build the error each raises for a tree nested beyond
# the interpreter's recursion limit.
_TOO_DEEP_TO_PARSE = partial(ParseError, 0, "an expression nested less deeply")
_TOO_DEEP_TO_EVALUATE = partial(EvaluationError, "expression nested too deeply to evaluate")
_TOO_DEEP_TO_PRINT = partial(EvaluationError, "expression nested too deeply to print")


def _within_depth(too_deep: Callable[[], ValueError], walk, *args):
    """``walk(*args)``, raising ``too_deep()`` instead of a ``RecursionError``."""
    try:
        return walk(*args)
    except RecursionError:
        raise too_deep() from None


def _lookup(table: dict, key, node: Expr):
    """``table[key]``: the variable, constant, function or operator that
    ``node`` names. A key that ``parse`` never puts there raises
    :class:`EvaluationError`, so a tree built by hand is checked too."""
    try:
        return table[key]
    except (KeyError, TypeError):
        raise EvaluationError(f"{type(node).__name__} {key!r} is not one of "
                              f"{', '.join(table)}", node=node) from None


def _num_value(node: Num) -> float:
    """The value of a ``Num``, which must be a float, as ``parse`` builds."""
    if type(node.value) is not float:
        raise EvaluationError(f"Num {node.value!r} is not a float", node=node)
    return node.value


def _not_a_node(value) -> EvaluationError:
    """The error for ``value``, found where a walker expects a node."""
    return EvaluationError(f"{type(value).__name__} is not an expression node", node=value)


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
        node = self.chain()
        if self.peek()[0] != "end":
            raise self.fail("an operator or end of input")
        return node

    def chain(self, level: int = 1) -> Expr:
        """A left-associative chain of the operators at ``level`` of ``_PREC``.
        Its operands are chains at the next level or, where the next level is
        unary minus ("neg"), unary expressions."""
        deeper = level + 1 < _PREC["neg"]
        node = self.chain(level + 1) if deeper else self.unary()
        while _PREC.get(self.peek()[1]) == level:
            op = self.advance()[1]
            node = BinOp(op, node, self.chain(level + 1) if deeper else self.unary())
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
            if text in _VARIABLES or text in CONSTANTS:
                self.advance()
                return (Var if text in _VARIABLES else Const)(text)
            if text in FUNCTIONS:
                self.advance()
                if self.peek()[1] != "(":
                    raise self.fail("'(' after function name")
                return Call(text, self.atom())
            raise self.fail(f"a variable ({', '.join(_VARIABLES)}), "
                            f"constant ({', '.join(CONSTANTS)}), or function name")
        if text == "(":
            self.advance()
            node = self.chain()
            if self.peek()[1] != ")":
                raise self.fail("')'")
            self.advance()
            return node
        raise self.fail("an expression")


def parse(source: str) -> Expr:
    """Parse ``source`` into an expression tree.

    Raises:
        ParseError: with the byte offset of the failure and a description of
            what was expected there. A source nested too deeply for the
            parser's recursion fails at offset 0.
    """
    return _within_depth(_TOO_DEEP_TO_PARSE, _Parser(source).parse)


def _domain_error(message: str, node: Expr, point: Point2) -> EvaluationError:
    return EvaluationError(f"{message} at ({point.x}, {point.y})",
                           node=node, point=point)


def _finite(value: float, node: Expr, point: Point2) -> float:
    if not math.isfinite(value):
        raise _domain_error(f"non-finite result {value!r}", node, point)
    return value


def evaluate(e: Expr, p: Point2) -> float:
    """Evaluate the tree at a point with strict binary64 semantics.

    Raises:
        EvaluationError: at a failing or malformed node (see the module
            docstring), at the root for a non-finite value that no operation
            made (a ``Num`` that ``parse`` never builds), or for a tree nested
            too deeply for the interpreter's recursion.
    """
    return _finite(_within_depth(_TOO_DEEP_TO_EVALUATE, _evaluate, e, p), e, p)


def _evaluate(e: Expr, p: Point2) -> float:
    if isinstance(e, Num):
        return _num_value(e)
    if isinstance(e, Var):
        return _lookup(_VARIABLES, e.name, e)(p.x, p.y)
    if isinstance(e, Const):
        return _lookup(CONSTANTS, e.name, e)
    if isinstance(e, Neg):
        return -_evaluate(e.operand, p)
    if isinstance(e, BinOp):
        # Looked up before the try: an EvaluationError is a ValueError.
        op = _lookup(_BINOPS, e.op, e)
        left = _evaluate(e.left, p)
        right = _evaluate(e.right, p)
        try:
            value = op(left, right)
        except ZeroDivisionError:
            raise _domain_error("division by zero", e, p) from None
        except (ValueError, OverflowError):
            # Only math.pow raises these; float +, -, * and / overflow to inf.
            raise _domain_error(f"invalid power {left!r} ^ {right!r}", e, p) from None
        return _finite(value, e, p)
    if not isinstance(e, Call):
        raise _not_a_node(e)
    func = _lookup(FUNCTIONS, e.func, e)
    arg = _evaluate(e.arg, p)
    try:
        value = func(arg)
    except (ValueError, OverflowError):
        raise _domain_error(f"{e.func} undefined for {arg!r}", e, p) from None
    return _finite(value, e, p)


# The operations that can turn an infinity or NaN operand into a finite
# result: 1/inf, 2^-inf, inf^0, 1^nan and exp(-inf). Every other operation
# passes inf and NaN on to its result, or raises.
_MAY_HIDE_NON_FINITE = {"/", "^", "exp"}


def _compile(e: Expr) -> ScalarField:
    """One closure per node doing the operation :func:`evaluate` does there.

    The closures check nothing. An operation in ``_MAY_HIDE_NON_FINITE``
    gives NaN for an operand that is not finite, so a node that
    :func:`evaluate` rejects makes the whole result non-finite, or raises.
    """
    if isinstance(e, (Num, Const)):
        value = _num_value(e) if isinstance(e, Num) else _lookup(CONSTANTS, e.name, e)
        return lambda x, y: value
    if isinstance(e, Var):
        return _lookup(_VARIABLES, e.name, e)
    if isinstance(e, Neg):
        operand = _compile(e.operand)
        return lambda x, y: -operand(x, y)
    if isinstance(e, BinOp):
        op, left_of, right_of = _lookup(_BINOPS, e.op, e), _compile(e.left), _compile(e.right)
        if e.op not in _MAY_HIDE_NON_FINITE:
            return lambda x, y: op(left_of(x, y), right_of(x, y))

        def guarded_binop(x, y):
            left, right = left_of(x, y), right_of(x, y)
            return op(left, right) if isfinite(left) and isfinite(right) else math.nan
        return guarded_binop
    if not isinstance(e, Call):
        raise _not_a_node(e)
    func, arg_of = _lookup(FUNCTIONS, e.func, e), _compile(e.arg)
    if e.func not in _MAY_HIDE_NON_FINITE:
        return lambda x, y: func(arg_of(x, y))

    def guarded_call(x, y):
        arg = arg_of(x, y)
        return func(arg) if isfinite(arg) else math.nan
    return guarded_call


def as_function(e: Expr) -> ScalarField:
    """Compile a tree into a plain ``f(x, y) -> float`` callable.

    The tree is compiled once into nested closures that do the operations of
    :func:`evaluate` in the same order, so every value is the same. The
    callable checks the result once: where an operation raised or the result
    is not finite, it returns :func:`evaluate` at the point, which raises the
    reference error of the first failing node.

    A malformed node (see the module docstring) raises
    :class:`EvaluationError` here, before any call. Compiling and evaluating recurse once per level of
    the tree, so a tree too deep for the interpreter's recursion limit raises
    :class:`EvaluationError`, here or from the returned callable.
    """
    run = _within_depth(_TOO_DEEP_TO_EVALUATE, _compile, e)

    def f(x, y):
        if not (isfinite(x) and isfinite(y)):
            Point2(x, y)   # raises for the first non-finite coordinate
        try:
            value = run(x, y)
        except (ArithmeticError, ValueError, RecursionError):
            value = math.nan
        # Outside the handler, so the error raised has no __context__.
        return value if isfinite(value) else evaluate(e, Point2(x, y))
    return f


def to_source(e: Expr) -> str:
    """Render a tree back to source that re-parses to an identical tree.

    That holds for every tree whose ``Num`` leaves ``parse`` can build:
    finite, and not negative or -0.0. A negative number is ``Neg(Num(...))``.

    A child is put in parentheses exactly when it binds looser than its slot
    allows, by the levels of ``_PREC`` (an atom binds at 5). The operand of
    unary minus and the exponent of ``^`` allow unary minus and tighter; the
    base of ``^`` allows only an atom; the left operand of ``+ - * /`` allows
    the operator's own level and the right operand one level more, so that
    the left-associative chains re-parse as they were built. A function's
    argument is printed inside the call's own parentheses.

    Raises:
        EvaluationError: for any other ``Num``, which has no source form
            (``-1.0^2.0`` would re-parse as ``-(1.0^2.0)``), for a malformed
            node (see the module docstring), or for a tree nested too deeply
            for the interpreter's recursion.
    """
    return _within_depth(_TOO_DEEP_TO_PRINT, _to_source, e)


def _grouped(text: str, child: Expr, bound: int) -> str:
    """``text``, the printed ``child``, in parentheses if ``child`` binds
    looser than ``bound``. Its binding strength is found here, not by a
    further call, so that printing goes no deeper than the tree's leaves."""
    prec = (_PREC[child.op] if isinstance(child, BinOp)
            else _PREC["neg"] if isinstance(child, Neg) else _ATOM_PREC)
    return f"({text})" if prec < bound else text


def _to_source(e: Expr) -> str:
    if isinstance(e, Num):
        value = _num_value(e)
        if not (isfinite(value) and math.copysign(1.0, value) > 0.0):
            raise EvaluationError(
                f"cannot print the number {value!r}: a literal is finite "
                "and has no minus sign", node=e)
        return repr(value)
    if isinstance(e, (Var, Const)):
        _lookup(_VARIABLES if isinstance(e, Var) else CONSTANTS, e.name, e)
        return e.name
    if isinstance(e, Neg):
        return "-" + _grouped(_to_source(e.operand), e.operand, _PREC["neg"])
    if isinstance(e, Call):
        _lookup(FUNCTIONS, e.func, e)
        return f"{e.func}({_to_source(e.arg)})"
    if not isinstance(e, BinOp):
        raise _not_a_node(e)
    _lookup(_BINOPS, e.op, e)
    # A base must be an atom, and an exponent re-parses at the level of unary minus.
    left, right = (_ATOM_PREC, _PREC["neg"]) if e.op == "^" else (_PREC[e.op], _PREC[e.op] + 1)
    return (_grouped(_to_source(e.left), e.left, left) + e.op
            + _grouped(_to_source(e.right), e.right, right))
