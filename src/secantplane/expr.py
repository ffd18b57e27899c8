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

:func:`as_function` compiles a tree once into one generated ``def f(x, y)``
with one line per operation. Its source holds only this module's own names
and the ``repr`` of floats, never text taken from a tree.
"""

from __future__ import annotations

import math
import operator
import re
from collections import namedtuple
from functools import partial
from math import isfinite
from typing import Callable, Union

from .errors import EvaluationError, ParseError
from .geometry import Point2, ScalarField

FUNCTIONS = {"sin": math.sin, "cos": math.cos, "tan": math.tan, "exp": math.exp,
             "log": math.log, "sqrt": math.sqrt, "abs": abs}
CONSTANTS = {"pi": math.pi, "e": math.e}
# Each variable's name and the coordinate it reads: the field of a Point2 and
# the parameter of a compiled f(x, y) of that name.
_VARIABLES = {"x": "x", "y": "y"}
_BINOPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": operator.truediv, "^": math.pow}
# Binding strength, shared by the parser and the printer: levels 1 and 2 are
# the left-associative chains, "neg" is unary minus, and atoms bind tightest.
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}
_ATOM_PREC = 5

# The parser, the evaluator, the compile walk and the printer each recurse once
# per nesting level; the function the compile walk generates does not. These
# build the error each raises for a tree nested beyond the interpreter's
# recursion limit.
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


# The nodes are named tuples, so a node equals any tuple of the same values.
Num = namedtuple("Num", "value")
Var = namedtuple("Var", "name")  # 'x' or 'y'
Const = namedtuple("Const", "name")  # 'pi' or 'e'
Neg = namedtuple("Neg", "operand")
BinOp = namedtuple("BinOp", "op left right")  # op is one of + - * / ^
Call = namedtuple("Call", "func arg")

Expr = Union[Num, Var, Const, Neg, BinOp, Call]


# Every character starts a match: "bad" takes any that no token starts with,
# and "." misses only "\n", which is whitespace.
_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
      | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<op>\^|[-+*/()])
      | (?P<bad>.)
    """, re.VERBOSE)


def _byte_offset(source: str, pos: int) -> int:
    return len(source[:pos].encode("utf-8"))


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    tokens = []
    for m in _TOKEN_RE.finditer(source):
        if m.lastgroup == "bad":
            raise ParseError(_byte_offset(source, m.start()), "a number, name, or operator")
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), m.start()))
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
        return getattr(p, _lookup(_VARIABLES, e.name, e))
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
# The NaN guard of such an operation, by its number of operands.
_NAN_GUARD = {1: " if isfinite({0}) else nan", 2: " if isfinite({0}) and isfinite({1}) else nan"}
# Each operator's and function's expression in generated source, guarded if it
# is in _MAY_HIDE_NON_FINITE. For floats, Python's + - * / give what _BINOPS gives
# bit for bit; ^ calls math.pow.
_BINOP_SOURCE = {op: ("pow({0}, {1})" if func is math.pow else f"{{0}} {op} {{1}}")
                 + (_NAN_GUARD[2] if op in _MAY_HIDE_NON_FINITE else "")
                 for op, func in _BINOPS.items()}
_CALL_SOURCE = {name: f"{name}({{0}})" + (_NAN_GUARD[1] if name in _MAY_HIDE_NON_FINITE else "")
                for name in FUNCTIONS}
# Every global name the generated functions read, and no builtins: the
# functions, math.pow, the guard's test and the reprs of non-finite floats.
_GENERATED_GLOBALS = {**FUNCTIONS, "pow": math.pow, "isfinite": isfinite,
                      "inf": math.inf, "nan": math.nan, "__builtins__": {}}


def _compile(e: Expr) -> ScalarField:
    """One generated ``def f(x, y)`` that does the operations of
    :func:`evaluate` in its order, built once with ``compile()``: one line
    and one local per operation, with each variable, constant and number
    written in place. The lines are flat, so no tree that the walk here can
    reach is too deep for Python's parser or compiler.

    The function checks nothing. An operation in ``_MAY_HIDE_NON_FINITE``
    gives NaN for an operand that is not finite, so a node that
    :func:`evaluate` rejects makes the whole result non-finite, or raises.
    Only text from this module's tables and the ``repr`` of floats reaches
    the source: every name is read through ``_lookup`` and every ``Num``
    through ``_num_value``.
    """
    lines: list[str] = []
    result = _emit(e, lines)
    source = "def f(x, y):\n" + "".join(f" {line}\n" for line in lines) + f" return {result}\n"
    defined: dict = {}
    exec(compile(source, "<expr>", "exec"), _GENERATED_GLOBALS, defined)
    return defined["f"]


def _emit(e: Expr, lines: list[str]) -> str:
    """The source of ``e``'s value: a leaf's own text, or the name of a new
    local, assigned by a line appended to ``lines`` after its children's."""
    if isinstance(e, (Num, Const)):
        return repr(_num_value(e) if isinstance(e, Num) else _lookup(CONSTANTS, e.name, e))
    if isinstance(e, Var):
        return _lookup(_VARIABLES, e.name, e)
    if isinstance(e, Neg):
        value = "-" + _emit(e.operand, lines)
    elif isinstance(e, BinOp):
        value = _lookup(_BINOP_SOURCE, e.op, e).format(_emit(e.left, lines), _emit(e.right, lines))
    elif isinstance(e, Call):
        value = _lookup(_CALL_SOURCE, e.func, e).format(_emit(e.arg, lines))
    else:
        raise _not_a_node(e)
    local = f"v{len(lines)}"
    lines.append(f"{local} = {value}")
    return local


def as_function(e: Expr) -> ScalarField:
    """Compile a tree into a plain ``f(x, y) -> float`` callable.

    The tree is compiled once into one generated function that does the
    operations of :func:`evaluate` in the same order, so every value is the
    same. The callable checks the result once: where an operation raised or
    the result is not finite, it returns :func:`evaluate` at the point, which
    raises the reference error of the first failing node.

    A malformed node (see the module docstring) raises
    :class:`EvaluationError` here, before any source is compiled. The
    compile walk recurses once per level of the tree, so a tree too deep for
    the interpreter's recursion limit raises :class:`EvaluationError` here.
    The generated function runs in one frame, so a tree that compiles can be
    called with few frames left; only :func:`evaluate`, on the error path,
    can still run out of depth.
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
