"""Error paths pinned by exception type, message, node and point.

Fast paths that validate floats instead of building checked dataclasses must
fail exactly where, and exactly as, the dataclass checks do.
"""

import math
import sys
import warnings
from decimal import Decimal

import pytest

from secantplane import (
    EvaluationError,
    InvalidSpec,
    PlaneCoeffs,
    Point2,
    ProbeConfig,
    SecantSample,
    SequenceKind,
    SequenceSpec,
    Vec2,
    ZeroVector,
    angle_between,
    counterexample_points,
    generate,
    normalized_inverse_entry_bound,
    orthogonal_companion,
    probe,
    run_trajectory,
    secant_coefficients,
)
from secantplane import expr
from secantplane.cli import _parse_seq_entry, main
from secantplane.expr import (BinOp, Call, Const, Neg, Num, Var, as_function, evaluate,
                              parse, to_source)
from helpers import frames_in_use

LOG_PLUS_RECIPROCAL = as_function(parse("log(x)+1/y"))
# A constant expression never reads its inputs, so the call checks them itself.
TWO = as_function(parse("2"))


def assert_raises_exactly(call, cls, message):
    with pytest.raises(ValueError) as exc_info:
        call()
    exc = exc_info.value
    assert type(exc) is cls
    assert str(exc) == message
    return exc


@pytest.mark.parametrize("f,x,y,message", [
    (LOG_PLUS_RECIPROCAL, math.inf, 1.0, "x must be finite, got inf"),
    (LOG_PLUS_RECIPROCAL, 1.0, math.nan, "y must be finite, got nan"),
    (TWO, math.inf, 1.0, "x must be finite, got inf"),
], ids=["log-x-inf", "log-y-nan", "constant-x-inf"])
def test_compiled_expression_rejects_non_finite_input(f, x, y, message):
    assert_raises_exactly(lambda: f(x, y), ValueError, message)


def test_compiled_expression_domain_error():
    exc = assert_raises_exactly(lambda: LOG_PLUS_RECIPROCAL(-1.0, 1.0), EvaluationError,
                                "log undefined for -1.0 at (-1.0, 1.0)")
    assert exc.node == Call("log", Var("x"))
    assert exc.point == Point2(-1.0, 1.0)


# An infinity or NaN inside the expression would vanish into a finite result
# (1/inf = 0, exp(-inf) = 0, 2^-inf = 0, inf^0 = 1, 1^nan = 1), also below
# another node: it is reported at the node that made it.
@pytest.mark.parametrize("source", [
    "1/(1e308*10)", "exp(-(1e308*10))", "2^(0-1e308*10)",
    "(1e308*10)^0", "1^((1e308*10)-(1e308*10))", "x*exp(-(1e308*10))",
])
def test_overflow_inside_an_expression_is_reported_at_its_node(source):
    tree = parse(source)
    message = "non-finite result inf at (0.0, 0.0)"
    for f in (as_function(tree), lambda x, y: evaluate(tree, Point2(x, y))):
        exc = assert_raises_exactly(lambda: f(0.0, 0.0), EvaluationError, message)
        assert exc.node == BinOp("*", Num(1e308), Num(10.0))
        assert exc.point == Point2(0.0, 0.0)
        assert exc.__context__ is None


# parse never builds a non-finite Num, but a tree built by hand may hold one:
# no operation makes the value, so it is reported at the root.
@pytest.mark.parametrize("tree,message", [
    (Num(math.inf), "non-finite result inf at (1.0, 2.0)"),
    (Num(math.nan), "non-finite result nan at (1.0, 2.0)"),
    (Neg(Num(math.inf)), "non-finite result -inf at (1.0, 2.0)"),
], ids=["inf", "nan", "negated-inf"])
def test_non_finite_value_at_the_root_is_reported(tree, message):
    for f in (as_function(tree), lambda x, y: evaluate(tree, Point2(x, y))):
        exc = assert_raises_exactly(lambda: f(1.0, 2.0), EvaluationError, message)
        assert exc.node == tree
        assert exc.point == Point2(1.0, 2.0)


# parse builds only the names in expr's tables and only float numbers, but a
# tree built by hand may hold anything: each route reports a name, a number
# that is not a float or a value that is not a node at all at that node, also
# below a valid node, and as_function rejects it before any source is
# compiled, so a name that reads as code never reaches compile().
@pytest.mark.parametrize("bad,message", [
    (Var("z"), "Var 'z' is not one of x, y"),
    (Var("pi"), "Var 'pi' is not one of x, y"),
    (Const("tau"), "Const 'tau' is not one of pi, e"),
    (Call("foo", Var("x")), "Call 'foo' is not one of sin, cos, tan, exp, log, sqrt, abs"),
    (BinOp("%", Var("x"), Var("y")), "BinOp '%' is not one of +, -, *, /, ^"),
    (Var(["x"]), "Var ['x'] is not one of x, y"),
    (Num("1"), "Num '1' is not a float"),
    (Num(Decimal("1")), "Num Decimal('1') is not a float"),
    (Num(1), "Num 1 is not a float"),
    (Num(True), "Num True is not a float"),
    ("x", "str is not an expression node"),
    (None, "NoneType is not an expression node"),
    (1.0, "float is not an expression node"),
    (Var("__import__"), "Var '__import__' is not one of x, y"),
    (Const("x; import os"), "Const 'x; import os' is not one of pi, e"),
    (Call("os.system", Var("x")),
     "Call 'os.system' is not one of sin, cos, tan, exp, log, sqrt, abs"),
    (BinOp("**", Var("x"), Var("y")), "BinOp '**' is not one of +, -, *, /, ^"),
], ids=["var-z", "var-pi", "const-tau", "call-foo", "binop-percent", "var-unhashable",
        "num-str", "num-decimal", "num-int", "num-bool", "str", "none", "float",
        "var-import", "const-statement", "call-os-system", "binop-python-power"])
@pytest.mark.parametrize("route", [
    lambda tree: evaluate(tree, Point2(1.0, 2.0)),
    as_function,
    to_source,
], ids=["evaluate", "as_function", "to_source"])
def test_name_that_parse_never_builds_is_reported_at_its_node(bad, message, route,
                                                              monkeypatch):
    compiled = []
    monkeypatch.setattr(expr, "compile", lambda *args: compiled.append(args), raising=False)
    for tree in (bad, BinOp("+", Var("x"), bad)):
        exc = assert_raises_exactly(lambda: route(tree), EvaluationError, message)
        assert exc.node is bad
        # One error, not the KeyError of a name lookup as well.
        assert exc.__context__ is None or exc.__suppress_context__
    assert compiled == []


# One tree with every operator, function, constant and variable: the
# generated source draws no warning from compile(), such as a SyntaxWarning.
def test_generated_source_compiles_without_warnings():
    tree = parse("sin(x)+cos(y)-tan(x)*exp(y)/log(2+x^2)^sqrt(abs(-y)+pi*e)")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f = as_function(tree)
        assert repr(f(0.5, -0.25)) == repr(evaluate(tree, Point2(0.5, -0.25)))


def test_compiled_expression_division_by_zero():
    exc = assert_raises_exactly(lambda: LOG_PLUS_RECIPROCAL(1.0, 0.0), EvaluationError,
                                "division by zero at (1.0, 0.0)")
    assert exc.node == BinOp("/", Num(1.0), Var("y"))
    assert exc.point == Point2(1.0, 0.0)


def test_compiled_expression_called_with_few_frames_left():
    # The generated function does not recurse, so a call made with few frames
    # left evaluates a sum that a closure per node could not.
    f = as_function(parse("+".join(["x"] * 400)))

    def call_deeper(levels):
        return f(1.0, 0.0) if levels == 0 else call_deeper(levels - 1)

    assert call_deeper(sys.getrecursionlimit() - frames_in_use() - 20) == 400.0
    # Only the compile walk recurses, once per level of the tree.
    exc = assert_raises_exactly(lambda: as_function(parse("+".join(["x"] * 3000))),
                                EvaluationError, "expression nested too deeply to evaluate")
    assert exc.__suppress_context__   # one error line, not the RecursionError as well


# The parser builds a long sum without recursing, but walking the tree it
# builds recurses once per term.
@pytest.mark.parametrize("walk,message", [
    (lambda tree: evaluate(tree, Point2(1.0, 2.0)), "expression nested too deeply to evaluate"),
    (to_source, "expression nested too deeply to print"),
], ids=["evaluate", "to_source"])
def test_tree_too_deep_to_walk(walk, message):
    tree = parse("+".join(["x"] * 3000))
    exc = assert_raises_exactly(lambda: walk(tree), EvaluationError, message)
    assert exc.__suppress_context__   # one error line, not the RecursionError as well


def test_overflowing_basis_is_rejected_as_a_non_finite_displacement():
    base = Point2(-1e308, 0.0)
    sample = SecantSample(base, Point2(1e308, 0.0), Point2(-1e308, 1.0), 0.0, 0.0, 0.0)
    assert_raises_exactly(lambda: secant_coefficients(sample), ValueError,
                          "dx must be finite, got inf")
    assert_raises_exactly(lambda: normalized_inverse_entry_bound(sample), ValueError,
                          "dx must be finite, got inf")
    swapped = SecantSample(base, Point2(-1e308, 1.0), Point2(1e308, 0.0), 0.0, 0.0, 0.0)
    assert_raises_exactly(lambda: secant_coefficients(swapped), ValueError,
                          "dx must be finite, got inf")


def test_random_pair_lost_to_rounding_is_a_zero_direction():
    # At the largest double the step rounds away too, instead of overflowing.
    for scale in (1e20, 1.7976931348623157e308):
        spec = SequenceSpec(SequenceKind.RANDOM_ANGLE_FLOOR, base=Point2(scale, scale))
        assert_raises_exactly(lambda: generate(spec, 1), ZeroVector,
                              "first direction has zero length")


def test_radial_companion_lost_to_rounding_ends_the_trajectory():
    base = Point2(1.0, 1e20)
    spec = SequenceSpec(SequenceKind.RADIAL_ORTHOGONAL, base=base)
    cfg = ProbeConfig(sequence_specs=(spec, spec))
    assert_raises_exactly(lambda: run_trajectory(lambda x, y: x, base, spec, cfg),
                          ZeroVector, "second direction has zero length")


def test_coefficient_overflow_is_named_as_alpha():
    # The first radial (1, 0) step gives alpha = 1e308 / 0.1, which overflows.
    base = Point2(0.0, 0.0)
    spec = SequenceSpec(SequenceKind.RADIAL_ORTHOGONAL, base=base, direction=Vec2(1.0, 0.0))
    cfg = ProbeConfig(sequence_specs=(spec, spec))
    f = lambda x, y: 1e308 if x > 0 else 0.0
    assert_raises_exactly(lambda: run_trajectory(f, base, spec, cfg), ValueError,
                          "alpha must be finite, got inf")
    assert_raises_exactly(lambda: probe(f, base, cfg), ValueError,
                          "alpha must be finite, got inf")


def test_zero_direction_messages():
    assert_raises_exactly(lambda: angle_between(Vec2(0.0, 0.0), Vec2(1.0, 0.0)),
                          ZeroVector, "first direction has zero length")
    assert_raises_exactly(lambda: angle_between(Vec2(1.0, 0.0), Vec2(0.0, 0.0)),
                          ZeroVector, "second direction has zero length")


def test_printer_refuses_a_negative_literal():
    # Printed as "-1.0^2.0", this tree would re-parse as -(1.0^2.0).
    leaf = Num(-1.0)
    exc = assert_raises_exactly(lambda: to_source(BinOp("^", leaf, Num(2.0))), EvaluationError,
                                "cannot print the number -1.0: a literal is finite and has "
                                "no minus sign")
    assert exc.node == leaf


RADIAL_PAIR = (SequenceSpec(SequenceKind.RADIAL_ORTHOGONAL),) * 2


@pytest.mark.parametrize("build,cls,message", [
    (lambda: Point2(math.nan, 0.0), ValueError, "x must be finite, got nan"),
    (lambda: Point2(0.0, math.nan), ValueError, "y must be finite, got nan"),
    (lambda: Point2(0.0, math.inf), ValueError, "y must be finite, got inf"),
    (lambda: Vec2(math.inf, 0.0), ValueError, "dx must be finite, got inf"),
    (lambda: Vec2(-math.inf, 0.0), ValueError, "dx must be finite, got -inf"),
    (lambda: PlaneCoeffs(0.0, 0.0, 0.0, math.nan, 0.0), ValueError,
     "alpha must be finite, got nan"),
    (lambda: PlaneCoeffs(0.0, 0.0, 0.0, 1.0, math.inf), ValueError,
     "beta must be finite, got inf"),
    (lambda: SecantSample(Point2(0.0, 0.0), Point2(1.0, 0.0), Point2(0.0, 1.0),
                          0.0, math.nan, 0.0), ValueError, "z_a must be finite, got nan"),
    (lambda: SecantSample(Point2(1.0, 2.0), Point2(1.0, 2.0), Point2(0.0, 0.0),
                          0.0, 0.0, 0.0), ZeroVector, "companion a coincides with the base point"),
    (lambda: SecantSample(Point2(1.0, 2.0), Point2(0.0, 0.0), Point2(1.0, 2.0),
                          0.0, 0.0, 0.0), ZeroVector, "companion b coincides with the base point"),
    # max_steps must leave room for two tail windows of probe.TAIL_WINDOW = 5.
    (lambda: ProbeConfig(sequence_specs=RADIAL_PAIR, max_steps=8), InvalidSpec,
     "max_steps must be at least 2*tail_window = 10, got 8"),
    (lambda: ProbeConfig(sequence_specs=RADIAL_PAIR, max_steps=7), InvalidSpec,
     "max_steps must be at least 2*tail_window = 10, got 7"),
    (lambda: ProbeConfig(sequence_specs=RADIAL_PAIR, max_steps=10.5), InvalidSpec,
     "max_steps must be an integer, got 10.5"),
    (lambda: SequenceSpec(SequenceKind.RANDOM_ANGLE_FLOOR, seed=1.5), InvalidSpec,
     "seed must be an integer, got 1.5"),
    # The displacement a - base is checked as a Vec2 would be, before the
    # companion point is built from it.
    (lambda: orthogonal_companion(Point2(-1e308, 0.0), Point2(1e308, 0.0)), ValueError,
     "dx must be finite, got inf"),
    (lambda: orthogonal_companion(Point2(0.0, 1e308), Point2(0.0, -1e308)), ValueError,
     "dy must be finite, got -inf"),
    (lambda: orthogonal_companion(Point2(1.0, 1e20), Point2(1.0, 1e20)), ZeroVector,
     "cannot build a companion for a zero displacement"),
    (lambda: SequenceSpec("radial"), InvalidSpec, "unknown sequence kind 'radial'"),
    (lambda: generate(SequenceSpec(SequenceKind.RANDOM_ANGLE_FLOOR,
                                   angle_floor=0.999999999999, seed=0), 1), InvalidSpec,
     "could not draw a pair with sin(theta) >= 0.999999999999 in 10000 attempts"),
])
def test_dataclass_messages(build, cls, message):
    assert_raises_exactly(build, cls, message)


# A named tuple's _make, which _replace calls, would skip __new__; the
# records' own _make goes through it, so a copy is checked as a new value is.
@pytest.mark.parametrize("build,cls,message", [
    (lambda: Point2(1.0, 2.0)._replace(x=math.inf), ValueError, "x must be finite, got inf"),
    (lambda: Point2._make([0.0, math.nan]), ValueError, "y must be finite, got nan"),
    (lambda: ProbeConfig(RADIAL_PAIR)._replace(max_steps=3), InvalidSpec,
     "max_steps must be at least 2*tail_window = 10, got 3"),
    (lambda: SequenceSpec(SequenceKind.RANDOM_ANGLE_FLOOR)._replace(seed=-1), InvalidSpec,
     "seed must be non-negative, got -1"),
    (lambda: PlaneCoeffs(0.0, 0.0, 0.0, 1.0, 2.0)._replace(beta=math.inf), ValueError,
     "beta must be finite, got inf"),
], ids=["point-replace", "point-make", "config-replace", "spec-replace", "plane-replace"])
def test_make_and_replace_validate(build, cls, message):
    assert_raises_exactly(build, cls, message)


# The step index is checked as seed and max_steps are: a float or a string is
# no step, and True is step 1. A random spec's stream is seeded with the text
# of k, so "2.0" or "True" would draw another step's points.
@pytest.mark.parametrize("k", [2.0, 1.5, "1"])
def test_step_index_must_be_an_integer(k):
    message = f"step index must be an integer, got {k!r}"
    for kind in SequenceKind:
        assert_raises_exactly(lambda: generate(SequenceSpec(kind), k), InvalidSpec, message)
    assert_raises_exactly(lambda: counterexample_points(k), InvalidSpec, message)


@pytest.mark.parametrize("kind", SequenceKind, ids=lambda kind: kind.value)
def test_step_index_true_is_step_one(kind):
    spec = SequenceSpec(kind, seed=5)
    assert generate(spec, True) == generate(spec, 1)


@pytest.mark.parametrize("entry,message", [
    ("random:seed=abc", "random parameter 'seed' needs an integer, got 'abc' in 'random:seed=abc'"),
    ("random:floor=zz", "random parameter 'floor' needs a number, got 'zz' in 'random:floor=zz'"),
])
def test_malformed_random_parameter_names_parameter_and_entry(capsys, entry, message):
    assert_raises_exactly(lambda: _parse_seq_entry(entry, Point2(0.0, 0.0), 0.1),
                          InvalidSpec, message)
    assert main(["probe", "--function", "x", "--point", "0,0", "--seqs", entry]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
