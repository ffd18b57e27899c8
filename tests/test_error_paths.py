"""Error paths pinned by exception type, message, node and point.

Fast paths that validate floats instead of building checked dataclasses must
fail exactly where, and exactly as, the dataclass checks do.
"""

import math

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
    generate,
    normalized_inverse_entry_bound,
    run_trajectory,
    secant_coefficients,
)
from secantplane.cli import _parse_seq_entry, main
from secantplane.expr import BinOp, Call, Num, Var, as_function, evaluate, parse

MAX = 1.7976931348623157e308

LOG_PLUS_RECIPROCAL = as_function(parse("log(x)+1/y"))


def assert_raises_exactly(call, cls, message):
    with pytest.raises(ValueError) as exc_info:
        call()
    exc = exc_info.value
    assert type(exc) is cls
    assert str(exc) == message
    return exc


@pytest.mark.parametrize("x,y,message", [
    (math.inf, 1.0, "x must be finite, got inf"),
    (1.0, math.nan, "y must be finite, got nan"),
])
def test_compiled_expression_rejects_non_finite_input(x, y, message):
    assert_raises_exactly(lambda: LOG_PLUS_RECIPROCAL(x, y), ValueError, message)


def test_compiled_expression_domain_error():
    exc = assert_raises_exactly(lambda: LOG_PLUS_RECIPROCAL(-1.0, 1.0), EvaluationError,
                                "log undefined for -1.0 at (-1.0, 1.0)")
    assert exc.node == Call("log", Var("x"))
    assert exc.point == Point2(-1.0, 1.0)


# An infinity inside the expression would vanish into a finite result
# (1/inf = 0, exp(-inf) = 0, 2^-inf = 0): it is reported at the node that made it.
@pytest.mark.parametrize("source", ["1/(1e308*10)", "exp(-(1e308*10))", "2^(0-1e308*10)"])
def test_overflow_inside_an_expression_is_reported_at_its_node(source):
    tree = parse(source)
    message = "non-finite result inf at (0.0, 0.0)"
    for f in (as_function(tree), lambda x, y: evaluate(tree, Point2(x, y))):
        exc = assert_raises_exactly(lambda: f(0.0, 0.0), EvaluationError, message)
        assert exc.node == BinOp("*", Num(1e308), Num(10.0))
        assert exc.point == Point2(0.0, 0.0)
        assert exc.__context__ is None


def test_compiled_expression_division_by_zero():
    exc = assert_raises_exactly(lambda: LOG_PLUS_RECIPROCAL(1.0, 0.0), EvaluationError,
                                "division by zero at (1.0, 0.0)")
    assert exc.node == BinOp("/", Num(1.0), Var("y"))
    assert exc.point == Point2(1.0, 0.0)


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
    spec = SequenceSpec(SequenceKind.RANDOM_ANGLE_FLOOR, base=Point2(1e20, 1e20))
    assert_raises_exactly(lambda: generate(spec, 1), ZeroVector,
                          "first direction has zero length")


@pytest.mark.parametrize("seed,message", [
    (0, "y must be finite, got inf"),
    (2, "x must be finite, got inf"),
])
def test_random_pair_beyond_the_float_range_is_rejected(seed, message):
    spec = SequenceSpec(SequenceKind.RANDOM_ANGLE_FLOOR, base=Point2(MAX, MAX),
                        initial_radius=1e308, seed=seed)
    assert_raises_exactly(lambda: generate(spec, 1), ValueError, message)


def test_random_pair_near_the_float_range_is_kept():
    spec = SequenceSpec(SequenceKind.RANDOM_ANGLE_FLOOR, base=Point2(MAX, MAX),
                        initial_radius=1e308, seed=5)
    pair = generate(spec, 1)
    assert pair.a == Point2(9.36779965798383e+307, 1.288941215620436e+308)
    assert pair.b == Point2(1.6556131145213965e+308, 8.078379596877228e+307)


def test_radial_companion_lost_to_rounding_ends_the_trajectory():
    base = Point2(1.0, 1e20)
    spec = SequenceSpec(SequenceKind.RADIAL_ORTHOGONAL, base=base)
    cfg = ProbeConfig(sequence_specs=(spec, spec))
    assert_raises_exactly(lambda: run_trajectory(lambda x, y: x, base, spec, cfg),
                          ZeroVector, "second direction has zero length")


def test_zero_direction_messages():
    assert_raises_exactly(lambda: angle_between(Vec2(0.0, 0.0), Vec2(1.0, 0.0)),
                          ZeroVector, "first direction has zero length")
    assert_raises_exactly(lambda: angle_between(Vec2(1.0, 0.0), Vec2(0.0, 0.0)),
                          ZeroVector, "second direction has zero length")


@pytest.mark.parametrize("build,cls,message", [
    (lambda: Point2(0.0, math.nan), ValueError, "y must be finite, got nan"),
    (lambda: Vec2(-math.inf, 0.0), ValueError, "dx must be finite, got -inf"),
    (lambda: PlaneCoeffs(0.0, 0.0, 0.0, 1.0, math.inf), ValueError,
     "beta must be finite, got inf"),
    (lambda: SecantSample(Point2(0.0, 0.0), Point2(1.0, 0.0), Point2(0.0, 1.0),
                          0.0, math.nan, 0.0), ValueError, "z_a must be finite, got nan"),
    (lambda: ProbeConfig(sequence_specs=(SequenceSpec(SequenceKind.RADIAL_ORTHOGONAL),) * 2,
                         tail_window=1), InvalidSpec, "tail_window must be >= 2, got 1"),
    (lambda: SequenceSpec("radial"), InvalidSpec, "unknown sequence kind 'radial'"),
    (lambda: generate(SequenceSpec(SequenceKind.RANDOM_ANGLE_FLOOR,
                                   angle_floor=0.999999999999, seed=0), 1), InvalidSpec,
     "could not draw a pair with sin(theta) >= 0.999999999999 in 10000 attempts"),
])
def test_dataclass_messages(build, cls, message):
    assert_raises_exactly(build, cls, message)


@pytest.mark.parametrize("entry,message", [
    ("random:seed=abc", "random parameter 'seed' needs an integer, got 'abc' in 'random:seed=abc'"),
    ("random:floor=zz", "random parameter 'floor' needs a number, got 'zz' in 'random:floor=zz'"),
])
def test_malformed_random_parameter_names_parameter_and_entry(capsys, entry, message):
    assert_raises_exactly(lambda: _parse_seq_entry(entry, Point2(0.0, 0.0), 0.1),
                          InvalidSpec, message)
    assert main(["probe", "--function", "x", "--point", "0,0", "--seqs", entry]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
