import math
import sys

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from secantplane import EvaluationError, ParseError, Point2
from secantplane.expr import (
    BinOp,
    Call,
    Const,
    Neg,
    Num,
    Var,
    as_function,
    evaluate,
    parse,
    to_source,
)
from helpers import frames_in_use

mpmath.mp.dps = 50

P0 = Point2(0.0, 0.0)


def ev(source, x=0.0, y=0.0):
    return evaluate(parse(source), Point2(x, y))


class TestParsing:
    def test_square_sum_shape(self):
        tree = parse("x^2+y^2")
        assert tree == BinOp("+", BinOp("^", Var("x"), Num(2.0)),
                             BinOp("^", Var("y"), Num(2.0)))

    def test_power_is_right_associative(self):
        assert ev("2^3^2") == 512.0

    def test_trailing_operator_position(self):
        with pytest.raises(ParseError) as exc_info:
            parse("x +")
        assert exc_info.value.offset == 3
        assert "expression" in exc_info.value.expected

    def test_empty_source(self):
        with pytest.raises(ParseError) as exc_info:
            parse("")
        assert exc_info.value.offset == 0

    def test_unbalanced_paren(self):
        for source, offset in (("(1+2", 4), ("sin(x", 5)):
            with pytest.raises(ParseError) as exc_info:
                parse(source)
            assert exc_info.value.offset == offset
            assert "')'" in exc_info.value.expected

    def test_function_requires_paren(self):
        with pytest.raises(ParseError) as exc_info:
            parse("sin x")
        assert exc_info.value.offset == 4
        assert "(" in exc_info.value.expected

    def test_no_implicit_multiplication(self):
        with pytest.raises(ParseError) as exc_info:
            parse("2x")
        assert exc_info.value.offset == 1

    def test_unknown_identifier(self):
        with pytest.raises(ParseError):
            parse("sinh(x)")

    def test_unknown_character(self):
        with pytest.raises(ParseError) as exc_info:
            parse("x % y")
        assert exc_info.value.offset == 2

    def test_non_finite_literal_rejected_at_its_offset(self):
        for source, offset in (("1e999", 0), ("x+1e999", 2)):
            with pytest.raises(ParseError) as exc_info:
                parse(source)
            assert exc_info.value.offset == offset

    def test_whitespace_insignificant(self):
        assert parse(" x + y ") == parse("x+y")

    def test_scientific_literals(self):
        assert ev("2e3") == 2000.0
        assert ev("1.5e-2") == 0.015
        assert ev("1.25E+1") == 12.5

    def test_bare_dot_literals_rejected(self):
        with pytest.raises(ParseError):
            parse(".5")
        with pytest.raises(ParseError):
            parse("5.")

    def test_unary_chain(self):
        assert parse("--x") == Neg(Neg(Var("x")))


class TestPrecedence:
    @pytest.mark.parametrize("source, tree", [
        ("1-2-3", BinOp("-", BinOp("-", Num(1.0), Num(2.0)), Num(3.0))),
        ("8/4/2", BinOp("/", BinOp("/", Num(8.0), Num(4.0)), Num(2.0))),
        ("1-2*3-4/5", BinOp("-", BinOp("-", Num(1.0), BinOp("*", Num(2.0), Num(3.0))),
                            BinOp("/", Num(4.0), Num(5.0)))),
        ("-2^2*3", BinOp("*", Neg(BinOp("^", Num(2.0), Num(2.0))), Num(3.0))),
        ("2^-1^2", BinOp("^", Num(2.0), Neg(BinOp("^", Num(1.0), Num(2.0))))),
    ])
    def test_mixed_chains_parse_to_hand_built_trees(self, source, tree):
        assert parse(source) == tree

    def test_multiplication_binds_tighter(self):
        assert ev("1+2*3") == 7.0

    def test_parens_override(self):
        assert ev("(1+2)*3") == 9.0

    def test_unary_minus_looser_than_power(self):
        assert ev("-x^2", x=3.0) == -9.0
        assert parse("-x^2") == Neg(BinOp("^", Var("x"), Num(2.0)))

    def test_negative_exponent(self):
        assert ev("2^-3") == 0.125

    def test_unary_in_product(self):
        assert ev("2*-3") == -6.0


class TestEvaluation:
    def test_square_sum_at_origin(self):
        assert ev("x^2+y^2") == 0.0

    def test_sin_of_one(self):
        value = ev("sin(1/1)", x=5.0, y=-2.0)
        assert value == math.sin(1.0)
        assert abs(value - float(mpmath.sin(1))) <= 1e-15
        assert abs(value - 0.8414709848) <= 1e-10

    def test_constants(self):
        assert ev("pi") == math.pi
        assert ev("2*e") == 2.0 * math.e

    def test_log_of_non_positive(self):
        with pytest.raises(EvaluationError) as exc_info:
            ev("log(x)", x=0.0)
        assert exc_info.value.point == P0
        assert exc_info.value.node is not None

    def test_sqrt_of_negative(self):
        with pytest.raises(EvaluationError):
            ev("sqrt(x)", x=-1.0)

    def test_division_by_exact_zero(self):
        with pytest.raises(EvaluationError):
            ev("x/y", x=1.0, y=0.0)

    def test_overflow_is_an_error_not_inf(self):
        with pytest.raises(EvaluationError):
            ev("exp(1000)")
        with pytest.raises(EvaluationError):
            ev("1e308*1e308")

    @pytest.mark.parametrize("source,message", [
        ("1/0", "division by zero"),
        ("1e308+1e308", "non-finite result inf"),
        ("(0-1)^0.5", "invalid power -1.0 ^ 0.5"),
        ("2^1024", "invalid power 2.0 ^ 1024.0"),
    ])
    def test_binary_operator_error_messages(self, source, message):
        with pytest.raises(EvaluationError) as exc_info:
            ev(source, x=0.5, y=-1.0)
        assert str(exc_info.value) == f"{message} at (0.5, -1.0)"
        assert isinstance(exc_info.value.node, BinOp)

    def test_fractional_power_of_negative(self):
        with pytest.raises(EvaluationError):
            ev("x^0.5", x=-2.0)

    def test_abs(self):
        assert ev("abs(x)", x=-3.5) == 3.5

    def test_evaluation_is_deterministic(self):
        tree = parse("sin(x)*cos(y)+exp(x-2*y)")
        p = Point2(0.3, -0.7)
        assert evaluate(tree, p) == evaluate(tree, p)

    def test_as_function(self):
        f = as_function(parse("x^2+y^2"))
        assert f(3.0, 4.0) == 25.0


_leaves = st.one_of(
    st.builds(Num, st.floats(min_value=0.0, max_value=1e6,
                             allow_nan=False, allow_infinity=False)),
    st.builds(Num, st.integers(min_value=0, max_value=1000).map(float)),
    st.sampled_from([Var("x"), Var("y"), Const("pi"), Const("e")]),
)

# Leaves that leave the domain at many points: log and sqrt of negatives,
# division by zero, overflow of exp, ^, * and +.
_hazards = st.sampled_from([
    Call("log", Var("x")), Call("sqrt", Var("y")), Call("exp", Var("x")),
    BinOp("/", Num(1.0), Var("y")), BinOp("^", Var("x"), Var("y")),
    BinOp("*", Var("x"), Var("y")), BinOp("+", Var("x"), Var("y")),
    BinOp("*", Var("x"), Num(1e300)), BinOp("-", Var("y"), Num(1.7e308)),
    BinOp("/", Var("x"), Num(1e-300)),
])


def _trees_of(leaves, max_leaves):
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.builds(Neg, children),
            st.builds(BinOp, st.sampled_from("+-*/^"), children, children),
            st.builds(Call, st.sampled_from(("sin", "cos", "tan", "exp", "log",
                                             "sqrt", "abs")), children),
        ),
        max_leaves=max_leaves,
    )


# Literals at the ends of the float range: the largest finite values, the
# smallest normal and subnormal ones.
_extreme_leaves = st.sampled_from([1.7e308, 1.7976931348623157e308, 5e-324,
                                   2.2250738585072014e-308, 2.225e-309]).map(Num)
_trees = _trees_of(st.one_of(_leaves, _extreme_leaves), 30)
_hazardous_trees = _trees_of(
    st.one_of(_leaves, _hazards,
              st.builds(Num, st.floats(min_value=0.0, allow_nan=False,
                                       allow_infinity=False))),
    10)
_coords = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
    st.floats(min_value=-1e3, max_value=1e3),
    st.floats(allow_nan=False, allow_infinity=False),
)


@given(_trees)
@settings(max_examples=1000, deadline=None)
def test_round_trip_print_then_parse(tree):
    assert parse(to_source(tree)) == tree


def _grouping_pairs(text):
    """The (open, close) offsets of each pair of parentheses in ``text`` that
    groups, leaving out those opened right after a function name."""
    pairs, opened = [], []
    for i, char in enumerate(text):
        if char == "(":
            opened.append(i)
        elif char == ")":
            start = opened.pop()
            if not (start and text[start - 1].isalpha()):
                pairs.append((start, i))
    return pairs


# The round trip holds for a printer that groups every operand, so pin the
# text too: each grouping pair is needed, and dropping it loses the tree.
@given(_trees)
@settings(max_examples=1000, deadline=None)
def test_printer_adds_no_parentheses_that_are_not_needed(tree):
    text = to_source(tree)
    for start, end in _grouping_pairs(text):
        stripped = text[:start] + text[start + 1:end] + text[end + 1:]
        try:
            assert parse(stripped) != tree, (text, stripped)
        except ParseError:
            pass


def test_printer_prints_a_sum_as_deep_as_the_stack_allows():
    # One frame per level of the tree: a printer that recursed through a
    # helper would need twice as many and fail.
    source = "+".join(["x"] * (sys.getrecursionlimit() - frames_in_use() - 10))
    assert to_source(parse(source)) == source


# Numbers parse never builds: negative, -0.0 and non-finite. A negative
# literal would print as "-1.0" and re-parse as Neg, or as -(1.0^2.0) under ^.
_unprintable_leaves = st.one_of(
    st.floats(max_value=-0.0),
    st.sampled_from([math.inf, math.nan]),
).map(Num)


def _unprintable(tree):
    if isinstance(tree, Num):
        return not (math.isfinite(tree.value) and math.copysign(1.0, tree.value) > 0.0)
    if isinstance(tree, BinOp):
        return _unprintable(tree.left) or _unprintable(tree.right)
    if isinstance(tree, Neg):
        return _unprintable(tree.operand)
    if isinstance(tree, Call):
        return _unprintable(tree.arg)
    return False


@given(_trees_of(st.one_of(_leaves, _unprintable_leaves), 10))
@settings(max_examples=500, deadline=None)
@example(BinOp("^", Num(-1.0), Num(2.0)))
@example(Neg(Num(-0.0)))
def test_printer_refuses_numbers_parse_never_builds(tree):
    if _unprintable(tree):
        with pytest.raises(EvaluationError, match="^cannot print the number "):
            to_source(tree)
    else:
        assert parse(to_source(tree)) == tree


@given(_hazardous_trees, _coords, _coords)
@settings(max_examples=1000, deadline=None)
# A failing root node: no enclosing node re-checks its result.
@example(parse("1/y"), 1.0, 0.0)
@example(parse("log(x)"), -1.0, 0.0)
def test_compiled_function_matches_evaluate(tree, x, y):
    f = as_function(tree)
    try:
        want = evaluate(tree, Point2(x, y))
    except EvaluationError as exc:
        with pytest.raises(EvaluationError) as exc_info:
            f(x, y)
        got = exc_info.value
        assert (str(got), got.node, got.point) == (str(exc), exc.node, exc.point)
    else:
        assert repr(f(x, y)) == repr(want)
