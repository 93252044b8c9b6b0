import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddeosc import DomainError, ExpressionError
from ddeosc.expressions import parse_expression


def test_basic_arithmetic():
    f = parse_expression("1/(10*(t+6))")
    assert f(4.0) == pytest.approx(1.0 / 100.0)


def test_functions_and_constants():
    f = parse_expression("exp(1) * e + min(t, pi) - max(cos(0), sin(0))")
    assert f(1.0) == pytest.approx(math.e * math.e + 1.0 - 1.0)
    assert parse_expression("min(t, 2, 3) + max(t, 2, 3)")(1.0) == 4.0


def test_power_and_unary_minus():
    f = parse_expression("-t**2 + 2")
    assert f(3.0) == pytest.approx(-7.0)


def test_source_attribute_round_trips():
    src = "(t+5)/(20*(t+6))"
    assert parse_expression(src).source == src


def test_rejects_unknown_names():
    with pytest.raises(ExpressionError):
        parse_expression("x + 1")
    with pytest.raises(ExpressionError):
        parse_expression("tan(t)")


def test_rejects_non_arithmetic_constructs():
    for bad in (
        "__import__('os')",
        "t.real",
        "lambda t: t",
        "t if t > 0 else 1",
        "t > 1",
        "[1, 2]",
        "'text'",
        "min(t, key=abs)",
        "exp + t",
        "True",
        "t % 2",
        "t // 2",
        "~t",
        "not t",
        "(t := 1)",
        "min(*t)",
        "1j",
        "None",
        "(t)(1)",
        "e.x",
    ):
        with pytest.raises(ExpressionError):
            parse_expression(bad)


@pytest.mark.parametrize(
    "source, message",
    [
        ("x + 1", "unknown name 'x' in expression 'x + 1'"),
        ("tan(t)", "unknown function call in expression 'tan(t)'"),
        ("(t)(1)", "unknown function call in expression '(t)(1)'"),
        ("exp + t", "function name 'exp' used as a value in expression 'exp + t'"),
        ("min(t, 1, key=2)", "keyword arguments not allowed in expression 'min(t, 1, key=2)'"),
        ("exp(t, t)", "exp() takes exactly one argument, got 2, in expression 'exp(t, t)'"),
        ("log()", "log() takes exactly one argument, got 0, in expression 'log()'"),
        ("min(t)", "min() takes at least two arguments, got 1, in expression 'min(t)'"),
        ("max()", "max() takes at least two arguments, got 0, in expression 'max()'"),
        ("min(*t)", "min() takes at least two arguments, got 1, in expression 'min(*t)'"),
        ("'text'", "non-numeric literal 'text' in expression \"'text'\""),
        ("True", "non-numeric literal True in expression 'True'"),
        ("None", "non-numeric literal None in expression 'None'"),
        ("1j", "non-numeric literal 1j in expression '1j'"),
        ("t % 2", "construct 'Mod' not allowed in expression 't % 2'"),
        ("not t", "construct 'Not' not allowed in expression 'not t'"),
        ("t > 1", "construct 'Compare' not allowed in expression 't > 1'"),
        ("e.x", "construct 'Attribute' not allowed in expression 'e.x'"),
        ("min(*t, 1)", "construct 'Starred' not allowed in expression 'min(*t, 1)'"),
    ],
)
def test_single_fault_messages(source, message):
    with pytest.raises(ExpressionError) as caught:
        parse_expression(source)
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "source, first",
    [
        ("x + tan(t)", "unknown name 'x'"),  # a node's left operand before its right
        ("tan(x)", "unknown function call"),  # a call before its arguments
        ("(t % 2) + exp", "construct 'Mod'"),
        ("exp(min(t)) + 'a'", "min() takes at least two arguments"),
        ("-(y) * None", "unknown name 'y'"),
    ],
)
def test_several_faults_name_the_first_in_pre_order(source, first):
    with pytest.raises(ExpressionError, match=f"^{re.escape(first)}"):
        parse_expression(source)


@pytest.mark.parametrize(
    "source, error",
    [
        ("log(t - 1000) + 1/(t - 50)", ValueError),
        ("1/(t - 50) + log(t - 1000)", ZeroDivisionError),
        ("min(1/(t - 50), log(t - 1000))", ZeroDivisionError),
        ("exp((t - 60)**0.5) + 1/(t - 50)", DomainError),
    ],
)
def test_the_float_call_raises_the_error_of_its_first_failing_operand(source, error):
    with pytest.raises(error):
        parse_expression(source)(50.0)
    with pytest.raises(error):
        parse_expression(source)(np.array([2000.0, 50.0]))


def test_an_integer_too_large_for_a_float_overflows_only_without_other_faults():
    huge = "1" + "0" * 400
    with pytest.raises(OverflowError, match="int too large to convert to float"):
        parse_expression(huge)
    with pytest.raises(ExpressionError, match="unknown name 'x'"):
        parse_expression(f"{huge} + x")


@pytest.mark.parametrize(
    "source, depth",
    [
        ("+".join(["0.001"] * 201), 200),  # the leftmost of n terms lies n - 1 levels down
        ("+".join(["0.001"] * 202), 201),
        ("+".join(["0.001"] * 600), 599),
        ("-" * 200 + "t", 200),
        ("-" * 201 + "t", 201),
        ("exp(" * 100 + "-" * 101 + "t" + ")" * 100, 201),  # Python's parser takes at most 200 parentheses
    ],
    ids=["sum-201", "sum-202", "sum-600", "minus-200", "minus-201", "exp-minus-201"],
)
def test_nesting_past_the_depth_cap_is_rejected(source, depth):
    if depth <= 200:
        f = parse_expression(source)
        assert f(1.0) == f(np.array([1.0]))[0]
        return
    with pytest.raises(ExpressionError) as caught:
        parse_expression(source)
    text = repr(source)  # a source whose repr passes 200 characters is clipped to its first 100
    shown = text if len(text) <= 200 else f"{text[:100]}... ({len(text)} characters)"
    assert str(caught.value) == f"nesting deeper than 200 levels in expression {shown}"


@pytest.mark.parametrize(
    "source, reason",
    [
        ("0.5\x00", "null bytes"),  # ValueError or SyntaxError, by Python version
        ("0.5\ud800", "surrogates not allowed"),  # UnicodeEncodeError
        ("+".join(["0.001"] * 3000), ""),  # RecursionError in ast.parse, or the depth cap
    ],
    ids=["null-byte", "lone-surrogate", "sum-3000"],
)
def test_text_the_parser_cannot_take_is_an_expression_error(source, reason):
    with pytest.raises(ExpressionError) as caught:
        parse_expression(source)
    message = str(caught.value)
    assert message.startswith(("cannot parse expression ", "nesting deeper than 200 levels"))
    assert reason in message


def test_integer_powers_stay_in_float_range():
    f = parse_expression("9**9**9")
    with pytest.raises(OverflowError):
        f(0.0)


def test_overflow_names_the_expression_and_t():
    with pytest.raises(OverflowError) as caught:
        parse_expression("9**9**9")(0.0)
    assert str(caught.value) == "expression '9**9**9' overflows at t=0.0: Numerical result out of range"
    with pytest.raises(OverflowError) as caught:
        parse_expression("exp(t)")(np.array([1.0, 1000.0, 2000.0]))  # the array call replays the float calls
    assert str(caught.value) == "expression 'exp(t)' overflows at t=1000.0: math range error"


@pytest.mark.parametrize(
    "source, t, error, text",
    [
        ("log(t - 1000)", 5.0, ValueError, "math domain error"),
        ("1/(t - 50)", 50.0, ZeroDivisionError, "float division by zero"),
    ],
)
def test_undefined_operations_name_the_expression_and_t(source, t, error, text):
    message = f"expression {source!r} is undefined at t={t!r}: {text}"
    for arg in (t, np.array([2000.0, t, 1.0])):  # the array call replays the float calls
        with pytest.raises(error) as caught:
            parse_expression(source)(arg)
        assert type(caught.value) is error
        assert str(caught.value) == message


def test_rejects_empty():
    with pytest.raises(ExpressionError):
        parse_expression("")
    with pytest.raises(ExpressionError):
        parse_expression("   ")


def test_syntax_error_reported():
    with pytest.raises(ExpressionError):
        parse_expression("1 +")


def test_complex_value_raises_domain_error():
    f = parse_expression("(t-10)**0.5")
    assert f(14.0) == 2.0
    for t in (5.0, np.float64(5.0)):  # a numpy scalar takes Python's arithmetic too
        with pytest.raises(DomainError, match=r"^expression '\(t-10\)\*\*0\.5' does not evaluate to a real number at t=5\.0: "):
            f(t)
    with pytest.raises(DomainError, match=r"^expression 'min\(\(t-10\)\*\*0\.5, 1\)' does not evaluate"):
        parse_expression("min((t-10)**0.5, 1)")(5.0)


@pytest.mark.parametrize("source", ["exp(t, t)", "log()", "sin(t, 1)", "cos()", "min(t)", "max(t)", "min()", "exp(min(t))"])
def test_rejects_wrong_call_arity(source):
    with pytest.raises(ExpressionError, match=r"takes (exactly one argument|at least two arguments), got \d+, in expression"):
        parse_expression(source)


# ---------------------------------------------------------------------------
# The array form: one call on an array of times, the bits of the float calls


def _scalar_outcomes(f, ts):
    """Each element's float call: its value, or the (type, message) of its error."""
    outcomes = []
    for t in ts.ravel().tolist():
        try:
            outcomes.append(f(t))
        except (ArithmeticError, ValueError) as exc:
            outcomes.append((type(exc), str(exc)))
    return outcomes


def _assert_array_form_matches(source, ts):
    f = parse_expression(source)
    ts = np.asarray(ts, dtype=float)
    outcomes = _scalar_outcomes(f, ts)
    errors = [o for o in outcomes if isinstance(o, tuple)]
    if errors:
        with pytest.raises((ArithmeticError, ValueError)) as caught:
            f(ts)
        assert (type(caught.value), str(caught.value)) == errors[0]
        return
    values = f(ts)
    assert values.shape == ts.shape and values.dtype == np.float64
    assert values.tobytes() == np.array(outcomes, dtype=float).reshape(ts.shape).tobytes()


_LEAVES = st.sampled_from(["t", "0.0", "0.5", "2", "3.0", "1e308", "1e-300", "709.0", "e", "pi"])


def _expressions():
    def extend(inner):
        return st.one_of(
            st.builds(lambda a: f"-({a})", inner),
            st.builds(lambda a: f"+({a})", inner),
            st.builds(lambda a, op, b: f"({a}) {op} ({b})", inner, st.sampled_from("+-*/"), inner),
            st.builds(lambda a, b: f"({a}) ** ({b})", inner, inner),
            st.builds(lambda name, a: f"{name}({a})", st.sampled_from(["exp", "log", "sin", "cos"]), inner),
            st.builds(
                lambda name, args: f"{name}({', '.join(args)})",
                st.sampled_from(["min", "max"]),
                st.lists(inner, min_size=2, max_size=3),
            ),
        )

    return st.recursive(_LEAVES, extend, max_leaves=8)


_TIMES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 10.0, 709.0, 710.0, 1e154, -1e154, 1e308, -1e308, 5e-324]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@settings(max_examples=400, deadline=None)
@given(_expressions(), st.lists(_TIMES, min_size=1, max_size=6))
def test_array_form_has_the_float_bits_or_the_float_error(source, ts):
    _assert_array_form_matches(source, ts)


@pytest.mark.parametrize(
    "source, ts",
    [
        ("(t-10)**0.5", [12.0, 5.0, 3.0]),  # the message names t=5.0, the first bad time
        ("log(t-1000)", [2000.0, 10.0]),
        ("1/(t-50)", [49.0, 50.0, 51.0]),  # ZeroDivisionError, not inf
        ("min(5, 1/(t-50))", [49.0, 50.0]),  # min(5, inf) would hide it
        ("1**(1/(t-50))", [50.0]),  # and so would pow(1, inf)
        ("9**9**9", [0.0, 1.0]),
        ("min(t, (t*1e308*10) - (t*1e308*10))", [1.0, 2.0]),  # min(t, nan) keeps t
        ("min((t*1e308*10) - (t*1e308*10), t)", [1.0, 2.0]),  # min(nan, t) keeps nan
        ("min(5, log(t-1000))", [10.0]),  # a masked domain error still raises
        ("1**log(t-1000)", [10.0]),  # pow(1, nan) is 1; the log still raises
        ("max(-0.0, 0.0)", [1.0, 2.0]),
        ("min(t, -0.0) + max(-0.0, t)", [0.0, -0.0]),
        ("-t", [0.0, -0.0, math.inf]),
        ("2", [[1.0, 2.0], [3.0, 4.0]]),  # a plain number takes the array's shape
    ],
)
def test_array_form_pinned_examples(source, ts):
    _assert_array_form_matches(source, ts)


def test_array_form_errors_match_the_first_bad_time():
    f = parse_expression("(t-10)**0.5")
    with pytest.raises(DomainError, match=r"at t=5\.0: "):
        f(np.array([12.0, 5.0, 3.0]))
    with pytest.raises(ZeroDivisionError, match="float division by zero"):
        parse_expression("1/(t-50)")(np.array([49.0, 50.0]))
    assert np.signbit(parse_expression("max(-0.0, 0.0)")(np.zeros(3))).all()
