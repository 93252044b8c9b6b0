import math

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
    ):
        with pytest.raises(ExpressionError):
            parse_expression(bad)


def test_integer_powers_stay_in_float_range():
    f = parse_expression("9**9**9")
    with pytest.raises(OverflowError):
        f(0.0)


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
    with pytest.raises(DomainError, match=r"^expression '\(t-10\)\*\*0\.5' does not evaluate to a real number at t=5\.0: "):
        f(5.0)
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
