import math

import pytest

from ddeosc import DomainError, ExpressionError
from ddeosc.expressions import parse_expression


def test_basic_arithmetic():
    f = parse_expression("1/(10*(t+6))")
    assert f(4.0) == pytest.approx(1.0 / 100.0)


def test_functions_and_constants():
    f = parse_expression("exp(1) * e + min(t, pi) - max(cos(0), sin(0))")
    assert f(1.0) == pytest.approx(math.e * math.e + 1.0 - 1.0)


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
