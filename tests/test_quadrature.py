import math

import numpy as np
import pytest

from ddeosc import InvalidParameterError, composite_simpson
from ddeosc.expressions import parse_expression
from ddeosc.quadrature import PANELS, simpson_rule

from _oracles import looped_simpson


def test_exact_for_cubics():
    # integral of s^3 over [0, 2] = 4
    assert composite_simpson(lambda s: s ** 3, 0.0, 2.0, 2) == pytest.approx(4.0, abs=1e-14)


def test_constant_and_linear_exact():
    assert composite_simpson(lambda s: 0.7, 1.0, 5.0, 4) == pytest.approx(2.8, abs=1e-14)
    assert composite_simpson(lambda s: s, 0.0, 1.0, 64) == pytest.approx(0.5, abs=1e-14)


def test_smooth_convergence_order():
    exact = math.e - 1.0
    errs = [abs(composite_simpson(np.exp, 0.0, 1.0, n) - exact) for n in (8, 16)]
    assert errs[0] / errs[1] > 12.0


def test_degenerate_interval():
    assert composite_simpson(math.exp, 2.0, 2.0, 8) == 0.0


def test_parameter_errors():
    with pytest.raises(InvalidParameterError):
        composite_simpson(math.exp, 0.0, 1.0, 3)
    with pytest.raises(InvalidParameterError):
        composite_simpson(math.exp, 0.0, 1.0, 0)
    with pytest.raises(InvalidParameterError):
        composite_simpson(math.exp, 1.0, 0.0, 4)


def test_nodes_weights_positive_and_sum():
    h, nodes, factors = simpson_rule(0.0, 3.0, 6)
    assert nodes == [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
    assert factors == [1.0, 4.0, 2.0, 4.0, 2.0, 4.0, 1.0]
    assert h / 3.0 * sum(factors) == pytest.approx(3.0, abs=1e-14)
    with pytest.raises(InvalidParameterError):
        simpson_rule(0.0, 1.0, 5)


def test_same_bits_as_one_loop():
    # 2,400 seeded integrals over smooth, oscillating and polynomial integrands
    rng = np.random.default_rng(2400)
    # Parsed expressions take floats and arrays with the same bits, so the
    # package's one array call and the oracle's loop see one function.
    shapes = [
        lambda c: parse_expression(f"exp({c!r} * t)"),
        lambda c: parse_expression(f"sin({c!r} * t) / (1.0 + t * t)"),
        lambda c: parse_expression(f"{c!r} * t ** 3 - t + 0.1"),
    ]
    checked = 0
    intervals = []
    for _ in range(100):
        a = float(rng.uniform(-20.0, 20.0))
        b = a + float(rng.exponential(5.0))
        intervals.append((a, b))
        c = float(rng.uniform(-2.0, 2.0))
        for shape in shapes:
            f = shape(c)
            for panels in (2, 4, 6, 10, 16, 34, PANELS, 128):
                assert composite_simpson(f, a, b, panels) == looped_simpson(f, a, b, panels)
                checked += 1
    assert checked == 2_400
    # One row call over all of the loop's intervals has the bits of the float calls.
    lows, highs = np.array(intervals).T
    for shape in shapes:
        f = shape(0.75)
        for panels in (2, 4, 6, 10, 16, 34, PANELS, 128):
            rows = composite_simpson(f, lows, highs, panels)
            assert rows.tolist() == [composite_simpson(f, a, b, panels) for a, b in intervals]
