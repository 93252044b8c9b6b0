import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddeosc import (
    AmnesiaOperator,
    HistoryDomainError,
    HistoryFunction,
    InvalidParameterError,
    audit_sign_bound,
    composite_simpson,
    make_discrete_delay,
    make_distributed_delay,
    random_history,
)
from ddeosc.expressions import parse_expression
from ddeosc.operators import AuditViolation, _row_dots, _row_sums, sigma_growth_check
from ddeosc.quadrature import PANELS
from ddeosc.specfile import KERNEL_CATALOG, app3_stated_bound

from _oracles import scalar_random_history, simpson_nodes_weights


class TestHistoryFunction:
    def test_domain_enforced(self):
        h = HistoryFunction.constant(2.0, -3.0, 0.0)
        assert h(-3.0) == 2.0
        assert h(0.0) == 2.0
        with pytest.raises(HistoryDomainError):
            h(-3.5)
        with pytest.raises(HistoryDomainError):
            h(0.5)

    def test_no_extrapolation_but_fp_slack(self):
        h = HistoryFunction(lambda t: t, -1.0, 0.0)
        assert h(-1.0 - 1e-12) == pytest.approx(-1.0)

    def test_exponential_factory(self):
        h = HistoryFunction.exponential(-0.5, -2.0, 2.0)
        assert h(2.0) == pytest.approx(math.exp(-1.0))

    @pytest.mark.parametrize("factory", [HistoryFunction.constant, HistoryFunction.exponential])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_preset_rejected(self, factory, value):
        with pytest.raises(InvalidParameterError, match="must be finite"):
            factory(value, -1.0)

    def test_empty_domain_rejected(self):
        with pytest.raises(InvalidParameterError):
            HistoryFunction.constant(1.0, 1.0, 0.0)

    def test_scalar_many_takes_a_node_array_with_one_call_per_element(self):
        reads = []

        def counted(t):
            reads.append(t)
            return math.sin(3.0 * t)

        h = HistoryFunction(counted, -10.0, 0.0)
        nodes = np.linspace(-10.0, 0.0, 513).reshape(1, 513)  # one criterion row
        values = h.many(nodes)
        assert values.shape == (1, 513) and values.dtype == np.float64
        assert values[0].tolist() == [math.sin(3.0 * t) for t in nodes[0].tolist()]
        assert len(reads) == 513


class TestRandomHistory:
    def test_deterministic(self):
        h1 = random_history(42, -5.0)
        h2 = random_history(42, -5.0)
        ts = np.linspace(-5.0, 0.0, 40)
        assert [h1(float(t)) for t in ts] == [h2(float(t)) for t in ts]

    def test_amplitude_normalized(self):
        h = random_history(7, -4.0, amplitude=2.0)
        peak = max(abs(h(float(t))) for t in np.linspace(-4.0, 0.0, 800))
        assert peak == pytest.approx(2.0, rel=1e-2)

    def test_positive_variant_strictly_positive(self):
        h = random_history(3, -6.0, positive=True)
        assert min(h(float(t)) for t in np.linspace(-6.0, 0.0, 800)) > 0.0

    def test_scale_is_the_scalar_peak_over_all_grid_points(self):
        rng = np.random.default_rng(2024)
        for seed in range(300):
            start = -float(rng.uniform(0.01, 50.0))
            end = float(rng.uniform(start + 0.01, 10.0)) if seed % 2 else 0.0
            amplitude = float(rng.choice([1.0, 0.5, 1e-5, 3.0]))
            ours = random_history(seed, start, end, amplitude=amplitude)
            oracle = scalar_random_history(seed, start, end, amplitude=amplitude)
            for t in (start, end, 0.37 * start + 0.63 * end):
                assert ours(t) == oracle(t)


class TestArrayHistories:
    """Package-built histories read arrays with the bits of the scalar formulas."""

    def test_random_many_matches_the_dot_oracle(self):
        rng = np.random.default_rng(6)
        reads = 0
        for seed in range(100):
            start = -float(rng.uniform(0.01, 50.0))
            end = float(rng.uniform(start + 0.01, 10.0)) if seed % 2 else 0.0
            amplitude = float(rng.choice([1.0, 0.5, 1e-5, 3.0]))
            positive = seed % 3 == 0
            ours = random_history(seed, start, end, amplitude=amplitude, positive=positive)
            oracle = scalar_random_history(seed, start, end, amplitude=amplitude, positive=positive)
            ts = np.concatenate([[start, end], np.linspace(start, end, 499), rng.uniform(start, end, 499)])
            assert np.array_equal(ours.many(ts), [oracle(t) for t in ts.tolist()])
            reads += ts.size
        assert reads == 100_000

    def test_call_is_the_one_element_read(self):
        h = random_history(9, -7.0, amplitude=0.3, positive=True)
        ts = np.linspace(-7.0, 0.0, 301)
        assert np.array_equal(h.many(ts), [h(t) for t in ts.tolist()])

    def test_in_slack_times_read_the_endpoints(self):
        h = random_history(2, -3.0, 1.0)
        assert np.array_equal(h.many([-3.0 - 1e-10, 1.0 + 1e-10]), h.many([-3.0, 1.0]))

    @pytest.mark.parametrize("batch", range(4))
    def test_row_dots_are_np_dot(self, batch):
        # cosines like the history's, and factors spread over 2^-80 .. 2^80 so
        # that the products and partial sums straddle many exponents
        rng = np.random.default_rng(batch)
        rows = 800
        if batch % 2:
            coefs = rng.uniform(-1.0, 1.0, (2, 5)) * 2.0 ** rng.integers(-80, 80, (2, 5))
            values = rng.uniform(-1.0, 1.0, (rows, 2, 5)) * 2.0 ** rng.integers(-80, 80, (rows, 2, 5))
        else:
            coefs = rng.uniform(-1.0, 1.0, (2, 5))
            values = np.cos(rng.uniform(0.0, 100.0, (rows, 2, 5)))
        expected = [[np.dot(c, v) for c, v in zip(coefs, row)] for row in values]
        assert np.array_equal(_row_dots(values, coefs), expected)

    def test_products_near_underflow_are_np_dot(self):
        coefs = np.array([[3e-160, 7e-161, -5e-160], [0.75, -0.5, 0.25]])
        values = np.array(
            [
                [[1.1e-150, -3.3e-150, 2.7e-150], [0.1, 0.2, 0.3]],  # subnormal products
                [[0.4, 0.5, 0.6], [0.7, 1e-320, 0.9]],  # one product below 1e-290
                [[1e-170, 0.5, 0.6], [0.7, 0.8, 0.9]],  # a product that rounds to zero
                [[0.4, 0.5, 0.6], [0.7, 0.8, 0.0]],  # a zero factor is exact
            ]
        )
        expected = [[np.dot(c, v) for c, v in zip(coefs, row)] for row in values]
        assert np.array_equal(_row_dots(values, coefs), expected)

    @pytest.mark.parametrize("terms", [2, 3, 5])
    def test_signed_zeros_as_np_dot(self, terms):
        # every sign of a nonzero coefficient against +0.0 and -0.0, per term;
        # one term is left out: matmul does not call dot there, and the
        # history always has five
        pairs = np.array(list(itertools.product([(-1.5, 0.0), (-1.5, -0.0), (2.0, 0.0), (2.0, -0.0)], repeat=terms)))
        coefs, values = pairs[..., 0], pairs[..., 1]
        expected = np.array([np.dot(c, v) for c, v in zip(coefs, values)])
        dots = _row_dots(values, coefs)
        assert dots.tolist() == expected.tolist() == [0.0] * 4**terms
        assert np.signbit(dots).tolist() == np.signbit(expected).tolist()

    def test_double_rounding_tie_as_np_dot(self):
        # 1 + 2^-52 plus a product of +-(2^-53 - 2^-113), next to a tie: a
        # fused multiply-add gives 1 + 2^-52 in both chains, and a product
        # rounded before the add gives 1 + 2^-51 and 1.0
        coefs = np.array([[1.0, 1.0 + 2.0**-30], [1.0, -(1.0 + 2.0**-30)]])
        values = np.array([[[1.0 + 2.0**-52, 2.0**-53 * (1.0 - 2.0**-30)], [1.0 + 2.0**-52, 2.0**-53 * (1.0 - 2.0**-30)]]])
        expected = [[np.dot(c, v) for c, v in zip(coefs, values[0])]]
        assert np.array_equal(_row_dots(values, coefs), expected)

    HISTORIES = pytest.mark.parametrize(
        "history",
        [
            HistoryFunction.constant(1.0, -2.0),
            HistoryFunction.exponential(0.3, -2.0),
            random_history(4, -2.0),
            HistoryFunction(lambda t: t, -2.0),
        ],
        ids=["constant", "exponential", "random", "scalar"],
    )

    @HISTORIES
    @pytest.mark.parametrize("bad", [0.5, -3.0])
    def test_many_raises_the_call_message_for_the_first_bad_time(self, history, bad):
        with pytest.raises(HistoryDomainError) as call:
            history(bad)
        with pytest.raises(HistoryDomainError) as many:
            history.many([-1.0, bad, 0.7, -2.5])
        with pytest.raises(HistoryDomainError) as grid:
            history.many([[-1.0, -0.5], [bad, 0.7]])  # C order: bad comes first
        message = f"history evaluated at t={bad}, outside [-2.0, 0.0]"
        assert str(many.value) == str(call.value) == str(grid.value) == message

    @HISTORIES
    @pytest.mark.parametrize("shape", [(2, 3), ()], ids=["2x3", "0-d"])
    def test_many_returns_the_shape_of_its_input_with_the_1d_bits(self, history, shape):
        ts = np.linspace(-2.0 - 1e-10, 0.0, math.prod(shape)).reshape(shape)
        values = history.many(ts)
        assert values.shape == shape and values.dtype == np.float64
        assert values.ravel().tolist() == history.many(ts.ravel()).tolist()
        assert values.ravel().tolist() == [history.many(np.array([t]))[0] for t in ts.ravel().tolist()]

    def test_constant_and_exponential_many_match_the_scalar_formulas(self):
        ts = np.concatenate([np.linspace(-3.0, 0.0, 1001), [-3.0 - 1e-10, 1e-10, -0.0]])
        clamped = [min(max(t, -3.0), 0.0) for t in ts.tolist()]
        for rate in (0.3, -0.7, 250.0):
            h = HistoryFunction.exponential(rate, -3.0)
            assert np.array_equal(h.many(ts), [math.exp(rate * t) for t in clamped])
            assert np.array_equal(h.many(ts), [h(t) for t in ts.tolist()])
        h = HistoryFunction.constant(-0.25, -3.0)
        assert np.array_equal(h.many(ts), np.full(ts.size, -0.25))
        assert np.array_equal(h.many(ts), [h(t) for t in ts.tolist()])

    @pytest.mark.parametrize("kernel", ["app2", "app3"])
    def test_audit_reads_each_window_and_evaluation_in_one_call(self, kernel, monkeypatch):
        op = KERNEL_CATALOG[kernel].build({})
        calls, reads = [], []
        many = HistoryFunction.many
        monkeypatch.setattr(HistoryFunction, "__call__", lambda self, t: calls.append(t) or float(many(self, [t])[0]))
        monkeypatch.setattr(HistoryFunction, "many", lambda self, ts: reads.append(len(ts)) or many(self, ts))
        combines = []
        counted = dataclasses.replace(op, combine=lambda t, values: combines.append(len(t)) or op.combine(t, values))
        report = audit_sign_bound(counted, [10.0, 12.0, 14.0], trials=3)
        assert report.checked == 18
        assert calls == []
        assert len(reads) == 3 * 3 * 2  # per time and trial: the read points and the window
        assert combines == [2] * (3 * 3)  # per time and trial: both signs in one call


class TestDiscreteDelay:
    def test_two_term_example(self):
        # coefficients 1/t and (t-1)/t at t = 10 with unit history sum to 1
        op = make_discrete_delay([(lambda t: 1.0 / t, 6.0), (lambda t: (t - 1.0) / t, 8.0)])
        h = HistoryFunction.constant(1.0, 0.0, 10.0)
        assert op.evaluate(10.0, h) == pytest.approx(1.0, abs=1e-14)
        assert op.tau(10.0) == 4.0
        assert op.sigma(10.0) == 2.0
        assert op.bound_b(10.0) == pytest.approx(1.0, abs=1e-14)
        assert op.min_lag == 6.0

    def test_linear_evaluation(self):
        op = make_discrete_delay([(2.0, 3.0)])
        h = HistoryFunction(lambda s: s, 0.0, 5.0)
        assert op.evaluate(5.0, h) == 4.0
        assert op.evaluate_many([4.0, 5.0], h).tolist() == [2.0, 4.0]

    def test_zero_operator(self):
        op = make_discrete_delay([(0.0, 1.0)])
        for hist in (HistoryFunction.constant(3.0, 0.0, 9.0), HistoryFunction(lambda s: math.sin(s), 0.0, 9.0)):
            assert op.evaluate(9.0, hist) == 0.0

    def test_constant_history_passthrough(self):
        op = make_discrete_delay([(1.0, 1.0)])
        assert op.evaluate(5.0, HistoryFunction.constant(3.0, 0.0, 5.0)) == 3.0

    def test_construction_errors(self):
        with pytest.raises(InvalidParameterError):
            make_discrete_delay([])
        with pytest.raises(InvalidParameterError):
            make_discrete_delay([(1.0, 0.0)])
        with pytest.raises(InvalidParameterError):
            make_discrete_delay([(1.0, -2.0)])

    def test_default_bound_clips_negative_parts(self):
        op = make_discrete_delay([(1.0, 1.0), (-0.5, 2.0)])
        assert op.bound_b(0.0) == 1.0


class TestArrayCoefficientsAndReads:
    """Coefficients, the derived bound, tau and sigma each take a whole
    array of times in one call, with the bits of the float calls."""

    TERMS = [("0.3*sin(t)", 1.0), ("-0.0", 2.0), ("0.2", 3.0), ("min(t, 0.5) * exp(-t/40)", 4.5)]

    def test_coefficients_are_called_once_per_evaluation(self):
        seen = []
        coef = parse_expression("1 + 0.5*cos(t)")
        op = make_discrete_delay([(lambda t: seen.append(np.shape(t)) or coef(t), 1.0), (0.25, 2.0)])
        hist = HistoryFunction.constant(2.0, -2.0, 10.0)
        ts = np.linspace(0.0, 8.0, 17)
        values = op.evaluate_many(ts, hist)
        assert seen == [(17,)]
        assert values.tolist() == [(coef(t) * 2.0 + 0.25 * 2.0) for t in ts.tolist()]

    def test_default_bound_is_the_sum_of_positive_parts(self):
        coefs = [parse_expression(c) for c, _ in self.TERMS]
        op = make_discrete_delay([(c, d) for c, (_, d) in zip(coefs, self.TERMS)])
        ts = np.concatenate([np.linspace(-5.0, 40.0, 91), [0.0, -0.0]])
        expected = [sum(max(c(t), 0.0) for c in coefs) for t in ts.tolist()]
        assert op.bound_b(ts).tobytes() == np.array(expected).tobytes()
        assert [op.bound_b(t) for t in ts.tolist()] == expected
        assert type(op.bound_b(3.0)) is float

    def test_coefficient_errors_surface_in_time_then_term_order(self):
        # the second term fails at the first time, the first term only at the second
        op = make_discrete_delay([(parse_expression("1/(t-5.5)"), 1.0), (parse_expression("(t-5.25)**-1.0"), 2.0)],
                                 bound_b=lambda t: 1.0)
        hist = HistoryFunction.constant(1.0, 0.0, 6.0)
        with pytest.raises(ZeroDivisionError, match="cannot be raised to a negative power"):
            op.evaluate_many(np.array([5.25, 5.5]), hist)
        with pytest.raises(ZeroDivisionError, match="float division by zero"):
            op.evaluate_many(np.array([5.5, 5.25]), hist)

    def test_derived_bound_of_a_node_array_raises_in_row_major_then_term_order(self):
        # (rows, nodes), the criterion's shape: row-major order meets 5.5
        # (row 0) before 5.25 (row 1), which a column-major loop meets first
        nodes = np.array([[1.0, 5.5], [5.25, 2.0]])
        quarter, half, pole = (parse_expression(c) for c in ("(t-5.25)**-1.0", "1/(t-5.5)", "(t-5.5)**-1.0"))
        with pytest.raises(ZeroDivisionError, match="float division by zero"):
            make_discrete_delay([(quarter, 1.0), (half, 2.0)]).bound_b(nodes)
        with pytest.raises(ZeroDivisionError, match="cannot be raised to a negative power"):
            make_discrete_delay([(quarter, 1.0), (half, 2.0)]).bound_b(nodes.T)
        # at t = 5.5 both terms fail: the first term's error wins
        with pytest.raises(ZeroDivisionError, match="float division by zero"):
            make_discrete_delay([(half, 1.0), (pole, 2.0)]).bound_b(nodes)
        with pytest.raises(ZeroDivisionError, match="cannot be raised to a negative power"):
            make_discrete_delay([(pole, 1.0), (half, 2.0)]).bound_b(nodes)

    def test_derived_bound_of_a_node_array_is_the_float_sums(self):
        coefs = [parse_expression(c) for c, _ in self.TERMS]
        op = make_discrete_delay([(c, d) for c, (_, d) in zip(coefs, self.TERMS)])
        nodes = np.linspace(-5.0, 40.0, 3 * 65).reshape(3, 65)
        expected = [[sum(max(c(t), 0.0) for c in coefs) for t in row] for row in nodes.tolist()]
        assert op.bound_b(nodes).tobytes() == np.array(expected).tobytes()

    @pytest.mark.parametrize(
        "build",
        [
            lambda: make_discrete_delay([(1.0, 2.0), (0.5, 3.5), (0.1, 0.25)]),
            lambda: KERNEL_CATALOG["app2"].build({"a2": 0.3, "a3": 0.7}),
            lambda: KERNEL_CATALOG["app3"].build({}),
        ],
        ids=["discrete", "app2", "app3"],
    )
    def test_tau_and_sigma_of_an_array_are_the_float_reads(self, build):
        op = build()
        ts = np.linspace(-3.0, 50.0, 64)
        assert op.tau(ts).tolist() == [op.tau(t) for t in ts.tolist()]
        assert op.sigma(ts).tolist() == [op.sigma(t) for t in ts.tolist()]
        assert op.tau(ts.reshape(8, 8)).shape == (8, 8)

    def test_sigma_growth_check_reads_once(self):
        op = make_discrete_delay([(1.0, 2.0)])
        calls = []
        counted = dataclasses.replace(
            op, label="counted", read_points=lambda t: calls.append(np.shape(t)) or op.read_points(t)
        )
        assert sigma_growth_check(counted, 0.0, 50.0)
        assert calls == [(64, 1)]


class TestReadPointsAndCombine:
    """An operator is its read points and its combine: stacked rows of read
    values at one time give each row's evaluation, and read points must have
    one row per time."""

    def test_read_points_without_a_row_per_time_are_rejected(self):
        # the reads stacked first give (reads, times, 1) for a column of times
        op = AmnesiaOperator(
            "stacked",
            read_points=lambda t: np.array([t - 1.0, t - 1.5]),
            combine=lambda t, values: values,
            bound_b=lambda t: 1.0,
        )
        with pytest.raises(InvalidParameterError) as caught:
            op.tau(np.array([5.0, 6.0]))
        assert str(caught.value) == "read_points of a column of 2 times must have shape (2, reads), got (2, 2, 1)"
        shape = r"must have shape \(1, reads\), got \(2, 1, 1\)"
        with pytest.raises(InvalidParameterError, match=shape):
            op.sigma(5.0)
        with pytest.raises(InvalidParameterError, match=shape):
            op.evaluate(5.0, HistoryFunction.constant(1.0, 0.0, 6.0))
        with pytest.raises(InvalidParameterError, match=shape):
            audit_sign_bound(op, [5.0])

    @pytest.mark.parametrize(
        "build, t",
        [
            (lambda: make_discrete_delay([(parse_expression("1 + 0.5*cos(t)"), 1.0), (0.25, 2.5)]), 7.3),
            (lambda: KERNEL_CATALOG["app3"].build({"l": 3}), 11.0),
        ],
        ids=["discrete", "app3-l3"],
    )
    def test_stacked_rows_at_one_time_are_each_rows_evaluation(self, build, t):
        op = build()
        points = op.read_points(np.array([[t]]))
        assert np.unique(points).size == points.size  # no two reads share a time
        rng = np.random.default_rng(18)
        rows = rng.uniform(-2.0, 2.0, (6, points.size)) * 2.0 ** rng.integers(-30, 30, (6, points.size))
        rows[1] = -rows[0]  # the audit's pair of signs
        values = _row_sums(op.combine(np.full((len(rows), 1), t), rows))
        expected = []
        for row in rows:
            at = dict(zip(points[0].tolist(), row.tolist()))
            expected.append(op.evaluate(t, HistoryFunction(lambda s: at[s], float(points.min()), t)))
        assert values.tobytes() == np.array(expected).tobytes()


class TestDistributedDelay:
    def test_app2_zero_history_annihilates(self):
        op = KERNEL_CATALOG["app2"].build({})
        assert op.evaluate(10.0, HistoryFunction.constant(0.0, 0.0, 10.0)) == 0.0

    def test_app2_constant_history_bounds(self):
        op = KERNEL_CATALOG["app2"].build({})
        c = 0.25
        value = op.evaluate(10.0, HistoryFunction.constant(c, 0.0, 10.0))
        lower = c * math.e * (math.e - 1.0) * (1.0 - 1e-6)
        upper = c * math.exp(1.0 + c * c) * (math.e - 1.0)
        assert lower <= value <= upper

    def test_app2_window_and_lag(self):
        op = KERNEL_CATALOG["app2"].build({"a2": 1.0, "a3": 2.0})
        assert op.tau(10.0) == pytest.approx(9.0)    # newest read: t - min(a2, a3)*1
        assert op.sigma(10.0) == pytest.approx(6.0)  # oldest read: t - max(a2, a3)*2
        assert op.min_lag == pytest.approx(1.0)

    def test_app3_even_power_closed_form(self):
        # with the modulation coefficient zero the kernel is a*s^m * x(t-s-1)
        op = make_distributed_delay(
            lambda t, s, xs: 3.0 * s * xs[1],
            (0.0, 1.0),
            [lambda t, s: t - s - 5.0, lambda t, s: t - s - 1.0],
            bound_b=lambda t: 1.5,
        )
        h = HistoryFunction.constant(1.0, 0.0, 10.0)
        assert op.evaluate(10.0, h) == pytest.approx(1.5, abs=1e-12)

    def test_quadratic_kernel_exact(self):
        op = make_distributed_delay(
            lambda t, s, xs: s * s * xs[0],
            (0.0, 1.0),
            [lambda t, s: t - s - 1.0],
            bound_b=lambda t: 1.0 / 3.0,
        )
        h = HistoryFunction.constant(1.0, -3.0, 10.0)
        assert op.evaluate(10.0, h) == pytest.approx(1.0 / 3.0, abs=1e-14)

    def test_simpson_accuracy_on_smooth_history(self):
        # smooth small history keeps max(a1*s, x^2) = a1*s, so the integrand e^s * x(t-s) is smooth
        hist = HistoryFunction(lambda s: 0.5 * math.sin(1.3 * s), -30.0, 30.0)
        value = KERNEL_CATALOG["app2"].build({}).evaluate(10.0, hist)
        reference = composite_simpson(lambda s: np.exp(s) * hist.many((10.0 - s).ravel()).reshape(s.shape), 1.0, 2.0, 512)
        # Simpson's error bound (b - a) * h**4 * max|f''''| / 180 is about 9e-9 at h = 1/64
        assert 0.0 < abs(value - reference) < 1e-8

    @pytest.mark.parametrize("s_range", [(1.0, 2.0), (0.0, 1.0), (-0.3, 2.7), (1e-3, 1e3)])
    def test_weights_are_the_simpson_list(self, s_range):
        # kernel row i is the indicator of node i, so evaluation i returns weight i alone
        op = make_distributed_delay(
            lambda t, s, xs: (np.arange(s.size) == t).astype(float),
            s_range,
            [lambda t, s: t - s],
            bound_b=lambda t: 1.0,
        )
        hist = HistoryFunction.constant(1.0, -1e3, PANELS + 1.0)
        weights = op.evaluate_many(np.arange(PANELS + 1.0), hist)
        assert weights.tolist() == simpson_nodes_weights(*s_range, PANELS)[1]

    def test_delay_map_independent_of_s(self):
        # delay maps get the whole node array; one that ignores s returns a scalar
        op = make_distributed_delay(
            lambda t, s, xs: s * xs[0] * xs[1],
            (0.0, 1.0),
            [lambda t, s: t - 1.0, lambda t, s: t - 2.0 * s - 1.0],
            bound_b=lambda t: 0.5,
        )
        h = HistoryFunction(lambda s: s, 0.0, 10.0)
        assert op.tau(5.0) == 4.0
        assert op.sigma(5.0) == 2.0
        nodes = simpson_nodes_weights(0.0, 1.0, PANELS)[0]
        reads = op.read_points(np.array([[5.0]]))
        assert reads.shape == (1, 2 * len(nodes))
        assert sorted(reads[0].tolist()) == sorted([4.0] * len(nodes) + [5.0 - 2.0 * s - 1.0 for s in nodes])
        # integral of s * 4 * (4 - 2s) over [0, 1] = 8 - 8/3, exact for Simpson
        assert op.evaluate(5.0, h) == pytest.approx(16.0 / 3.0, abs=1e-12)

    def test_requires_bound(self):
        with pytest.raises(InvalidParameterError):
            make_distributed_delay(
                lambda t, s, xs: xs[0],
                (0.0, 1.0),
                [lambda t, s: t - s - 1.0],
                bound_b=None,
            )

    def test_history_domain_error_propagates(self):
        op = KERNEL_CATALOG["app2"].build({})
        short = HistoryFunction.constant(1.0, 9.5, 10.0)  # does not reach back to t - 4
        with pytest.raises(HistoryDomainError):
            op.evaluate(10.0, short)


def _bump_outside_window(op, t, width=0.05):
    """A perturbation supported strictly inside (tau(t), t]."""
    tau = op.tau(t)
    lo = tau + 0.25 * (t - tau)
    hi = tau + 0.75 * (t - tau)

    def bump(s):
        if lo < s < hi:
            u = (s - lo) / (hi - lo)
            return math.sin(math.pi * u) ** 2
        return 0.0

    return bump


class TestAmnesiaProperty:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_discrete_ignores_values_after_tau(self, seed):
        rng = np.random.default_rng(seed)
        n_terms = int(rng.integers(1, 4))
        terms = [(float(rng.uniform(-2, 2)), float(rng.uniform(0.5, 4.0))) for _ in range(n_terms)]
        op = make_discrete_delay(terms)
        t = float(rng.uniform(6.0, 20.0))
        base = random_history(seed + 1, op.sigma(t) - 1.0, t)
        bump = _bump_outside_window(op, t)
        perturbed = HistoryFunction(lambda s: base(s) + bump(s), op.sigma(t) - 1.0, t)
        assert abs(op.evaluate(t, perturbed) - op.evaluate(t, base)) <= 1e-12

    def test_distributed_ignores_values_after_tau(self):
        op = KERNEL_CATALOG["app2"].build({})
        t = 10.0
        base = random_history(5, op.sigma(t) - 1.0, t, amplitude=0.5)
        bump = _bump_outside_window(op, t)
        perturbed = HistoryFunction(lambda s: base(s) + bump(s), op.sigma(t) - 1.0, t)
        assert abs(op.evaluate(t, perturbed) - op.evaluate(t, base)) <= 1e-12


class TestAuditSignBound:
    def test_positive_linear_zero_violations(self):
        op = make_discrete_delay([(lambda t: 1.0 / t, 6.0), (lambda t: (t - 1.0) / t, 8.0)])
        report = audit_sign_bound(op, t_samples=np.linspace(9.0, 49.0, 10), trials=5, seed=1)
        assert report.checked == 100
        assert report.passed
        assert report.worst_margin >= 0.0

    def test_sign_flipped_operator_flagged(self):
        op = make_discrete_delay([(-1.0, 1.0)], bound_b=lambda t: 1.0)
        report = audit_sign_bound(
            op,
            t_samples=[5.0],
            trials=1,
            history_factory=lambda t, k: HistoryFunction.constant(1.0, t - 2.0, t),
        )
        assert len(report.violations) >= 1
        first = report.violations[0]
        assert first.margin < 0.0

    def test_app2_catalog_bound_holds(self):
        op = KERNEL_CATALOG["app2"].build({})
        report = audit_sign_bound(op, t_samples=np.linspace(5.0, 25.0, 5), trials=4, seed=3, amplitude=0.1)
        assert report.passed

    @pytest.mark.parametrize("kernel, amplitude", [("app2", 0.1), ("app3", 1.0)])
    def test_negative_trial_matches_evaluated_negated_history(self, kernel, amplitude):
        # The audit evaluates both signs in one combine call; evaluating the
        # positive history and its negation one at a time, and reading each
        # over the window, gives the same report bit for bit.
        op = KERNEL_CATALOG[kernel].build({})
        if kernel == "app3":  # a bound too large, so that violations are compared too
            op = dataclasses.replace(op, bound_b=lambda t: 40.0)
        checks = []
        for t in [9.0, 14.5]:
            lo = op.sigma(t)
            points = op.read_points(np.array([[t]]))[0]
            window = np.unique(np.concatenate([np.linspace(lo, t, 257), points]))
            for trial in range(2):
                base = random_history(4 * 1_000_003 + trial, lo - 1e-6, t, amplitude=amplitude, positive=True)
                negated = HistoryFunction(lambda s: -base(s), lo - 1e-6, t)
                for sign, hist, pick in ((+1, base, min), (-1, negated, max)):
                    value = op.evaluate(t, hist)
                    bound_term = op.bound_b(t) * pick(hist.many(window).tolist())
                    slack = value - bound_term if sign > 0 else bound_term - value
                    checks.append((t, trial, sign, value, bound_term, slack))
        report = audit_sign_bound(op, [9.0, 14.5], trials=2, seed=4, amplitude=amplitude)
        assert report.checked == len(checks) == 8
        assert report.worst_margin == min(check[-1] for check in checks)
        assert report.violations == tuple(
            AuditViolation(*check) for check in checks if check[-1] < -1e-6 * max(1.0, abs(check[-2]))
        )
        assert report.passed == (kernel == "app2")

    def test_app3_stated_bound_fails_audit(self):
        # The commonly quoted bound a/m is larger than the kernel integral
        # a/(m+1) and constant histories expose it.
        entry = KERNEL_CATALOG["app3"]
        op = entry.build({"a": 3.0, "b": 0.1, "m": 1.0, "l": 2})
        stated = app3_stated_bound(3.0, 0.1, 1.0, 2)
        bad = dataclasses.replace(op, bound_b=lambda t: stated)
        report = audit_sign_bound(
            bad,
            t_samples=[20.0],
            trials=1,
            history_factory=lambda t, k: HistoryFunction.constant(1.0, t - 7.0, t),
        )
        assert not report.passed

    def test_sigma_growth_check(self):
        op = make_discrete_delay([(1.0, 2.0)])
        assert sigma_growth_check(op, 0.0, 50.0)
        frozen = dataclasses.replace(
            op,
            label="frozen window",
            read_points=lambda t: np.hstack([t - 2.0, np.zeros_like(t)]),  # window start never advances past 0
        )
        assert not sigma_growth_check(frozen, 0.0, 50.0)
        with pytest.raises(InvalidParameterError):
            sigma_growth_check(op, 5.0, 5.0)

    def test_audit_requires_bound(self):
        op = make_distributed_delay(
            lambda t, s, xs: xs[0],
            (0.0, 1.0),
            [lambda t, s: t - s - 1.0],
            bound_b=lambda t: 1.0,
        )
        stripped = dataclasses.replace(op, bound_b=None)
        with pytest.raises(InvalidParameterError):
            audit_sign_bound(stripped, t_samples=[5.0])


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: random_history(0, 1.0, 1.0), r"empty history domain \[1.0, 1.0\]"),
        (lambda: make_distributed_delay(lambda t, s, xs: xs[0], (1.0, 1.0), [lambda t, s: t - s], bound_b=lambda t: 1.0),
         r"s_range must be increasing, got \[1.0, 1.0\]"),
        (lambda: make_distributed_delay(lambda t, s, xs: 0.0, (0.0, 1.0), [], bound_b=lambda t: 1.0),
         "at least one delay map is required"),
        (lambda: audit_sign_bound(make_discrete_delay([(1.0, 1.0)]), [5.0], trials=0), "trials must be >= 1, got 0"),
        (lambda: audit_sign_bound(
            dataclasses.replace(make_discrete_delay([(1.0, 1.0)]), read_points=lambda t: t + 0.0), [5.0]),
         r"sigma\(t\) must be below t; sigma\(5.0\) = 5.0"),
        # 1e308 * 2.0 overflows to inf, without a numpy warning
        (lambda: audit_sign_bound(
            dataclasses.replace(make_discrete_delay([(1.0, 1.0)]), read_points=lambda t: t - np.array([1.0, 1e308]) * 2.0),
            [5.0]),
         r"sigma\(t\) must be finite; sigma\(5.0\) = -inf"),
    ],
    ids=["history-domain", "s-range", "no-delay-map", "audit-trials", "audit-reads-at-t", "audit-reads-overflow"],
)
def test_construction_and_audit_arguments_are_checked(build, message):
    with pytest.raises(InvalidParameterError, match=message):
        build()


def test_sigma_growth_check_fails_a_window_start_that_never_moves():
    op = make_discrete_delay([(1.0, 2.0)])
    pinned = dataclasses.replace(op, read_points=lambda t: np.hstack([t - 2.0, np.full_like(t, -5.0)]))
    assert not sigma_growth_check(pinned, 0.0, 50.0)
