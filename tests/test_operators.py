import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddeosc import (
    HistoryDomainError,
    HistoryFunction,
    InvalidParameterError,
    audit_sign_bound,
    make_discrete_delay,
    make_distributed_delay,
    random_history,
)
from ddeosc.operators import _ArrayHistory, _fma_dots, sigma_growth_check
from ddeosc.specfile import KERNEL_CATALOG, app3_stated_bound

from _oracles import fraction_fma_dot, scalar_random_history


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
    def test_fma_chain_is_exact(self, batch):
        # cosines like the history's, and factors spread over 2^-80 .. 2^80 so
        # that the low parts straddle many exponents and rounding to odd acts
        rng = np.random.default_rng(batch)
        rows = 800
        if batch % 2:
            coefs = rng.uniform(-1.0, 1.0, (2, 5)) * 2.0 ** rng.integers(-80, 80, (2, 5))
            values = rng.uniform(-1.0, 1.0, (rows, 2, 5)) * 2.0 ** rng.integers(-80, 80, (rows, 2, 5))
        else:
            coefs = rng.uniform(-1.0, 1.0, (2, 5))
            values = np.cos(rng.uniform(0.0, 100.0, (rows, 2, 5)))
        expected = [[fraction_fma_dot(c, v) for c, v in zip(coefs, row)] for row in values.tolist()]
        assert np.array_equal(_fma_dots(coefs, values), expected)

    def test_products_near_underflow_take_np_dot(self):
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
        assert np.array_equal(_fma_dots(coefs, values), expected)

    def test_signed_zeros_as_np_dot(self):
        # -0.0 products: np.dot of one term is the bare product, -0.0, and a
        # longer chain starts from +0.0, so that its zero sum is +0.0
        for coefs, sign in (([[-1.0], [3.0]], True), ([[-1.0, -2.0, -0.5], [3.0, -1.0, 2.0]], False)):
            coefs = np.array(coefs)
            values = np.where(coefs > 0.0, -0.0, 0.0)[None]
            expected = np.array([[np.dot(c, v) for c, v in zip(coefs, values[0])]])
            dots = _fma_dots(coefs, values)
            assert dots.tolist() == expected.tolist() == [[0.0, 0.0]]
            assert np.signbit(dots).tolist() == np.signbit(expected).tolist() == [[sign, sign]]

    def test_double_rounding_ties_round_to_odd(self):
        # 1 + 2^-52 plus a product 2^-53 - 2^-113, just below a tie: TwoSum
        # gives th = 1 + 2^-51 and tl = -2^-53, and tl + pl rounds to -2^-53;
        # only a sum rounded to odd keeps th + v off the tie and gives 1 + 2^-52
        coefs = np.array([[1.0, 1.0 + 2.0**-30], [1.0, -(1.0 + 2.0**-30)]])
        values = np.array([[[1.0 + 2.0**-52, 2.0**-53 * (1.0 - 2.0**-30)], [1.0 + 2.0**-52, 2.0**-53 * (1.0 - 2.0**-30)]]])
        expected = [[fraction_fma_dot(c, v) for c, v in zip(coefs, values[0])]]
        assert expected == [[1.0 + 2.0**-52, 1.0 + 2.0**-52]]
        assert np.array_equal(_fma_dots(coefs, values), expected)

    @pytest.mark.parametrize(
        "history",
        [
            HistoryFunction.constant(1.0, -2.0),
            HistoryFunction.exponential(0.3, -2.0),
            random_history(4, -2.0),
            HistoryFunction(lambda t: t, -2.0),
        ],
        ids=["constant", "exponential", "random", "scalar"],
    )
    @pytest.mark.parametrize("bad", [0.5, -3.0])
    def test_many_raises_the_call_message_for_the_first_bad_time(self, history, bad):
        with pytest.raises(HistoryDomainError) as call:
            history(bad)
        with pytest.raises(HistoryDomainError) as many:
            history.many([-1.0, bad, 0.7, -2.5])
        assert str(many.value) == str(call.value) == f"history evaluated at t={bad}, outside [-2.0, 0.0]"

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
        many = _ArrayHistory.many
        monkeypatch.setattr(_ArrayHistory, "__call__", lambda self, t: calls.append(t) or float(many(self, [t])[0]))
        monkeypatch.setattr(_ArrayHistory, "many", lambda self, ts: reads.append(len(ts)) or many(self, ts))
        report = audit_sign_bound(op, [10.0, 12.0, 14.0], trials=3)
        assert report.checked == 18
        assert calls == []
        assert len(reads) == 3 * 3 * 3  # per time and trial: the window and two evaluations


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
            quadrature_panels=4,
        )
        h = HistoryFunction.constant(1.0, -3.0, 10.0)
        assert op.evaluate(10.0, h) == pytest.approx(1.0 / 3.0, abs=1e-14)

    def test_simpson_order_on_smooth_history(self):
        # smooth small history keeps max(a1*s, x^2) = a1*s, so the integrand is smooth
        hist = HistoryFunction(lambda s: 0.5 * math.sin(1.3 * s), -30.0, 30.0)

        def build(panels):
            return KERNEL_CATALOG["app2"].build({}) if panels is None else make_distributed_delay(
                lambda t, s, xs: np.exp(np.maximum(s, xs[0] ** 2)) * xs[1],
                (1.0, 2.0),
                [lambda t, s: t - s, lambda t, s: t - s],
                bound_b=lambda t: math.e * (math.e - 1.0),
                quadrature_panels=panels,
            )

        reference = build(512).evaluate(10.0, hist)
        err8 = abs(build(8).evaluate(10.0, hist) - reference)
        err16 = abs(build(16).evaluate(10.0, hist) - reference)
        assert err8 / err16 > 10.0

    def test_delay_map_independent_of_s(self):
        # delay maps get the whole node array; one that ignores s returns a scalar
        op = make_distributed_delay(
            lambda t, s, xs: s * xs[0] * xs[1],
            (0.0, 1.0),
            [lambda t, s: t - 1.0, lambda t, s: t - 2.0 * s - 1.0],
            bound_b=lambda t: 0.5,
            quadrature_panels=4,
        )
        h = HistoryFunction(lambda s: s, 0.0, 10.0)
        assert op.tau(5.0) == 4.0
        assert op.sigma(5.0) == 2.0
        assert sorted(op.read_points(5.0)) == [2.0, 2.5, 3.0, 3.5, 4.0] + [4.0] * 5
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
            history_factory=lambda t, k, sign: HistoryFunction.constant(float(sign), t - 2.0, t),
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
        # The default audit reuses each positive trial's window samples for
        # the negated history; reading that history instead gives the same
        # report.
        op = KERNEL_CATALOG[kernel].build({})
        if kernel == "app3":  # a bound too large, so that violations are compared too
            op = op.__class__(**{**vars(op), "bound_b": lambda t: 40.0})

        def factory(t, trial, sign):
            lo = op.sigma(t)
            base = random_history(4 * 1_000_003 + trial, lo - 1e-6, t, amplitude=amplitude, positive=True)
            return base if sign > 0 else HistoryFunction(lambda s: -base(s), lo - 1e-6, t)

        kwargs = dict(t_samples=[9.0, 14.5], trials=2, seed=4, amplitude=amplitude)
        report = audit_sign_bound(op, **kwargs)
        assert report == audit_sign_bound(op, history_factory=factory, **kwargs)
        assert report.passed == (kernel == "app2")

    def test_app3_stated_bound_fails_audit(self):
        # The commonly quoted bound a/m is larger than the kernel integral
        # a/(m+1) and constant histories expose it.
        entry = KERNEL_CATALOG["app3"]
        op = entry.build({"a": 3.0, "b": 0.1, "m": 1.0, "l": 2})
        stated = app3_stated_bound(3.0, 0.1, 1.0, 2)
        bad = op.__class__(
            label=op.label,
            evaluate_many=op.evaluate_many,
            tau=op.tau,
            sigma=op.sigma,
            bound_b=lambda t: stated,
            read_points=op.read_points,
            min_lag=op.min_lag,
        )
        report = audit_sign_bound(
            bad,
            t_samples=[20.0],
            trials=1,
            history_factory=lambda t, k, sign: HistoryFunction.constant(float(sign), t - 7.0, t),
        )
        assert not report.passed

    def test_sigma_growth_check(self):
        op = make_discrete_delay([(1.0, 2.0)])
        assert sigma_growth_check(op, 0.0, 50.0)
        frozen = op.__class__(
            label="frozen window",
            evaluate_many=op.evaluate_many,
            tau=op.tau,
            sigma=lambda t: 0.0,  # window start never advances
            bound_b=op.bound_b,
            read_points=op.read_points,
            min_lag=op.min_lag,
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
        stripped = op.__class__(
            label=op.label,
            evaluate_many=op.evaluate_many,
            tau=op.tau,
            sigma=op.sigma,
            bound_b=None,
            read_points=op.read_points,
            min_lag=op.min_lag,
        )
        with pytest.raises(InvalidParameterError):
            audit_sign_bound(stripped, t_samples=[5.0])
