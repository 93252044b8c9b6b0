import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddeosc import (
    INV_E,
    THRESHOLD,
    DomainError,
    InvalidParameterError,
    TowerDecision,
    TowerOutcome,
    Trend,
    VerdictOutcome,
    estimate_liminf_w,
    tetration_proof_trace,
    theorem_verdict,
    tower_limit,
    zeta_fixed_point,
)

from ddeosc import criterion
from ddeosc.expressions import parse_expression
from ddeosc.quadrature import PANELS, composite_simpson
from ddeosc.specfile import KERNEL_CATALOG

from _oracles import bisect_root, dense_infimum, looped_simpson


class TestIntegralOverAmnesia:
    """The integral of b over [tau(t), t], summed as the criterion sums it."""

    @staticmethod
    def _integral(b, tau, t):
        return composite_simpson(b, tau(t), t, PANELS)

    def test_constant_rate_exact(self):
        assert self._integral(lambda s: 0.7, lambda t: t - 3.0, 12.0) == pytest.approx(2.1, abs=1e-13)

    def test_scenario1_constant_bound(self):
        q = 10.0
        assert self._integral(lambda s: 1.0 / q, lambda t: t - 6.0, 50.0) == pytest.approx(0.6, abs=1e-13)

    def test_linear_rate_exact(self):
        assert self._integral(lambda s: s, lambda t: t - 1.0, 1.0) == pytest.approx(0.5, abs=1e-14)

    def test_rejects_degenerate_window(self):
        for tau in (lambda t: t, lambda t: t + 1.0):
            with pytest.raises(InvalidParameterError, match=r"^tau\(t\) must lie strictly below t; tau\(5\.0\) = "):
                estimate_liminf_w(lambda s: 1.0, tau, 5.0, 40.0)


class TestEstimateLiminf:
    def test_constant_case(self):
        est = estimate_liminf_w(lambda s: 1.0, lambda t: t - 1.0, 0.0, 40.0)
        assert est.w_hat == pytest.approx(1.0, abs=1e-12)
        assert est.trend is Trend.STABLE

    def test_app2_constant_bound_value(self):
        b = math.e * (math.e - 1.0)
        est = estimate_liminf_w(lambda s: b, lambda t: t - 1.0, 4.0, 16.0)
        assert est.w_hat == pytest.approx(b, abs=1e-6)
        assert est.trend is Trend.STABLE

    def test_oscillating_rate_against_dense_oracle(self):
        # I(t) = integral of 1 + sin over [t-1, t]; antiderivative is s - cos s.
        exact = lambda t: (t - math.cos(t)) - ((t - 1.0) - math.cos(t - 1.0))
        oracle = dense_infimum(exact, 30.0, 60.0)
        assert oracle == pytest.approx(1.0 - 2.0 * math.sin(0.5), abs=1e-8)

        est = estimate_liminf_w(parse_expression("1.0 + sin(t)"), lambda t: t - 1.0, 0.0, 60.0)
        assert est.trend is Trend.OSCILLATING
        assert est.w_hat == pytest.approx(oracle, abs=2e-3)
        assert est.w_hat >= oracle - 1e-12  # sampled infimum cannot undershoot

    def test_drift_trends(self):
        up = estimate_liminf_w(lambda s: 1e-3 * s, lambda t: t - 1.0, 1.0, 81.0)
        assert up.trend is Trend.INCREASING
        down = estimate_liminf_w(lambda s: 1e-3 * (100.0 - s), lambda t: t - 1.0, 1.0, 81.0)
        assert down.trend is Trend.DECREASING

    @pytest.mark.parametrize(
        "bound, trend",
        [("(t+5)/(20.0*(t+6))", Trend.INCREASING), ("(t+7)/(20.0*(t+6))", Trend.DECREASING)],
        ids=["concave", "convex"],
    )
    def test_a_monotone_saturating_tail_is_not_oscillating(self, bound, trend):
        # (8 - ln((t+6)/(t-2)))/20 and (8 + ln((t+6)/(t-2)))/20 saturate
        # monotonically; their curvature leaves a late residual above the
        # ripple tolerance
        est = estimate_liminf_w(parse_expression(bound), lambda t: t - 8.0, 16.0, 256.0)
        assert est.trend is trend

    def test_nested_window_infima_monotone(self):
        est = estimate_liminf_w(parse_expression("1.0 + sin(t)"), lambda t: t - 1.0, 0.0, 60.0)
        infima = [v for _, v in est.window_infima]
        assert all(infima[i] <= infima[i + 1] + 1e-15 for i in range(len(infima) - 1))

    def test_w_hat_is_tail_infimum(self):
        est = estimate_liminf_w(parse_expression("1.0 + sin(t)"), lambda t: t - 1.0, 0.0, 60.0)
        mid = 30.0
        tail = est.sample_values[est.sample_times >= mid - 1e-12]
        assert est.w_hat == float(np.min(tail))

    def test_parameter_errors(self):
        with pytest.raises(InvalidParameterError):
            estimate_liminf_w(lambda s: 1.0, lambda t: t - 1.0, 10.0, 10.0)
        with pytest.raises(InvalidParameterError):
            estimate_liminf_w(lambda s: 1.0, lambda t: t - 1.0, 0.0, 10.0, grid_points=5)
        for t_start, t_end in ((0.0, math.inf), (-math.inf, 10.0), (math.nan, 10.0)):
            with pytest.raises(InvalidParameterError):
                estimate_liminf_w(lambda s: 1.0, lambda t: t - 1.0, t_start, t_end)


def _rate_expr(kind, scale, r=0.0, omega=1.0, phi=0.0, k=0.0):
    """The analyze_sweep benchmark's rate shapes b(s) = scale * g(s) as expressions.

    ``constant``: g = 1; ``sin``: g = 1 + r sin(omega s + phi); ``exp``:
    g = 1 + k cos(omega s + phi) exp(r sin(omega s + phi)).
    """
    if kind == "constant":
        return repr(scale)
    arg = f"{omega!r}*t + {phi!r}"
    if kind == "sin":
        return f"{scale!r}*(1 + {r!r}*sin({arg}))"
    return f"{scale!r}*(1 + {k!r}*cos({arg})*exp({r!r}*sin({arg})))"


RATES = {
    "constant": _rate_expr("constant", 1.0 / (6.0 * math.e)),
    "sin": _rate_expr("sin", 0.3, r=0.4, omega=0.7, phi=1.3),
    "exp": _rate_expr("exp", 0.25, r=0.6, omega=0.9, phi=4.1, k=0.3 * math.exp(-0.6)),
}
TAUS = {
    "lambda": lambda t: t - 6.0,
    "tau_expr": parse_expression("t - 2.75"),
    "tau_expr_nonlinear": parse_expression("0.9*t - 1.5"),
}


class TestOnePassSamples:
    """The criterion evaluates b once per row block of Simpson nodes; each
    sample keeps the bits of the frozen one-loop Simpson rule at its time."""

    @pytest.mark.parametrize("grid_points, panels", [(512, PANELS), (1200, PANELS), (300, 128)])
    @pytest.mark.parametrize("tau_name", list(TAUS))
    @pytest.mark.parametrize("rate", list(RATES))
    def test_samples_are_the_looped_rule(self, rate, tau_name, grid_points, panels):
        b, tau = parse_expression(RATES[rate]), TAUS[tau_name]
        est = estimate_liminf_w(b, tau, 10.0, 110.0, grid_points, panels)
        expected = [looped_simpson(b, tau(t), t, panels) for t in est.sample_times.tolist()]
        assert est.sample_values.tobytes() == np.array(expected).tobytes()

    def test_grids_beyond_one_block(self):
        assert 512 * (PANELS + 1) > criterion._BLOCK_ELEMENTS
        assert 1200 * (PANELS + 1) > 4 * criterion._BLOCK_ELEMENTS
        assert 1 < criterion._BLOCK_ELEMENTS // (128 + 1) < 300

    @pytest.mark.parametrize("kernel, window", [("app2", (4.0, 16.0)), ("app3", (12.0, 52.0))])
    def test_operator_tau_reads_one_column(self, kernel, window):
        op = KERNEL_CATALOG[kernel].build({})
        est = estimate_liminf_w(op.bound_b, op.tau, *window)
        expected = [looped_simpson(op.bound_b, op.tau(t), t, PANELS) for t in est.sample_times.tolist()]
        assert est.sample_values.tobytes() == np.array(expected).tobytes()

    def test_b_is_called_once_per_block(self):
        calls = []
        b = parse_expression(RATES["sin"])
        est = estimate_liminf_w(lambda s: calls.append(s.shape) or b(s), TAUS["lambda"], 10.0, 110.0)
        rows = criterion._BLOCK_ELEMENTS // (PANELS + 1)
        assert calls == [(min(rows, 512 - i), PANELS + 1) for i in range(0, 512, rows)]
        assert len(est.sample_values) == 512


class TestCriterionErrorOrder:
    """Errors surface as in a loop over the sample times: tau(t), the check
    tau(t) < t, then b at t's nodes, one time after another.  The window
    [0, 511] puts a sample at every integer, and each pair of failing times
    below shares a row block."""

    def test_b_fails_before_tau(self):
        with pytest.raises(ZeroDivisionError, match="cannot be raised to a negative power"):
            estimate_liminf_w(parse_expression("(t-298)**-1.0"), parse_expression("t - 1 - 0*(1/(t-300))"), 0.0, 511.0)

    def test_tau_fails_before_b(self):
        with pytest.raises(ZeroDivisionError, match="float division by zero"):
            estimate_liminf_w(parse_expression("(t-7)**-1.0"), parse_expression("t - 1 - 0*(1/(t-5))"), 0.0, 511.0)

    def test_b_fails_before_tau_reaches_t(self):
        with pytest.raises(ZeroDivisionError):
            estimate_liminf_w(parse_expression("1/(t - 98)"), parse_expression("2*t - 100"), 0.0, 511.0)

    def test_tau_reaches_t_before_b_fails(self):
        with pytest.raises(InvalidParameterError, match=r"tau\(100\.0\) = 100\.0$"):
            estimate_liminf_w(parse_expression("1/(t - 102)"), parse_expression("2*t - 100"), 0.0, 511.0)

    def test_pairs_share_a_block(self):
        rows = criterion._BLOCK_ELEMENTS // (PANELS + 1)
        for first, second in ((298, 300), (5, 7), (98, 100), (100, 102)):
            assert first // rows == second // rows

    def test_non_finite_sample_reported_after_every_time_ran(self):
        with pytest.raises(DomainError, match=r"not finite at t=10\.0"):
            estimate_liminf_w(parse_expression("t*1e308*10"), lambda t: t - 1.0, 10.0, 110.0)


class TestTheoremVerdict:
    def test_strict_at_threshold(self):
        v = theorem_verdict(INV_E)
        assert v.outcome is VerdictOutcome.INCONCLUSIVE
        assert v.margin == 0.0

    def test_flips_just_above(self):
        assert theorem_verdict(INV_E + 1e-12).outcome is VerdictOutcome.GUARANTEED

    def test_typical_values(self):
        assert theorem_verdict(0.5).outcome is VerdictOutcome.GUARANTEED
        assert theorem_verdict(math.e * (math.e - 1.0)).outcome is VerdictOutcome.GUARANTEED
        assert theorem_verdict(0.2).outcome is VerdictOutcome.INCONCLUSIVE

    def test_accepts_estimate(self):
        est = estimate_liminf_w(lambda s: 1.0, lambda t: t - 1.0, 0.0, 40.0)
        v = theorem_verdict(est)
        assert v.outcome is VerdictOutcome.GUARANTEED
        assert v.threshold == THRESHOLD


class TestTetrationProofTrace:
    def test_above_threshold_diverges(self):
        trace = tetration_proof_trace(1.0)
        assert trace.a == pytest.approx(math.e)
        assert trace.decision is TowerDecision.DIVERGES_HENCE_GUARANTEED
        assert trace.tower_result.outcome is TowerOutcome.DIVERGED
        assert trace.limit_if_convergent is None
        finite = [v for v in trace.iterates if math.isfinite(v)]
        assert all(b > a for a, b in zip(finite, finite[1:]))

    def test_below_threshold_converges(self):
        trace = tetration_proof_trace(0.2)
        assert trace.decision is TowerDecision.CONVERGES_HENCE_INCONCLUSIVE
        # limit solves y = a^y, equivalently y = -W(-0.2)/0.2
        y = trace.limit_if_convergent
        assert y == pytest.approx(1.2958555090953685, abs=1e-10)
        assert y == pytest.approx(trace.a ** y, abs=1e-9)

    def test_boundary_rate(self):
        trace = tetration_proof_trace(INV_E)
        assert trace.decision is TowerDecision.CONVERGES_HENCE_INCONCLUSIVE
        assert trace.limit_if_convergent == pytest.approx(math.e, abs=1e-9)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(InvalidParameterError):
            tetration_proof_trace(0.0)
        with pytest.raises(InvalidParameterError):
            tetration_proof_trace(-0.3)

    @given(st.floats(min_value=1e-3, max_value=2.0, allow_nan=False))
    @settings(max_examples=80, deadline=None)
    def test_three_way_agreement(self, w):
        trace = tetration_proof_trace(w)  # raises CrossValidationError on any disagreement
        assert (trace.decision is TowerDecision.DIVERGES_HENCE_GUARANTEED) == (w > INV_E)


class TestZetaFixedPoint:
    def test_boundary_value(self):
        assert zeta_fixed_point(INV_E) == pytest.approx(math.e, abs=1e-9)

    def test_against_bisection_oracle(self):
        expected = 1.2958555090953685
        assert bisect_root(lambda z: z - math.exp(0.2 * z), 1.0, math.e) == pytest.approx(expected, abs=1e-12)
        assert zeta_fixed_point(0.2) == pytest.approx(expected, abs=1e-9)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            zeta_fixed_point(0.4)
        with pytest.raises(DomainError):
            zeta_fixed_point(0.0)
        with pytest.raises(DomainError):
            zeta_fixed_point(-0.1)

    @given(st.floats(min_value=1e-3, max_value=INV_E - 1e-4, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_consistency_with_tower(self, w):
        zeta = zeta_fixed_point(w)
        assert abs(zeta - math.exp(zeta * w)) <= 1e-9
        res = tower_limit(math.exp(w), tol=1e-12, max_iter=30_000)
        assert res.outcome is TowerOutcome.CONVERGED
        assert abs(res.limit - zeta) <= 1e-8
