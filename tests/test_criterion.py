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
    integral_over_amnesia,
    tetration_proof_trace,
    theorem_verdict,
    tower_limit,
    zeta_fixed_point,
)

from _oracles import bisect_root, dense_infimum


class TestIntegralOverAmnesia:
    def test_constant_rate_exact(self):
        assert integral_over_amnesia(lambda s: 0.7, lambda t: t - 3.0, 12.0) == pytest.approx(2.1, abs=1e-13)

    def test_scenario1_constant_bound(self):
        q = 10.0
        assert integral_over_amnesia(lambda s: 1.0 / q, lambda t: t - 6.0, 50.0) == pytest.approx(0.6, abs=1e-13)

    def test_linear_rate_exact(self):
        assert integral_over_amnesia(lambda s: s, lambda t: t - 1.0, 1.0) == pytest.approx(0.5, abs=1e-14)

    def test_rejects_degenerate_window(self):
        with pytest.raises(InvalidParameterError):
            integral_over_amnesia(lambda s: 1.0, lambda t: t, 5.0)
        with pytest.raises(InvalidParameterError):
            integral_over_amnesia(lambda s: 1.0, lambda t: t + 1.0, 5.0)


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

        est = estimate_liminf_w(lambda s: 1.0 + math.sin(s), lambda t: t - 1.0, 0.0, 60.0)
        assert est.trend is Trend.OSCILLATING
        assert est.w_hat == pytest.approx(oracle, abs=2e-3)
        assert est.w_hat >= oracle - 1e-12  # sampled infimum cannot undershoot

    def test_drift_trends(self):
        up = estimate_liminf_w(lambda s: 1e-3 * s, lambda t: t - 1.0, 1.0, 81.0)
        assert up.trend is Trend.INCREASING
        down = estimate_liminf_w(lambda s: 1e-3 * (100.0 - s), lambda t: t - 1.0, 1.0, 81.0)
        assert down.trend is Trend.DECREASING

    def test_nested_window_infima_monotone(self):
        est = estimate_liminf_w(lambda s: 1.0 + math.sin(s), lambda t: t - 1.0, 0.0, 60.0)
        infima = [v for _, v in est.window_infima]
        assert all(infima[i] <= infima[i + 1] + 1e-15 for i in range(len(infima) - 1))

    def test_w_hat_is_tail_infimum(self):
        est = estimate_liminf_w(lambda s: 1.0 + math.sin(s), lambda t: t - 1.0, 0.0, 60.0)
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
