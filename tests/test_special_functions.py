import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddeosc import (
    BRANCH_POINT,
    EULER_LOWER,
    EULER_UPPER,
    DomainError,
    InvalidParameterError,
    TowerOutcome,
    euler_interval_contains,
    lambert_w0,
    power_tower,
    tower_limit,
    tower_limit_via_lambert,
)

from _oracles import bisect_root, iterate_tower


class TestLambertW0:
    def test_zero(self):
        assert lambert_w0(0.0) == 0.0

    def test_e_maps_to_one(self):
        assert lambert_w0(math.e) == pytest.approx(1.0, abs=1e-14)

    def test_branch_point(self):
        assert lambert_w0(BRANCH_POINT) == -1.0

    def test_against_bisection_oracle(self):
        # f(w) = w e^w - 2.5 on [0, 2]
        expected = 0.958586356728703
        assert bisect_root(lambda w: w * math.exp(w) - 2.5, 0.0, 2.0) == pytest.approx(expected, abs=1e-13)
        assert lambert_w0(2.5) == pytest.approx(expected, abs=1e-12)

    def test_domain_error_below_branch(self):
        with pytest.raises(DomainError):
            lambert_w0(BRANCH_POINT - 1e-9)
        with pytest.raises(DomainError):
            lambert_w0(float("nan"))

    def test_infinity_maps_to_infinity(self):
        assert lambert_w0(math.inf) == math.inf
        assert lambert_w0(1.7976931348623157e308) < math.inf

    def test_clamped_just_below_branch(self):
        assert lambert_w0(BRANCH_POINT - 5e-16) == -1.0

    def test_principal_branch_floor(self):
        for x in (-0.367879, -0.3, -0.1, 0.0, 1.0, 50.0):
            assert lambert_w0(x) >= -1.0

    @given(st.floats(min_value=BRANCH_POINT, max_value=10.0, allow_nan=False))
    @settings(max_examples=300)
    def test_identity_property(self, x):
        w = lambert_w0(x)
        assert abs(w * math.exp(w) - x) <= 1e-12 * max(1.0, abs(x))


class TestPowerTower:
    def test_small_towers(self):
        assert power_tower(2.0, 2) == 4.0
        assert power_tower(2.0, 3) == 16.0
        assert power_tower(1.0, 100) == 1.0

    def test_overflow_sentinel(self):
        assert power_tower(2.0, 6) == math.inf

    def test_parameter_errors(self):
        with pytest.raises(InvalidParameterError):
            power_tower(0.0, 3)
        with pytest.raises(InvalidParameterError):
            power_tower(-1.0, 3)
        with pytest.raises(InvalidParameterError):
            power_tower(2.0, 0)

    @given(
        st.floats(min_value=1.0 + 1e-6, max_value=3.0, allow_nan=False),
        st.integers(min_value=1, max_value=30),
    )
    @settings(max_examples=200)
    def test_strictly_increasing_while_finite(self, base, n):
        a = power_tower(base, n)
        b = power_tower(base, n + 1)
        if math.isfinite(b):
            # strict growth until the iteration hits a float fixed point
            assert b > a or (b == a and base ** a == a)


class TestTowerLimit:
    def test_sqrt2_converges_to_two(self):
        res = tower_limit(math.sqrt(2.0), tol=1e-12, max_iter=20_000)
        assert res.outcome is TowerOutcome.CONVERGED
        assert res.limit == pytest.approx(2.0, abs=1e-9)
        assert res.residual <= 1e-12

    def test_above_interval_diverges(self):
        res = tower_limit(1.5)
        assert res.outcome is TowerOutcome.DIVERGED
        assert math.isnan(res.residual)
        assert res.iterations_used == 6

    def test_upper_endpoint_converges_loosely(self):
        res = tower_limit(EULER_UPPER, tol=1e-6, max_iter=10_000)
        assert res.outcome is TowerOutcome.CONVERGED
        assert res.limit == pytest.approx(math.e, abs=1e-2)

    def test_below_interval_two_cycle(self):
        res = tower_limit(0.04, max_iter=500)
        assert res.outcome is TowerOutcome.MAX_ITER_REACHED
        assert res.iterations_used == 500
        assert res.cycle is not None
        lo, hi = res.cycle
        assert lo == pytest.approx(0.08960084093476091, abs=1e-12)
        assert hi == pytest.approx(0.7494512695939344, abs=1e-12)

    def test_parameter_errors(self):
        with pytest.raises(InvalidParameterError):
            tower_limit(-0.5)
        with pytest.raises(InvalidParameterError):
            tower_limit(1.2, tol=0.0)
        with pytest.raises(InvalidParameterError):
            tower_limit(1.2, max_iter=0)

    def test_nan_base_rejected(self):
        # NaN fails every comparison, so a "base <= 0" test alone lets it through.
        with pytest.raises(InvalidParameterError, match="base must be positive"):
            tower_limit(math.nan)
        with pytest.raises(InvalidParameterError, match="base must be positive"):
            power_tower(math.nan, 3)

    def test_infinite_base_rejected(self):
        with pytest.raises(InvalidParameterError, match="base must be finite"):
            tower_limit(math.inf)
        with pytest.raises(InvalidParameterError, match="base must be finite"):
            power_tower(math.inf, 3)

    @given(st.floats(min_value=EULER_LOWER + 1e-3, max_value=EULER_UPPER - 1e-3, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_interval_interior_converges_and_matches_lambert(self, base):
        res = tower_limit(base, tol=1e-12, max_iter=30_000)
        assert res.outcome is TowerOutcome.CONVERGED
        y = res.limit
        assert abs(y - base ** y) <= 1e-9
        assert abs(y - tower_limit_via_lambert(base)) <= 1e-9

    @given(st.floats(min_value=EULER_UPPER + 1e-6, max_value=3.0, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_above_interval_always_diverges(self, base):
        # Divergence detection is orbit-based; at the default iteration cap it
        # resolves offsets down to about 1e-7 above the boundary.
        assert tower_limit(base).outcome is TowerOutcome.DIVERGED

    @given(st.floats(min_value=1e-3, max_value=3.0, allow_nan=False))
    @settings(max_examples=150, deadline=None)
    def test_diverged_implies_above_interval(self, base):
        res = tower_limit(base, max_iter=500)
        if res.outcome is TowerOutcome.DIVERGED:
            assert base > EULER_UPPER


class TestTowerLimitViaLambert:
    def test_sqrt2(self):
        assert tower_limit_via_lambert(math.sqrt(2.0)) == pytest.approx(2.0, abs=1e-12)

    def test_upper_endpoint(self):
        assert tower_limit_via_lambert(EULER_UPPER) == pytest.approx(math.e, abs=1e-9)

    def test_base_one_convention(self):
        assert tower_limit_via_lambert(1.0) == 1.0

    def test_against_iteration_oracle(self):
        # 200 plain iterations from t0 = 1 settle well past 1e-12 for base 1.2.
        expected = 1.2577345413765264
        assert iterate_tower(1.2, 200, start=1.0) == pytest.approx(expected, abs=1e-13)
        assert tower_limit_via_lambert(1.2) == pytest.approx(expected, abs=1e-10)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            tower_limit_via_lambert(0.05)
        with pytest.raises(DomainError):
            tower_limit_via_lambert(1.5)


class TestEulerInterval:
    def test_membership(self):
        assert euler_interval_contains(1.0)
        assert not euler_interval_contains(1.5)
        assert not euler_interval_contains(0.05)

    def test_endpoints_in_working_precision(self):
        assert euler_interval_contains(EULER_LOWER)
        assert euler_interval_contains(EULER_UPPER)
        assert not euler_interval_contains(EULER_LOWER - 1e-12)
        assert not euler_interval_contains(EULER_UPPER + 1e-12)
