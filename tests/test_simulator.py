import dataclasses
import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddeosc import (
    AmnesiaOperator,
    HistoryCoverageError,
    HistoryDomainError,
    HistoryFunction,
    Interpolation,
    InvalidParameterError,
    SimulationConfig,
    SolutionClassification,
    SpecFormatError,
    StepSizeError,
    Trajectory,
    VerdictOutcome,
    classify,
    concordance_experiment,
    estimate_liminf_w,
    integrate,
    make_discrete_delay,
    make_distributed_delay,
    random_history,
    zero_crossings,
)
from ddeosc import simulator
from ddeosc.expressions import parse_expression
from ddeosc.simulator import sigma_pad_start
from ddeosc.specfile import KERNEL_CATALOG, build_operator, make_scenarios

from _oracles import (
    ScalarDiscreteDelay,
    ScalarDistributedDelay,
    characteristic_root,
    scalar_app2,
    scalar_app3,
    scalar_integrate,
    scalar_random_history,
)

LAMBDA_01 = characteristic_root(0.1, 1.0)  # real root of lam + 0.1 e^-lam = 0


def _single_delay(p=1.0, tau=1.0):
    return make_discrete_delay([(p, tau)])


def _traj_from_samples(ts, vs):
    ts = np.asarray(ts, dtype=float)
    vs = np.asarray(vs, dtype=float)
    step = ts[1] - ts[0] if len(ts) > 1 else 1.0
    return Trajectory(
        times=ts,
        values=vs,
        derivative_values=np.zeros_like(vs),
        config=SimulationConfig(t_end=max(float(ts[-1]), step), step=float(step)),
    )


class TestIntegrate:
    def test_zero_operator_constant_solution(self):
        op = make_discrete_delay([(0.0, 1.0)])
        traj = integrate(op, HistoryFunction.constant(1.0, -1.1), SimulationConfig(t_end=5.0, step=0.1))
        assert np.all(traj.values == 1.0)
        assert np.all(traj.derivative_values == 0.0)
        assert traj.times[0] == 0.0
        assert traj.times[-1] <= 5.0

    def test_exponential_history_reproduces_exact_solution(self):
        op = _single_delay(0.1, 1.0)
        hist = HistoryFunction.exponential(LAMBDA_01, -1.1)
        traj = integrate(op, hist, SimulationConfig(t_end=20.0, step=0.01))
        exact = np.exp(LAMBDA_01 * traj.times)
        rel = abs(traj.values[-1] - exact[-1]) / exact[-1]
        assert rel <= 1e-4
        assert np.max(np.abs(traj.values - exact)) <= 1e-10

    def test_fourth_order_step_halving(self):
        op = _single_delay(0.1, 1.0)
        hist = HistoryFunction.exponential(LAMBDA_01, -1.1)
        errs = {}
        for h in (0.02, 0.01):
            traj = integrate(op, hist, SimulationConfig(t_end=20.0, step=h))
            errs[h] = float(np.max(np.abs(traj.values - np.exp(LAMBDA_01 * traj.times))))
        assert errs[0.02] / errs[0.01] >= 12.0

    def test_linear_interpolation_is_worse_but_sane(self):
        op = _single_delay(0.1, 1.0)
        hist = HistoryFunction.exponential(LAMBDA_01, -1.1)
        cubic = integrate(op, hist, SimulationConfig(t_end=20.0, step=0.01))
        linear = integrate(op, hist, SimulationConfig(t_end=20.0, step=0.01, interpolation=Interpolation.LINEAR))
        exact = np.exp(LAMBDA_01 * cubic.times)
        err_cubic = np.max(np.abs(cubic.values - exact))
        err_linear = np.max(np.abs(linear.values - exact))
        assert err_cubic < err_linear < 1e-5

    def test_derivative_samples_match_operator(self):
        op = _single_delay(1.0, 1.0)
        traj = integrate(op, HistoryFunction.constant(1.0, -1.1), SimulationConfig(t_end=2.0, step=0.1))
        # x' = -x(t-1): on [0, 1] the delayed value comes from the constant history
        k = 5  # t = 0.5
        assert traj.derivative_values[k] == pytest.approx(-1.0, abs=1e-12)

    def test_step_count_that_overflows_rejected(self):
        # t_end / step is inf, which has no integer step count
        op = _single_delay(1.0, 1.0)
        with pytest.raises(InvalidParameterError, match="takes inf steps, more than an array can hold"):
            integrate(op, HistoryFunction.constant(1.0, -1.1), SimulationConfig(t_end=1e308, step=1e-300))

    def test_step_rule_enforced(self):
        op = _single_delay(1.0, 1.0)
        with pytest.raises(StepSizeError):
            integrate(op, HistoryFunction.constant(1.0, -1.1), SimulationConfig(t_end=5.0, step=0.3))

    def test_history_coverage_checked(self):
        op = _single_delay(1.0, 1.0)
        with pytest.raises(HistoryCoverageError):
            integrate(op, HistoryFunction.constant(1.0, -0.5), SimulationConfig(t_end=5.0, step=0.1))

    def test_overflow_flags_and_truncates(self):
        # x' = +x(t-1) grows; a small guard trips quickly
        op = make_discrete_delay([(-1.0, 1.0)], bound_b=lambda t: 0.0)
        traj = integrate(
            op,
            HistoryFunction.constant(1.0, -1.1),
            SimulationConfig(t_end=60.0, step=0.05, overflow_guard=1e6),
        )
        assert traj.overflowed
        assert traj.times[-1] < 60.0
        assert abs(traj.values[-1]) > 1e6
        with pytest.raises(InvalidParameterError):
            classify(traj)

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("name", ["t_end", "step"])
    def test_config_rejects_non_finite(self, name, value):
        with pytest.raises(InvalidParameterError, match=f"{name} must be finite and positive"):
            SimulationConfig(**{"t_end": 5.0, "step": 0.1, name: value})

    def test_deterministic_runs_bit_identical(self):
        op = _single_delay(1.0, 1.0)
        cfg = SimulationConfig(t_end=30.0, step=0.01)
        a = integrate(op, random_history(11, -1.1), cfg)
        b = integrate(op, random_history(11, -1.1), cfg)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.derivative_values, b.derivative_values)


def _assert_same_run(op, oracle, hist, config):
    traj = integrate(op, hist, config)
    values, derivative_values, overflowed = scalar_integrate(oracle, hist, config)
    assert traj.overflowed == overflowed
    assert np.array_equal(traj.values, values)
    assert np.array_equal(traj.derivative_values, derivative_values)
    return traj


#: How close a run whose kernels call numpy's exp and sin and take app3's
#: integer powers from products must come to the scalar oracle's, which
#: calls Python's functions and power: this fraction of the run's
#: step-halving gap.
GAP_FRACTION = 1e-2


def _assert_close_run(op, oracle, hist, config):
    """The oracle's flag and length, and each value and derivative within
    GAP_FRACTION of the step-halving gap of the oracle's.

    The gap is the largest difference between the run and one at half the
    step over the run's nodes, taken apart for values and derivatives.
    """
    traj = integrate(op, hist, config)
    values, derivative_values, overflowed = scalar_integrate(oracle, hist, config)
    assert traj.overflowed == overflowed
    assert len(traj.values) == len(values) and len(traj.derivative_values) == len(derivative_values)
    half = integrate(op, hist, dataclasses.replace(config, step=config.step / 2.0))
    for ours, theirs, fine in (
        (traj.values, values, half.values),
        (traj.derivative_values, derivative_values, half.derivative_values),
    ):
        gap = np.max(np.abs(ours - fine[::2][: len(ours)]))
        assert np.max(np.abs(ours - theirs)) <= GAP_FRACTION * gap
    return traj


class TestDistributedReadsMatchScalarOracle:
    """Blocks of array evaluations match one scalar read and one scalar
    kernel call per quadrature node, step by step: bit for bit where the
    arithmetic is exactly rounded, and within a fraction of the
    step-halving gap where the catalog kernels call numpy's exp and sin
    or take app3's integer powers from products.

    The horizons pass the largest lag (2 for app2, 6 for app3), so the runs
    read the initial history, the computed trajectory, and both in one stage,
    and end with stages that read only computed nodes.
    """

    ORACLES = {"app2": scalar_app2, "app3": scalar_app3}
    CASES = {
        "app2": ("app2", {}, 0.01, 2.5, 1e-5),
        "app3-l2": ("app3", {"l": 2}, 0.05, 7.0, 0.5),
        # a larger modulation and history, so that sin(x^3) reaches the
        # last bits of the trajectory
        "app3-l3": ("app3", {"l": 3, "b": 1.0}, 0.05, 7.0, 1.5),
    }

    @pytest.mark.parametrize(
        "case, interpolation, seed",
        [
            pytest.param(case, interpolation, seed, id=f"{case}-{tag}{seed}")
            for case in ("app2", "app3-l2", "app3-l3")
            for interpolation, tag in ((Interpolation.CUBIC_HERMITE, ""), (Interpolation.LINEAR, "linear-"))
            for seed in (0, 5)
        ],
    )
    def test_within_tolerance_of_oracle(self, case, interpolation, seed):
        kernel, parameters, step, t_end, amplitude = self.CASES[case]
        op = KERNEL_CATALOG[kernel].build(parameters)
        oracle = self.ORACLES[kernel](**parameters)
        hist = random_history(seed, sigma_pad_start(op), 0.0, amplitude=amplitude)
        config = SimulationConfig(t_end=t_end, step=step, interpolation=interpolation)
        traj = _assert_close_run(op, oracle, hist, config)
        assert not traj.overflowed

    def test_full_app3_horizon_within_tolerance(self):
        # Reproduce's app3 run with l = 3: its solutions grow to |x| of
        # about 1000 by t = 40, where sin(x^3) amplifies one-ulp differences
        # the most
        op = KERNEL_CATALOG["app3"].build({"l": 3})
        hist = random_history(0, sigma_pad_start(op), 0.0, amplitude=0.5)
        traj = _assert_close_run(op, scalar_app3(l=3), hist, SimulationConfig(t_end=40.0, step=0.05))
        assert not traj.overflowed

    @pytest.mark.parametrize("app, index", [(2, 0), (3, 0), (3, 1)], ids=["app2", "app3-l2", "app3-l3"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bits_do_not_depend_on_block_size(self, app, index, seed, monkeypatch):
        scenario = make_scenarios(app)[index]
        op = build_operator(scenario.spec)
        hist = random_history(seed, sigma_pad_start(op), 0.0, amplitude=scenario.history_amplitude)
        assert simulator._block_steps(op, scenario.sim.step) == 8
        blocks = integrate(op, hist, scenario.sim)
        monkeypatch.setattr(simulator, "_BLOCK_READS", 1)
        assert simulator._block_steps(op, scenario.sim.step) == 1
        single = integrate(op, hist, scenario.sim)
        assert np.array_equal(blocks.values, single.values)
        assert np.array_equal(blocks.derivative_values, single.derivative_values)

    def test_kernel_overflow_flags_the_run(self):
        # x(t-s)^2 = 900 once the reads pass t = -0.5: exp overflows at
        # about t = 0.5, inside a block of several steps
        op = KERNEL_CATALOG["app2"].build({})
        hist = HistoryFunction(lambda t: 30.0 if t > -0.5 else 0.0, sigma_pad_start(op))
        traj = _assert_close_run(op, scalar_app2(), hist, SimulationConfig(t_end=2.0, step=0.05))
        assert traj.overflowed
        assert 0.0 < traj.final_time < 1.0

    def test_kernel_overflow_at_t0_flags_the_run(self):
        # exp(30^2) overflows in the evaluation at t = 0, before any step
        op = KERNEL_CATALOG["app2"].build({})
        hist = HistoryFunction.constant(30.0, sigma_pad_start(op))
        config = SimulationConfig(t_end=2.0, step=0.05)
        traj = integrate(op, hist, config)
        values, derivative_values, overflowed = scalar_integrate(scalar_app2(), hist, config)
        assert traj.overflowed and overflowed
        assert traj.times.tolist() == [0.0]
        assert traj.values.tolist() == values.tolist() == [30.0]
        assert math.isnan(traj.derivative_values[0]) and math.isnan(derivative_values[0])

    def test_app3_cube_overflow_at_t0_flags_the_run(self):
        # x0^3 overflows in the evaluation at t = 0, as Python's power does:
        # 1e103 in the product (x*x)*x, 1e155 already in the square x*x
        op = KERNEL_CATALOG["app3"].build({})
        config = SimulationConfig(t_end=2.0, step=0.05)
        for x0 in (1e103, 1e155):
            hist = HistoryFunction.constant(x0, sigma_pad_start(op))
            traj = integrate(op, hist, config)
            values, derivative_values, overflowed = scalar_integrate(scalar_app3(), hist, config)
            assert traj.overflowed and overflowed
            assert traj.values.tolist() == values.tolist() == [x0]
            assert math.isnan(traj.derivative_values[0]) and math.isnan(derivative_values[0])

    def test_zero_terms_sum_to_positive_zero(self):
        # -0.0 terms: the scalar sum starts from +0.0, and so must the array one
        op = make_distributed_delay(lambda t, s, xs: 0.0 * xs[0], (0.0, 1.0), [lambda t, s: t - s - 1.0],
                                    bound_b=lambda t: 0.0)
        hist = HistoryFunction.constant(-1.0, sigma_pad_start(op))
        traj = integrate(op, hist, SimulationConfig(t_end=1.0, step=0.05))
        assert all(math.copysign(1.0, d) == -1.0 for d in traj.derivative_values)  # -(+0.0)

    # A lag of 0.2 + 0.8/(1 + t) behind t - s: 1 at t = 0, which sizes the
    # blocks, then down to 4 steps, so that blocks read past their start.
    # Squared, 1/(1 + t)^2 falls below one step and reads pass the frontier.
    SHRINKING_LAGS = {
        "stays-behind": lambda t, s: t - s - (0.2 + 0.8 / (1.0 + t)),
        "passes-frontier": lambda t, s: t - s - 1.0 / ((1.0 + t) * (1.0 + t)),
    }

    @pytest.mark.parametrize("name", list(SHRINKING_LAGS))
    def test_shrinking_lag_falls_back_to_single_steps(self, name):
        delay = self.SHRINKING_LAGS[name]

        def kernel(t, s, xs):  # floats in the oracle, arrays in the operator
            return (1.0 - s) * xs[0]

        op = make_distributed_delay(kernel, (0.0, 1.0), [delay], bound_b=lambda t: 0.5)
        oracle = ScalarDistributedDelay(kernel, (0.0, 1.0), [delay])
        hist = random_history(3, sigma_pad_start(op), 0.0)
        config = SimulationConfig(t_end=6.0, step=0.05)
        if name == "stays-behind":
            _assert_same_run(op, oracle, hist, config)
            return
        with pytest.raises(HistoryDomainError) as ours:
            integrate(op, hist, config)
        with pytest.raises(HistoryDomainError) as oracles:
            scalar_integrate(oracle, hist, config)
        assert "is not behind the computed trajectory" in str(ours.value)
        assert str(ours.value) == str(oracles.value)


class TestDiscreteReadsMatchScalarOracle:
    """Blocks of discrete-delay evaluations give the bits of the per-term
    scalar sum, read by read and step by step.

    App1's lags are 6 and 8, so at step 0.05 a block spans 119 steps; runs
    to t = 20 cross several blocks, read the initial history, the computed
    trajectory and both in one block.
    """

    @pytest.mark.parametrize(
        "q, interpolation, seed",
        [
            pytest.param(q, interpolation, seed, id=f"q{q:g}-{tag}{seed}")
            for q in (10.0, 20.0)
            for interpolation, tag in ((Interpolation.CUBIC_HERMITE, ""), (Interpolation.LINEAR, "linear-"))
            for seed in (0, 5)
        ],
    )
    def test_app1_bit_identical(self, q, interpolation, seed):
        spec = make_scenarios(1, {"q": q})[0].spec
        op = build_operator(spec)
        oracle = ScalarDiscreteDelay([(parse_expression(coef), delay) for coef, delay in spec.terms])
        hist = random_history(seed, sigma_pad_start(op), 0.0)
        config = SimulationConfig(t_end=20.0, step=0.05, interpolation=interpolation)
        assert not _assert_same_run(op, oracle, hist, config).overflowed

    def test_integrates_in_blocks(self):
        op = build_operator(make_scenarios(1, {"q": 10.0})[0].spec)
        calls = []
        counted = dataclasses.replace(
            op, combine=lambda t, values: calls.append(t[:, 0].tolist()) or op.combine(t, values)
        )
        integrate(counted, random_history(0, sigma_pad_start(op), 0.0), SimulationConfig(t_end=20.0, step=0.05))
        assert [ts for ts in calls if len(ts) <= 2] == [[0.0]]  # every stage after t = 0 came from a block

    def test_coefficient_overflow_flags_the_run(self):
        # exp(100 t) overflows at t = 7.098, inside the block of steps
        # 133-151 (19 steps each at lag 1); it multiplies reads at
        # t - 8 <= -0.5, where the history is 0
        terms = [(0.5, 1.0), (parse_expression("exp(100.0 * t)"), 8.0)]
        op = make_discrete_delay(terms, bound_b=lambda t: 0.5)
        hist = HistoryFunction(lambda t: 1.0 if t > -0.5 else 0.0, sigma_pad_start(op))
        traj = _assert_same_run(op, ScalarDiscreteDelay(terms), hist, SimulationConfig(t_end=10.0, step=0.05))
        assert traj.overflowed
        assert len(traj.times) == 142

    def test_failure_past_the_overflow_is_not_reached(self):
        # x' = x(t - 1) passes the guard at step 484 (t = 24.2), inside the
        # block of steps 475-493; a coefficient that fails from t = 24.4 on
        # (as a complex power does) is never reached step by step
        def late(t):
            if np.max(t) > 24.4:
                raise TypeError("unreachable")
            return 0.0

        terms = [(-1.0, 1.0), (late, 1.0)]
        op = make_discrete_delay(terms, bound_b=lambda t: 0.0)
        config = SimulationConfig(t_end=60.0, step=0.05, overflow_guard=1e6)
        traj = _assert_same_run(op, ScalarDiscreteDelay(terms), HistoryFunction.constant(1.0, -1.1), config)
        assert traj.overflowed
        assert len(traj.times) == 485

    def test_zero_coefficient_on_negative_history(self):
        # 0.0 * -1.0 = -0.0; the sum starts from +0.0, so (Tx)(t) = +0.0
        terms = [(0.0, 1.0)]
        op = make_discrete_delay(terms)
        hist = HistoryFunction.constant(-1.0, sigma_pad_start(op))
        traj = _assert_same_run(op, ScalarDiscreteDelay(terms), hist, SimulationConfig(t_end=3.0, step=0.05))
        assert all(math.copysign(1.0, d) == -1.0 for d in traj.derivative_values)  # -(+0.0)

    @pytest.mark.parametrize(
        "lag, first_bad", [(1.5, None), (0.01, 1.025 - 0.01), (math.nan, math.nan)],
        ids=["behind", "reads-ahead", "reads-nan"],
    )
    def test_operator_with_scalar_evaluate_only(self, lag, first_bad):
        # A hand-built operator against a scalar oracle that makes one
        # ``history(t)`` call per read.  Its read points give lags 1 and 1.5
        # up to t = 1, so blocks of 19 steps, and from then on lags 1 and
        # ``lag``.  A lag below one step breaks the read rule in the first
        # block past t = 1, and then in the replayed single step, which
        # raises; so does a NaN read.
        coef = parse_expression("0.25 * cos(t)")
        oracle = types.SimpleNamespace(
            evaluate=lambda t, history: sum(
                [0.5 * history(t - 1.0), coef(t) * history(t - (lag if t > 1.0 else 1.5))]
            )
        )
        op = AmnesiaOperator(
            label="hand-built",
            read_points=lambda t: np.hstack([t - 1.0, t - np.where(t > 1.0, lag, 1.5)]),
            combine=lambda t, values: np.hstack([np.full_like(t, 0.5), coef(t)]) * values,
        )
        assert op.min_lag == 1.0
        hist = random_history(2, -1.6, 0.0)
        config = SimulationConfig(t_end=6.0, step=0.05)
        if first_bad is None:
            _assert_same_run(op, oracle, hist, config)
            return
        with pytest.raises(HistoryDomainError) as ours:
            integrate(op, hist, config)
        with pytest.raises(HistoryDomainError) as oracles:
            scalar_integrate(oracle, hist, config)
        assert str(ours.value) == str(oracles.value)
        assert str(ours.value).startswith(f"delayed read at t={first_bad} is not behind")

    def test_single_step_is_one_call(self):
        # A read at the fixed time 0 puts tau(0) at 0, so there is no
        # positive min_lag and every step is a block of one: its two stage
        # times, t_k + h/2 and t_k + h, go to the operator in one call.
        coef = parse_expression("0.25 * cos(t)")
        oracle = types.SimpleNamespace(
            evaluate=lambda t, history: sum([0.5 * history(0.0), coef(t) * history(t - 1.5)])
        )
        calls = []

        def combine(t, values):
            calls.append(t[:, 0].tolist())
            return np.hstack([np.full_like(t, 0.5), coef(t)]) * values

        op = AmnesiaOperator(label="counted", read_points=lambda t: np.hstack([np.zeros_like(t), t - 1.5]),
                             combine=combine)
        assert op.min_lag is None
        h = 0.05
        traj = _assert_same_run(op, oracle, random_history(2, -1.6, 0.0), SimulationConfig(t_end=6.0, step=h))
        n = len(traj.times) - 1
        assert n == 120
        assert calls == [[0.0]] + [[k * h + 0.5 * h, k * h + h] for k in range(n)]


class TestSeededHistoryReads:
    """Runs from array-read seeded histories have the bits of runs from the
    per-read ``np.dot`` history.  App1 compares with the scalar integrator
    and operator.  App2 and app3 run the package integrator and operator on
    both sides, so that only the history differs: their kernels call
    numpy's exp and sin and take app3's integer powers from products, which
    the scalar oracles' Python calls need not match in the last bit, and
    the scalar integrator squares the Hermite phase with Python's power,
    which differs from the package's product in the last bit at some of
    app2's reads."""

    CASES = {
        "app1": (lambda: build_operator(make_scenarios(1, {"q": 10.0})[0].spec), 0.05, 20.0),
        "app2": (lambda: KERNEL_CATALOG["app2"].build({}), 0.01, 2.5),
        "app3": (lambda: KERNEL_CATALOG["app3"].build({"l": 2}), 0.05, 7.0),
    }

    @staticmethod
    def _oracle():
        spec = make_scenarios(1, {"q": 10.0})[0].spec
        return ScalarDiscreteDelay([(parse_expression(coef), delay) for coef, delay in spec.terms])

    @pytest.mark.parametrize("interpolation", list(Interpolation), ids=lambda i: i.value)
    @pytest.mark.parametrize("case, seed", [("app1", 0), ("app1", 140891), ("app2", 3), ("app3", 7)])
    def test_matches_the_dot_history_run(self, case, seed, interpolation):
        build, step, t_end = self.CASES[case]
        op = build()
        config = SimulationConfig(t_end=t_end, step=step, interpolation=interpolation)
        traj = integrate(op, random_history(seed, sigma_pad_start(op)), config)
        dot_history = scalar_random_history(seed, sigma_pad_start(op))
        if case == "app1":
            values, derivative_values, overflowed = scalar_integrate(self._oracle(), dot_history, config)
        else:
            run = integrate(op, HistoryFunction(dot_history, sigma_pad_start(op)), config)
            values, derivative_values, overflowed = run.values, run.derivative_values, run.overflowed
        assert not traj.overflowed and not overflowed
        assert np.array_equal(traj.values, values)
        assert np.array_equal(traj.derivative_values, derivative_values)

    def test_each_evaluation_reads_the_past_in_one_call(self, monkeypatch):
        op = KERNEL_CATALOG["app2"].build({})
        calls, reads, per_evaluation = [], [], []
        many = HistoryFunction.many
        monkeypatch.setattr(HistoryFunction, "__call__", lambda self, t: calls.append(t) or float(many(self, [t])[0]))
        monkeypatch.setattr(HistoryFunction, "many", lambda self, ts: reads.append(len(ts)) or many(self, ts))

        def combine(t, values):
            # an evaluation reads the history, then combines: count the reads since the last combine
            per_evaluation.append(len(reads) - sum(per_evaluation))
            return op.combine(t, values)

        counted = dataclasses.replace(op, combine=combine)
        integrate(counted, random_history(0, sigma_pad_start(op)), SimulationConfig(t_end=2.5, step=0.01))
        assert calls == [0.0]  # x(0)
        assert max(per_evaluation) == 1
        assert len(reads) < 100


class TestEventualSign:
    def test_derivative_negative_while_solution_positive(self):
        # Positive-bound operator and strictly positive trajectory: x' < 0 throughout.
        op = _single_delay(0.1, 1.0)
        hist = HistoryFunction.exponential(LAMBDA_01, -1.1)
        traj = integrate(op, hist, SimulationConfig(t_end=40.0, step=0.01))
        assert np.all(traj.values > 0.0)
        assert np.all(traj.derivative_values < 0.0)

    def test_app2_negative_derivative_while_window_positive(self):
        # For t <= 1 the operator reads only the positive constant history
        # on [t-4, t-1], so x' = -(Tx) must be negative there (whatever the
        # current value of x is doing).
        op = KERNEL_CATALOG["app2"].build({})
        hist = HistoryFunction.constant(0.5, -2.1)
        traj = integrate(op, hist, SimulationConfig(t_end=2.0, step=0.01))
        dearly = traj.derivative_values[traj.times <= 1.0]
        assert np.all(dearly < 0.0)


class TestClassify:
    def test_constant_positive_is_inconclusive(self):
        ts = np.arange(0.0, 10.01, 0.1)
        cls = classify(_traj_from_samples(ts, np.ones_like(ts)))
        assert cls.classification is SolutionClassification.INCONCLUSIVE
        assert cls.sign_changes == 0

    def test_sine_is_oscillatory(self):
        ts = np.arange(0.0, 50.0, 0.05)
        cls = classify(_traj_from_samples(ts, np.sin(ts)), transient_fraction=0.2)
        assert cls.classification is SolutionClassification.OSCILLATORY
        assert cls.sign_changes >= 10

    def test_decaying_exponential_run_is_monotone_to_zero(self):
        op = _single_delay(0.1, 1.0)
        hist = HistoryFunction.exponential(LAMBDA_01, -1.1)
        traj = integrate(op, hist, SimulationConfig(t_end=200.0, step=0.01))
        cls = classify(traj)
        assert cls.classification is SolutionClassification.MONOTONE_TO_ZERO
        assert cls.tail_monotone
        assert cls.sign_changes == 0

    def test_oscillatory_classical_case(self):
        op = _single_delay(1.0, 1.0)
        traj = integrate(op, HistoryFunction.constant(1.0, -1.1), SimulationConfig(t_end=60.0, step=0.01))
        cls = classify(traj)
        assert cls.classification is SolutionClassification.OSCILLATORY

    def test_tangency_is_not_a_crossing(self):
        ts = np.arange(0.0, 5.0, 1.0)
        cls = classify(_traj_from_samples(ts, [1.0, 1.0, 0.0, 1.0, 1.0]), transient_fraction=0.0)
        assert cls.sign_changes == 0
        cls2 = classify(_traj_from_samples(ts, [1.0, 1.0, 0.0, -1.0, -1.0]), transient_fraction=0.0)
        assert cls2.sign_changes == 1

    @given(st.floats(min_value=1e-6, max_value=1e6, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_scale_invariance(self, c):
        ts = np.arange(0.0, 50.0, 0.05)
        vs = np.sin(ts) * np.exp(-0.05 * ts)
        base = classify(_traj_from_samples(ts, vs), transient_fraction=0.2)
        scaled = classify(_traj_from_samples(ts, c * vs), transient_fraction=0.2)
        assert scaled.classification is base.classification
        assert scaled.sign_changes == base.sign_changes
        assert scaled.zero_crossings == base.zero_crossings

    def test_transient_fraction_validated(self):
        ts = np.arange(0.0, 5.0, 1.0)
        with pytest.raises(InvalidParameterError):
            classify(_traj_from_samples(ts, np.ones_like(ts)), transient_fraction=1.0)


class TestZeroCrossings:
    def test_linear_interpolation(self):
        assert zero_crossings(_traj_from_samples([0.0, 1.0], [1.0, -1.0])) == [0.5]

    def test_all_positive_none(self):
        assert zero_crossings(_traj_from_samples([0.0, 1.0, 2.0], [1.0, 2.0, 0.5])) == []

    def test_sine_roots_located(self):
        ts = np.arange(0.0, 3.0001, 0.1)
        crossings = zero_crossings(_traj_from_samples(ts, np.sin(math.pi * ts)))
        interior = [c for c in crossings if c > 0.05]
        assert len(interior) == 2
        assert interior[0] == pytest.approx(1.0, abs=0.01)
        assert interior[1] == pytest.approx(2.0, abs=0.01)

    def test_exact_zero_sample_reported_once(self):
        crossings = zero_crossings(_traj_from_samples([0.0, 1.0, 2.0, 3.0], [1.0, 0.0, 0.0, 1.0]))
        assert crossings == [1.0]

    def test_tiny_samples_cross_where_their_product_underflows(self):
        # 1e-200 * -1e-200 rounds to -0.0: crossings and sign changes read signs
        traj = _traj_from_samples(np.arange(5) * 0.25, [1.0, 1e-200, -1e-200, 1e-200, -1e-200])
        assert zero_crossings(traj) == [0.375, 0.625, 0.875]
        cls = classify(traj)
        assert cls.sign_changes == 3
        assert cls.zero_crossings == (0.375, 0.625, 0.875)
        assert cls.classification is SolutionClassification.OSCILLATORY


def _concordance(op, config, **kwargs):
    """The experiment checking the estimate over [2 lag0, 2 lag0 + max(t_end, 10 lag0)]."""
    lag0 = -op.sigma(0.0)
    t0 = 2.0 * lag0
    estimate = estimate_liminf_w(op.bound_b, op.tau, t0, t0 + max(config.t_end, 10.0 * lag0))
    return concordance_experiment(op, config, estimate, **kwargs)


class TestConcordance:
    def test_classical_oscillatory_case_concordant(self):
        op = _single_delay(1.0, 1.0)
        report = _concordance(
            op,
            SimulationConfig(t_end=60.0, step=0.01),
            n_histories=5,
            seed=0,
        )
        assert report.verdict.outcome is VerdictOutcome.GUARANTEED
        assert report.verdict.w_hat == pytest.approx(1.0, abs=1e-9)
        assert all(c.classification is SolutionClassification.OSCILLATORY for c in report.classes)
        assert report.concordant
        assert report.overflowed_runs == 0

    def test_below_threshold_inconclusive_verdict(self):
        op = _single_delay(0.1, 1.0)
        report = _concordance(
            op,
            SimulationConfig(t_end=40.0, step=0.01),
            n_histories=3,
            seed=1,
        )
        assert report.verdict.outcome is VerdictOutcome.INCONCLUSIVE
        assert report.concordant  # nothing to contradict

    def test_rejects_operator_failing_audit(self):
        op = make_discrete_delay([(-1.0, 1.0)], bound_b=lambda t: 1.0)
        with pytest.raises(InvalidParameterError):
            _concordance(op, SimulationConfig(t_end=10.0, step=0.1), n_histories=2)

    def test_rejects_negative_seed(self):
        with pytest.raises(InvalidParameterError, match="seed must be >= 0, got -1"):
            _concordance(_single_delay(1.0, 1.0), SimulationConfig(t_end=10.0, step=0.1), seed=-1)

    def test_keep_trajectories(self):
        op = _single_delay(1.0, 1.0)
        report = _concordance(
            op,
            SimulationConfig(t_end=20.0, step=0.01),
            n_histories=2,
            seed=3,
        )
        assert len(report.trajectories) == 2
        assert report.seeds == (3, 4)

    @pytest.mark.parametrize("amplitude, at_t0", [(3.0, 0), (30.0, 2)], ids=["mid-run", "at-t0"])
    def test_overflowed_runs_are_counted_and_kept(self, amplitude, at_t0):
        # At amplitude 30, two of the three histories overflow the evaluation at t = 0.
        op = KERNEL_CATALOG["app2"].build({})
        report = _concordance(op, SimulationConfig(t_end=2.0, step=0.01), n_histories=3, history_amplitude=amplitude)
        assert report.overflowed_runs == 3
        assert report.classes == ()
        assert len(report.trajectories) == 3
        assert all(traj.overflowed for traj in report.trajectories)
        assert sum(traj.times.size == 1 for traj in report.trajectories) == at_t0

    def test_unsettled_runs_are_discordant(self):
        # w = 1 > 1/e, but by t = 0.5 no run has crossed zero or decayed
        report = _concordance(_single_delay(1.0, 1.0), SimulationConfig(t_end=0.5, step=0.01), n_histories=4)
        assert report.verdict.outcome is VerdictOutcome.GUARANTEED
        assert report.discordant_runs == 4
        assert not report.concordant


def test_config_rejects_a_nonpositive_overflow_guard():
    with pytest.raises(InvalidParameterError, match="overflow_guard must be positive, got 0.0"):
        SimulationConfig(t_end=5.0, step=0.1, overflow_guard=0.0)


def test_a_run_shorter_than_one_step_is_rejected():
    with pytest.raises(InvalidParameterError, match="t_end 0.1 is shorter than one step 0.2"):
        integrate(_single_delay(1.0, 1.0), HistoryFunction.constant(1.0, -1.1), SimulationConfig(t_end=0.1, step=0.2))


def test_a_trajectory_csv_without_samples_is_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("t,x,dx\n# overflow\n")
    with pytest.raises(SpecFormatError, match="no samples in trajectory CSV"):
        simulator.read_trajectory_csv(path)
