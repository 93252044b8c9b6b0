import contextlib
import dataclasses
import gc
import io
import itertools
import json
import math
import re
import warnings
import weakref

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ddeosc.cli import (
    analyze_spec,
    cmd_analyze,
    cmd_reproduce,
    cmd_simulate,
    cmd_tower,
    main,
    make_scenarios,
    read_trajectory_csv,
    write_trajectory_csv,
)
from ddeosc import HistoryFunction, SimulationConfig, cli, errors, integrate, make_discrete_delay, random_history
from ddeosc.simulator import Trajectory, sigma_pad_start
from ddeosc.specfile import (
    KERNEL_CATALOG,
    SCENARIO_CATALOG,
    EquationSpec,
    app3_derived_bound,
    build_operator,
    load_spec,
    save_spec,
)

from _oracles import characteristic_root


@pytest.fixture
def app1_q10_spec(tmp_path):
    spec = make_scenarios(1, {"q": 10.0})[0].spec
    path = tmp_path / "app1_q10.json"
    save_spec(spec, path)
    return path


@pytest.fixture
def single_delay_spec(tmp_path):
    spec = EquationSpec(kind="discrete_delay", label="single delay", terms=(("1", 1.0),))
    path = tmp_path / "single.json"
    save_spec(spec, path)
    return path


class TestAnalyze:
    def test_scenario1_q10(self, app1_q10_spec, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = cmd_analyze(app1_q10_spec, 16.0, 256.0, out)
        assert code == 0
        report = json.loads(out.read_text())
        assert report["w_hat"] == pytest.approx(0.6, abs=1e-9)
        assert report["verdict"] == "guaranteed"
        assert report["trend"] == "stable"
        assert report["tetration"]["decision"] == "diverges_hence_guaranteed"
        text = capsys.readouterr().out
        assert "GUARANTEED" in text

    def test_scenario1_q20(self, tmp_path):
        spec = make_scenarios(1, {"q": 20.0})[0].spec
        path = tmp_path / "app1_q20.json"
        save_spec(spec, path)
        out = tmp_path / "report.json"
        assert cmd_analyze(path, 16.0, 256.0, out) == 0
        report = json.loads(out.read_text())
        assert report["w_hat"] == pytest.approx(0.3, abs=1e-9)
        assert report["verdict"] == "inconclusive"

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        assert cmd_analyze(bad, 0.0, 10.0) == 2
        assert "error" in capsys.readouterr().err

    def test_bad_window_exits_2(self, app1_q10_spec, capsys):
        assert cmd_analyze(app1_q10_spec, 50.0, 50.0) == 2

    def test_json_format(self, app1_q10_spec, capsys):
        assert cmd_analyze(app1_q10_spec, 16.0, 256.0, None, "json") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "guaranteed"

    def test_csv_format_lists_the_window_infima(self, app1_q10_spec, capsys):
        assert cmd_analyze(app1_q10_spec, 16.0, 256.0, None, "json") == 0
        infima = json.loads(capsys.readouterr().out)["window_infima"]
        assert cmd_analyze(app1_q10_spec, 16.0, 256.0, None, "csv") == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "window_start,infimum"
        assert len(lines) == 34
        assert [[float(v) for v in line.split(",")] for line in lines[1:]] == infima

    @pytest.mark.parametrize("tau_expr, w_hat", [(None, 1.0), ("t - 1", 0.5)])
    def test_tau_expr_sets_the_criterion_delay(self, tau_expr, w_hat, tmp_path):
        spec = EquationSpec(kind="discrete_delay", label="tau", terms=(("0.5", 2.0),), tau_expr=tau_expr)
        path = tmp_path / "tau.json"
        save_spec(spec, path)
        assert load_spec(path) == spec
        out = tmp_path / "report.json"
        assert cmd_analyze(path, 10.0, 110.0, out) == 0
        assert json.loads(out.read_text())["w_hat"] == pytest.approx(w_hat, abs=1e-9)

    def test_numerical_failure_exits_3(self, tmp_path, capsys):
        # bound expression hits a math-domain error inside the window
        spec = EquationSpec(
            kind="discrete_delay",
            label="bad bound",
            terms=(("1", 1.0),),
            bound_expr="log(t - 1000)",
        )
        path = tmp_path / "badbound.json"
        save_spec(spec, path)
        assert cmd_analyze(path, 10.0, 110.0) == 3
        assert "error" in capsys.readouterr().err

    def test_window_too_wide_to_measure_exits_2(self, app1_q10_spec, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the span must not overflow inside numpy
            assert cmd_analyze(app1_q10_spec, -1e308, 1e308) == 2
        err = capsys.readouterr().err
        assert err == "error: criterion window [-1e+308, 1e+308] is too wide: its length overflows\n"

    @pytest.mark.parametrize("t_start, t_end, at", [(1e308, 1.7e308, "1e+308"), (-1e307, 1e308, "-1e+307")])
    def test_window_too_far_from_zero_for_the_lag_exits_2(self, t_start, t_end, at, tmp_path, capsys):
        path = tmp_path / "delay4.json"
        save_spec(EquationSpec(kind="discrete_delay", label="delay 4", terms=(("0.1", 4.0),)), path)
        assert cmd_analyze(path, t_start, t_end) == 2
        err = capsys.readouterr().err
        assert err == (
            f"error: criterion window [{t_start}, {t_end}] lies too far from 0 to resolve the lag 4.0: "
            f"t - 4.0 rounds to t at t = {at}\n"
        )

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_nonfinite_bound_exits_3(self, tmp_path, fmt):
        # inf - inf: every sample of the criterion integral is NaN
        spec = EquationSpec(
            kind="discrete_delay",
            label="nan bound",
            terms=(("1", 1.0),),
            bound_expr="exp(700)*exp(700) - exp(700)*exp(700)",
        )
        path = tmp_path / "nanbound.json"
        save_spec(spec, path)
        out = tmp_path / "report.json"
        result = CliRunner().invoke(
            main, ["analyze", "--spec", str(path), "--out", str(out), "--format", fmt]
        )
        assert result.exit_code == 3
        assert result.stdout == ""
        assert result.stderr.startswith("error: criterion integral is not finite")
        assert len(result.stderr.splitlines()) == 1
        assert not out.exists()

    def test_rate_beyond_the_float_range_of_e_to_the_w_has_no_tower(self, tmp_path):
        # e^709 is a float, e^710 is not (the cutoff is ln of the largest float)
        reports = {}
        for rate in ("709", "710"):
            path = tmp_path / f"rate{rate}.json"
            save_spec(EquationSpec(kind="discrete_delay", label="large rate", terms=((rate, 1.0),)), path)
            result = CliRunner().invoke(main, ["analyze", "--spec", str(path), "--format", "json"])
            assert (result.exit_code, result.stderr) == (0, "")
            reports[rate] = json.loads(result.stdout)
        assert reports["709"]["tetration"]["decision"] == "diverges_hence_guaranteed"
        assert reports["710"]["verdict"] == "guaranteed"
        assert reports["710"]["tetration"] is None

    @staticmethod
    def _analyze_huge_rate(tmp_path, scale):
        path = tmp_path / "huge.json"
        save_spec(EquationSpec(kind="discrete_delay", label="huge", terms=((f"{scale}*(1 + 1e-10*sin(t))", 1.0),)), path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # squaring residuals near 1e200 overflowed inside numpy
            result = CliRunner().invoke(main, ["analyze", "--spec", str(path), "--format", "json"])
        assert (result.exit_code, result.stderr) == (0, "")
        return json.loads(result.stdout)

    def test_huge_rate_ripple_does_not_overflow(self, tmp_path):
        report = self._analyze_huge_rate(tmp_path, "1e200")
        assert report["verdict"] == "guaranteed"
        assert report["trend"] == "stable"  # the slope tolerance scales with the samples, as the ripple test does

    def test_rate_near_1e12_reads_a_stable_trend(self, tmp_path):
        report = self._analyze_huge_rate(tmp_path, "1e12")
        assert report["verdict"] == "guaranteed"
        assert report["trend"] == "stable"

    def test_derived_bound_fails_at_the_first_criterion_node_in_row_major_order(self, tmp_path):
        # With a sample at every integer and delay 1, row t holds the nodes
        # t - 1 + i/64.  The coefficient fails on (100.9, 100.95) and on
        # (102.01, 102.02): first at node 58 of row 101, 100.90625, while a
        # loop over the columns would meet node 1 of row 103, 102.015625.
        coef = "0.5 + ((t-100.9)*(t-100.95)*(t-102.01)*(t-102.02))**0.5"
        path = tmp_path / "holes.json"
        save_spec(EquationSpec(kind="discrete_delay", label="holes", terms=((coef, 1.0),)), path)
        result = CliRunner().invoke(main, ["analyze", "--spec", str(path), "--t-start", "0", "--t-end", "511"])
        assert result.exit_code == 3
        assert result.stderr.startswith(f"error: expression {coef!r} does not evaluate to a real number at t=100.90625: ")
        assert len(result.stderr.splitlines()) == 1

    def test_tau_failing_at_a_late_sample_exits_3(self, tmp_path):
        path = tmp_path / "late_tau.json"
        save_spec(EquationSpec(kind="discrete_delay", label="late tau", terms=(("0.5", 1.0),),
                               tau_expr="t - 1 - 0*log(500 - t)"), path)
        result = CliRunner().invoke(main, ["analyze", "--spec", str(path), "--t-start", "0", "--t-end", "511"])
        assert (result.exit_code, result.stderr) == (
            3, "error: expression 't - 1 - 0*log(500 - t)' is undefined at t=500.0: math domain error\n"
        )

    @pytest.mark.parametrize(
        "doc, stderr",
        [
            # the derived bound clips the negative coefficient; some solutions grow without oscillating
            (
                {"terms": [{"coef_expr": "1.0", "delay": 3.0}, {"coef_expr": "-0.95", "delay": 1.0}]},
                "terms[1].coef_expr '-0.95' must be >= 0, but is -0.95 at t=10.0",
            ),
            (
                {"terms": [{"coef_expr": "0.1", "delay": 1.0}], "bound_expr": "1.0"},
                "bound_expr '1.0' must not exceed the sum of the coefficients, but is 1.0 against 0.1 at t=10.0",
            ),
            (
                {"terms": [{"coef_expr": "0.1", "delay": 1.0}], "tau_expr": "t - 10"},
                "tau_expr 't - 10' must be no older than the operator's newest read, but is 0.0 against 9.0 at t=10.0",
            ),
            # a kernel bound far above the derived a/(m+1) - b/3 = 0.0667 fails the sampled sign-bound audit
            (
                {"kind": "distributed_delay", "kernel": "app3", "parameters": {"a": 0.2, "b": 0.1, "m": 1.0, "l": 3},
                 "bound_expr": "100"},
                "bound_expr '100' violates the operator's sign bound on 80 of 80 sampled pairs (worst margin -43.8)",
            ),
            # a kernel's tau_expr behind its newest read, t - 1 at s = 0
            (
                {"kind": "distributed_delay", "kernel": "app3", "parameters": {"l": 3}, "tau_expr": "t - 1.5"},
                "tau_expr 't - 1.5' must be no older than the operator's newest read, but is 8.5 against 9.0 at t=10.0",
            ),
            # two faults: the bound is held to the terms that read at or before the tau_expr, which is checked first
            (
                {"terms": [{"coef_expr": "0.1", "delay": 1.0}, {"coef_expr": "0.2", "delay": 3.0}],
                 "bound_expr": "0.4", "tau_expr": "t - 2"},
                "bound_expr '0.4' must not exceed the sum of the coefficients of the terms that read at or before "
                "tau_expr 't - 2', but is 0.4 against 0.2 at t=10.0",
            ),
            (
                {"terms": [{"coef_expr": "0.1", "delay": 1.0}], "bound_expr": "1.0", "tau_expr": "t - 10"},
                "tau_expr 't - 10' must be no older than the operator's newest read, but is 0.0 against 9.0 at t=10.0",
            ),
        ],
    )
    def test_a_spec_outside_the_theorem_exits_2(self, doc, stderr, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"schema": 1, "kind": "discrete_delay", **doc}))
        result = CliRunner().invoke(main, ["analyze", "--spec", str(path)])
        assert (result.exit_code, result.stdout) == (2, "")
        assert result.stderr == f"error: {stderr}; criterion not applicable\n"

    def test_a_tau_behind_the_newest_read_counts_only_the_terms_that_read_at_or_before_it(self, tmp_path):
        # app1 at q = 20 as its delay-8 term alone: x' + p_2(t) x(t - 8) <= 0 for a positive solution
        p2 = "(t+5)/(20.0*(t+6))"
        spec = EquationSpec(kind="discrete_delay", label="app1 delay-8 suffix",
                            terms=(("1/(20.0*(t+6))", 6.0), (p2, 8.0)), bound_expr=p2, tau_expr="t - 8")
        path = tmp_path / "suffix.json"
        save_spec(spec, path)
        result = CliRunner().invoke(main, ["analyze", "--spec", str(path), "--t-start", "16", "--t-end", "256",
                                           "--format", "json"])
        assert (result.exit_code, result.stderr) == (0, "")
        report = json.loads(result.stdout)
        assert report["verdict"] == "guaranteed"
        # its curvature leaves a late residual, but a monotone tail is not oscillating
        assert report["trend"] == "increasing"
        # the integral (8 - ln((t+6)/(t-2)))/20 rises, so the tail infimum sits at the tail's first sample
        _, _, estimate = analyze_spec(spec, 16.0, 256.0)
        t = float(estimate.sample_times[estimate.sample_times >= 136.0][0])
        assert report["w_hat"] == estimate.w_hat == pytest.approx((8.0 - math.log((t + 6.0) / (t - 2.0))) / 20.0, rel=1e-15)

    @pytest.mark.parametrize(
        "bound, stderr",
        [
            ({}, "error: the derived bound must not exceed the sum of the coefficients of the terms that read at or "
                 "before tau_expr 't - 2', but is 0.30000000000000004 against 0.2 at t=10.0; criterion not applicable\n"),
            ({"bound_expr": "0.25"}, "error: bound_expr '0.25' must not exceed the sum of the coefficients of the terms "
                                     "that read at or before tau_expr 't - 2', but is 0.25 against 0.2 at t=10.0; "
                                     "criterion not applicable\n"),
            ({"bound_expr": "0.2"}, ""),
        ],
        ids=["derived", "0.25", "0.2"],
    )
    def test_a_tau_between_reads_holds_the_bound_to_the_older_terms(self, bound, stderr, tmp_path):
        path = tmp_path / "spec.json"
        terms = [{"coef_expr": "0.1", "delay": 1.0}, {"coef_expr": "0.2", "delay": 3.0}]
        path.write_text(json.dumps({"schema": 1, "kind": "discrete_delay", "terms": terms, "tau_expr": "t - 2", **bound}))
        result = CliRunner().invoke(main, ["analyze", "--spec", str(path)])
        assert (result.exit_code, result.stderr) == (2 if stderr else 0, stderr)

    def test_the_bound_is_evaluated_at_the_sample_times_once(self, monkeypatch):
        calls = []

        def build_counting(spec):
            op = build_operator(spec)

            def bound_b(t):
                calls.append(np.array(t))
                return op.bound_b(t)

            return dataclasses.replace(op, bound_b=bound_b)

        monkeypatch.setattr(cli, "build_operator", build_counting)
        spec = EquationSpec(kind="discrete_delay", label="both overrides", terms=(("0.1", 1.0), ("0.2", 3.0)),
                            bound_expr="0.2", tau_expr="t - 2")
        _, _, estimate = analyze_spec(spec, 10.0, 110.0)
        assert sum(np.array_equal(t, estimate.sample_times) for t in calls) == 1

    def test_a_kernel_bound_expr_that_passes_the_audit_gives_the_catalog_verdict(self, tmp_path):
        parameters = {"a": 0.2, "b": 0.1, "m": 1.0, "l": 3}
        reports = []
        for extra in ({}, {"bound_expr": repr(app3_derived_bound(**parameters))}):
            path = tmp_path / "app3.json"
            path.write_text(json.dumps({"schema": 1, "kind": "distributed_delay", "kernel": "app3",
                                        "parameters": parameters, **extra}))
            result = CliRunner().invoke(main, ["analyze", "--spec", str(path), "--format", "json"])
            assert (result.exit_code, result.stderr) == (0, "")
            reports.append(json.loads(result.stdout))
        catalog, override = reports
        assert (override["w_hat"], override["verdict"]) == (catalog["w_hat"], catalog["verdict"])

    @pytest.mark.parametrize("coef", ["-1", "0.2*(t-60)"])
    @pytest.mark.parametrize("bound, at", [({}, "9.0"), ({"bound_expr": "0.1"}, "10.0")])
    def test_a_coefficient_that_cannot_be_evaluated_is_reported_before_a_negative_one(self, coef, bound, at, tmp_path):
        # Every coefficient is evaluated, time before term, before any sign is checked.  Without a
        # bound_expr the derived bound meets log(t-50) first, at the criterion's first node, t = 9.
        path = tmp_path / "spec.json"
        terms = [{"coef_expr": coef, "delay": 1.0}, {"coef_expr": "log(t-50)", "delay": 2.0}]
        path.write_text(json.dumps({"schema": 1, "kind": "discrete_delay", "terms": terms, **bound}))
        result = CliRunner().invoke(main, ["analyze", "--spec", str(path)])
        assert (result.exit_code, result.stdout) == (3, "")
        assert result.stderr == f"error: expression 'log(t-50)' is undefined at t={at}: math domain error\n"

    @pytest.mark.parametrize("bound, code", [("0.8", 0), ("0.8000000000000003", 0), ("0.8000000000000004", 2)])
    def test_a_bound_may_exceed_the_coefficient_sum_by_rounding_only(self, bound, code, tmp_path):
        # 0.7 + 0.1 is 0.7999999999999999; the slack allows 4e-16 of it above
        path = tmp_path / "spec.json"
        save_spec(EquationSpec(kind="discrete_delay", label="sum", terms=(("0.7", 1.0), ("0.1", 2.0)), bound_expr=bound), path)
        result = CliRunner().invoke(main, ["analyze", "--spec", str(path)])
        assert result.exit_code == code

    def test_overflowing_coefficient_names_the_expression(self, tmp_path):
        path = tmp_path / "overflow.json"
        save_spec(EquationSpec(kind="discrete_delay", label="overflow", terms=(("9**9**9", 1.0),)), path)
        result = CliRunner().invoke(main, ["analyze", "--spec", str(path), "--t-start", "0", "--t-end", "511"])
        assert (result.exit_code, result.stderr) == (
            3,
            "error: expression '9**9**9' overflows at t=-1.0: Numerical result out of range\n",
        )


class TestSimulate:
    def test_constant_history_oscillatory(self, single_delay_spec, tmp_path, capsys):
        csv = tmp_path / "traj.csv"
        code = cmd_simulate(single_delay_spec, "constant:1", 60.0, 0.01, csv)
        assert code == 0
        assert "oscillatory" in capsys.readouterr().out
        lines = csv.read_text().splitlines()
        assert lines[0] == "t,x,dx"
        assert len(lines) == 6002

    def test_zero_operator_inconclusive(self, tmp_path, capsys):
        spec = EquationSpec(kind="discrete_delay", label="zero", terms=(("0", 1.0),))
        path = tmp_path / "zero.json"
        save_spec(spec, path)
        assert cmd_simulate(path, "constant:1", 10.0, 0.1, tmp_path / "z.csv") == 0
        assert "inconclusive" in capsys.readouterr().out

    def test_exponential_history_monotone(self, tmp_path, capsys):
        spec = EquationSpec(kind="discrete_delay", label="small gain", terms=(("0.1", 1.0),))
        path = tmp_path / "small.json"
        save_spec(spec, path)
        lam = characteristic_root(0.1, 1.0)
        assert cmd_simulate(path, f"exponential:{lam!r}", 200.0, 0.01) == 0
        assert "monotone_to_zero" in capsys.readouterr().out

    def test_overflow_exits_3_with_trailer(self, tmp_path, capsys):
        spec = EquationSpec(kind="discrete_delay", label="unstable", terms=(("-1", 1.0),))
        path = tmp_path / "unstable.json"
        save_spec(spec, path)
        csv = tmp_path / "boom.csv"
        code = cmd_simulate(path, "constant:1", 80.0, 0.05, csv)
        assert code == 3
        assert csv.read_text().strip().splitlines()[-1].startswith("# overflow")
        assert read_trajectory_csv(csv).overflowed

    @pytest.mark.parametrize("preset, row", [("exponential:-2", "0.0,1.0,nan"), ("constant:30", "0.0,30.0,nan")])
    def test_overflow_at_t0_writes_one_row(self, preset, row, tmp_path):
        path = tmp_path / "app2.json"
        save_spec(make_scenarios(2)[0].spec, path)
        csv = tmp_path / "boom.csv"
        result = CliRunner().invoke(main, ["simulate", "--spec", str(path), "--history", preset, "--out", str(csv)])
        assert result.exit_code == 3
        assert f"with history {preset} overflowed at t=0.0; partial trajectory written" in result.stderr
        assert csv.read_text().splitlines() == [
            "t,x,dx",
            row,
            "# overflow: |x| exceeded 1e+12 (or an operator evaluation overflowed); truncated at t=0.0",
        ]

    def test_infinite_state_exits_3_without_a_warning(self, tmp_path, capsys):
        # exp(-1e308 * t) is inf on the past, so the first step makes x = -inf
        spec = EquationSpec(kind="discrete_delay", label="small gain", terms=(("0.1", 4.0),))
        path = tmp_path / "small.json"
        save_spec(spec, path)
        csv = tmp_path / "inf.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cmd_simulate(path, "exponential:-1e308", 2.0, 0.01, csv) == 3
        assert "overflowed at t=0.01" in capsys.readouterr().err
        assert csv.read_text().splitlines()[1:3] == ["0.0,1.0,-inf", "0.01,-inf,-inf"]

    def test_random_history_preset(self, single_delay_spec, tmp_path, capsys):
        csv = tmp_path / "traj.csv"
        assert cmd_simulate(single_delay_spec, "random:5", 10.0, 0.01, csv, fmt="json") == 0
        assert json.loads(capsys.readouterr().out)["history"] == "random:5"
        op = build_operator(load_spec(single_delay_spec))
        expected = integrate(op, random_history(5, sigma_pad_start(op)), SimulationConfig(t_end=10.0, step=0.01))
        assert np.array_equal(read_trajectory_csv(csv).values, expected.values)

    def test_unknown_preset_exits_2(self, single_delay_spec):
        assert cmd_simulate(single_delay_spec, "wavelet:3", 10.0, 0.01) == 2


class TestTrajectoryCsv:
    def test_round_trip_exact(self, tmp_path):
        op = make_discrete_delay([(1.0, 1.0)])
        traj = integrate(op, HistoryFunction.constant(1.0, -1.1), SimulationConfig(t_end=5.0, step=0.01))
        path = tmp_path / "t.csv"
        write_trajectory_csv(traj, path)
        back = read_trajectory_csv(path)
        assert np.array_equal(back.times, traj.times)
        assert np.array_equal(back.values, traj.values)
        assert np.array_equal(back.derivative_values, traj.derivative_values)
        assert back.overflowed == traj.overflowed

    def test_bytes_are_the_row_by_row_formula(self, tmp_path):
        hand_built = Trajectory(
            times=np.array([0.0, 0.5, 1.0]),
            values=np.array([-0.0, 5e-324, 1.0000000000000002e300]),
            derivative_values=np.array([math.nan, -2.5e-310, 0.1]),
            config=SimulationConfig(t_end=1.0, step=0.5),
            overflowed=True,
        )
        op = build_operator(make_scenarios(2)[0].spec)  # overflows at t = 0: one row, NaN derivative
        at_t0 = integrate(op, HistoryFunction.constant(30.0, sigma_pad_start(op)), SimulationConfig(t_end=5.0, step=0.01))
        assert at_t0.overflowed and math.isnan(at_t0.derivative_values[0])
        for traj in (hand_built, at_t0):
            rows = [f"{float(t)!r},{float(v)!r},{float(d)!r}"
                    for t, v, d in zip(traj.times, traj.values, traj.derivative_values)]
            comment = (f"# overflow: |x| exceeded {traj.config.overflow_guard:g} "
                       f"(or an operator evaluation overflowed); truncated at t={traj.final_time!r}")
            path = tmp_path / "t.csv"
            write_trajectory_csv(traj, path)
            assert path.read_bytes() == "\n".join(["t,x,dx", *rows, comment, ""]).encode()


class TestTower:
    def test_sqrt2(self, capsys):
        assert cmd_tower(1.4142135) == 0
        out = capsys.readouterr().out
        assert "converged" in out
        assert "inside" in out
        assert "closed form" in out

    def test_divergent_base(self, capsys):
        assert cmd_tower(1.5) == 0
        out = capsys.readouterr().out
        assert "DIVERGED" in out
        assert "outside" in out

    def test_base_one(self, capsys):
        assert cmd_tower(1.0) == 0
        assert "converged" in capsys.readouterr().out

    def test_nonpositive_base_exits_2(self, capsys):
        assert cmd_tower(-2.0) == 2

    def test_json_format(self, capsys):
        assert cmd_tower(1.2, fmt="json") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["outcome"] == "converged"
        assert doc["inside_euler_interval"] is True

    def test_max_iter_caps_the_iterates(self, capsys):
        # base 0.01 lies below e^-e: its iterates alternate and never settle
        assert cmd_tower(0.01, max_iter=5) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines[2:7]] == ["1", "2", "3", "4", "5"]
        assert lines[7].startswith("outcome: no decision after 5 iterations; last value ")
        assert cmd_tower(0.01, max_iter=5, fmt="json") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["outcome"] == "max_iter_reached"
        assert doc["iterations_used"] == 5


    def test_an_iterate_beyond_the_float_range_shows_the_overflow_marker(self, capsys):
        assert cmd_tower(1e300) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[2:5] == [
            "  1        1e+300",
            "  ...      (overflow range)",
            "outcome: DIVERGED at iteration 2; no finite tower limit",
        ]


class TestReproduce:
    def test_unknown_parameter_exits_2(self, tmp_path, capsys):
        assert cmd_reproduce(1, {"zeta": 3.0}, tmp_path / "x") == 2
        assert "unknown parameter" in capsys.readouterr().err

    def test_app1_bundle_and_agreement_with_analyze(self, tmp_path, capsys):
        out_dir = tmp_path / "rep"
        code = cmd_reproduce(1, {"q": 10.0}, out_dir, seed=0, n_histories=2)
        assert code == 0
        stdout = capsys.readouterr().out
        assert "discrepancy" in stdout

        bundle = out_dir / "app1_q=10"
        report = json.loads((bundle / "report.json").read_text())
        assert report["w_hat"] == pytest.approx(0.6, abs=1e-9)
        conc = json.loads((bundle / "concordance.json").read_text())
        assert conc["concordant"] is True
        assert len(list((bundle / "trajectories").glob("*.csv"))) == 2

        # analyze on the bundled spec reproduces the report byte for byte
        # apart from the timestamp
        re_out = tmp_path / "re_report.json"
        sc = make_scenarios(1, {"q": 10.0})[0]
        assert cmd_analyze(bundle / "spec.json", sc.crit_t_start, sc.crit_t_end, re_out) == 0
        a = json.loads((bundle / "report.json").read_text())
        b = json.loads(re_out.read_text())
        a.pop("generated_at")
        b.pop("generated_at")
        assert json.dumps(a, indent=2, sort_keys=True) == json.dumps(b, indent=2, sort_keys=True)

    def test_rate_beyond_the_float_range_of_e_to_the_w_has_no_tower(self, tmp_path, capsys):
        # q = 1e-300 makes w = 6/q = 6e300: guaranteed, but e^w is not a float
        assert cmd_reproduce(1, {"q": 1e-300}, tmp_path, seed=0, n_histories=1) == 0
        report = json.loads((tmp_path / "app1_q=1e-300" / "report.json").read_text())
        assert report["verdict"] == "guaranteed"
        assert report["tetration"] is None

    def test_a_scenario_with_no_classified_run_is_not_concordant(self, tmp_path, capsys):
        # every run overflows, so the ensemble confirms nothing
        assert cmd_reproduce(1, {"q": 1e-300}, tmp_path, seed=0, n_histories=2) == 0
        conc = json.loads((tmp_path / "app1_q=1e-300" / "concordance.json").read_text())
        assert (conc["classes"], conc["overflowed_runs"], conc["concordant"]) == ([], 2, False)
        assert "overflowed 2; concordant: NO" in capsys.readouterr().out

    def test_json_stdout_matches_the_bundles(self, tmp_path, capsys):
        out_dir = tmp_path / "rep"
        assert cmd_reproduce(1, None, out_dir, n_histories=1, fmt="json") == 0
        entries = json.loads(capsys.readouterr().out)
        assert [e["scenario"] for e in entries] == [sc.name for sc in make_scenarios(1)]
        for entry in entries:
            report = json.loads((out_dir / entry["scenario"] / "report.json").read_text())
            conc = json.loads((out_dir / entry["scenario"] / "concordance.json").read_text())
            assert (entry["w_hat"], entry["verdict"]) == (report["w_hat"], report["verdict"])
            for key in ("stated_condition", "stated_condition_holds", "concordant", "discrepancy"):
                assert entry[key] == conc[key]
            assert entry["classes"] == {c: conc["classes"].count(c) for c in conc["classes"]}


class TestClickWiring:
    def test_group_help(self):
        runner = CliRunner()
        result = runner.invoke(main, ["--help"])
        assert result.exit_code == 0
        for sub in ("analyze", "simulate", "tower", "reproduce"):
            assert sub in result.output

    def test_missing_spec_flag_exits_2(self):
        runner = CliRunner()
        result = runner.invoke(main, ["analyze"])
        assert result.exit_code == 2

    def test_tower_via_runner(self):
        runner = CliRunner()
        result = runner.invoke(main, ["tower", "--base", "1.2", "--format", "json"])
        assert result.exit_code == 0
        assert json.loads(result.output)["outcome"] == "converged"

    def test_reproduce_bad_override_form(self, tmp_path):
        runner = CliRunner()
        result = runner.invoke(main, ["reproduce", "--app", "1", "--set", "q:10", "--out", str(tmp_path / "o")])
        assert result.exit_code == 2


_DELAY = '{"schema": 1, "kind": "discrete_delay", "terms": [{"coef_expr": "1", "delay": 1.0}]}'


@pytest.mark.parametrize(
    "args, code",
    [
        (["reproduce", "--app", "2", "--set", "a1=0"], 2),
        (["reproduce", "--app", "3", "--set", "m=-1"], 2),
        (["reproduce", "--app", "3", "--set", "m=0"], 2),
        (["reproduce", "--app", "2", "--set", "a1=1000"], 3),
        (["reproduce", "--app", "3", "--set", "l=2.5"], 2),
        (["simulate", "--transient-fraction", "1.5"], 2),
        (["simulate", "--transient-fraction", "-0.1"], 2),
        (["simulate", "--step", "nan"], 2),
        (["tower", "--base", "nan"], 2),
        (["tower", "--base", "inf"], 2),
        (["tower", "--base", "inf", "--format", "json"], 2),
        (["tower", "--base", "1.2", "--tol", "nan"], 2),
        (["reproduce", "--app", "2", "--n-histories", "0"], 2),
        (["reproduce", "--app", "1", "--seed", "-1"], 2),
        (["simulate", "--history", "constant:nan"], 2),
        (["simulate", "--history", "constant:inf"], 2),
        (["simulate", "--history", "exponential:nan"], 2),
        (["simulate", "--history", "exponential:inf"], 2),
        (["analyze", "--t-end", "inf"], 2),
        (["analyze", "--t-start", "nan"], 2),
        (["analyze", "--t-start", "-inf"], 2),
        (["reproduce", "--app", "2", "--set", "a2=inf"], 2),
        (["reproduce", "--app", "1", "--set", "q=nan"], 2),
        (["reproduce", "--app", "1", "--set", "q=abc"], 2),
        (["simulate", "--spec", _DELAY.replace("1.0", "NaN")], 2),
        (["simulate", "--spec", _DELAY.replace("1.0", "Infinity")], 2),
        (["simulate", "--spec", '{"schema": 1, "kind": "distributed_delay", "kernel": "app2", '
                                '"parameters": {"a1": NaN}}'], 2),
        (["simulate", "--step", "1e-13"], 2),
        (["simulate", "--step", "1e-300"], 2),
        (["analyze", "--grid-points", "100000000000000"], 2),
        (["reproduce", "--app", "1", "--set", "q=-1"], 2),
        (["analyze", "--spec", _DELAY.replace('"terms"', '"label": 5, "terms"')], 2),
        (["analyze", "--spec", _DELAY.replace('[{"coef_expr": "1", "delay": 1.0}]', '[1.0]')], 2),
        (["analyze", "--spec", _DELAY.replace('"1"', "1")], 2),
        (["analyze", "--spec", '{"schema": 1, "kind": "distributed_delay", "kernel": "app2", "parameters": [1]}'], 2),
    ],
    ids=["a1=0", "m=-1", "m=0", "a1=1000", "l=2.5", "transient=1.5", "transient=-0.1", "step-nan", "tower-nan",
         "tower-inf", "tower-inf-json", "tower-tol-nan", "n-histories=0", "seed=-1", "constant-nan",
         "constant-inf", "exponential-nan", "exponential-inf", "analyze-t-end-inf", "analyze-t-start-nan",
         "analyze-t-start-minus-inf", "set-a2=inf", "set-q=nan", "set-q=abc", "spec-delay-nan", "spec-delay-inf",
         "spec-a1-nan", "step-too-small-to-allocate", "step-too-small-to-index", "grid-too-large-to-allocate",
         "set-q=-1", "spec-label-not-text", "spec-term-not-object", "spec-coef-not-text", "spec-parameters-not-object"],
)
def test_bad_input_exits_with_one_line_error(args, code, single_delay_spec, tmp_path):
    out = tmp_path / "rep"
    spec = single_delay_spec
    if "--spec" in args:  # the spec document itself, written to a file here
        at = args.index("--spec")
        spec = tmp_path / "case.json"
        spec.write_text(args[at + 1])
        args = args[:at] + args[at + 2:]
    if args[0] == "reproduce":
        if "--n-histories" not in args:
            args = [*args, "--n-histories", "1"]
        args = [*args, "--out", str(out)]
    elif args[0] == "simulate":
        args = [*args, "--spec", str(spec), "--t-end", "5"]
    elif args[0] == "analyze":
        args = [*args, "--spec", str(spec)]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == code
    assert isinstance(result.exception, SystemExit)  # not an uncaught error
    assert result.stderr.startswith("error: ")
    assert len(result.stderr.splitlines()) == 1
    assert not out.exists()  # a failed reproduce leaves no partial bundle


def _sum(n: int) -> str:
    return "+".join(["0.001"] * n)


@pytest.mark.parametrize(
    "text, message",
    [
        (_DELAY.replace('"terms"', '"bound_exp": "0.1", "terms"'), "error: field 'bound_exp': unknown field; "),
        (_DELAY.replace('"delay": 1.0', '"delay": 1.0, "dealy": 2.0'), "error: field 'terms[0].dealy': unknown field; "),
        (_DELAY.replace('"schema": 1', '"schema": true'), "error: field 'schema': expected 1, got True"),
        (_DELAY.replace("1.0", "true"), "error: field 'terms[0].delay': expected a finite positive number, got True"),
        ('{"schema": 1, "kind": "distributed_delay", "kernel": "app3", "parameters": {"l": true}}',
         "error: field 'parameters.l': expected a finite number, got True"),
        (_DELAY.replace("1.0", "1" + "0" * 400), "error: field 'terms[0].delay': expected a finite positive number, got 1000"),
        ('{"schema": 1, "kind": "distributed_delay", "kernel": "app2", "parameters": {"a1": 1' + "0" * 400 + "}}",
         "error: field 'parameters.a1': expected a finite number, got 1000"),
        (_DELAY.replace("1.0", "1" + "0" * 5000), "error: invalid JSON in {path}: Exceeds the limit (4300 digits)"),
        (b'{"schema": 1, "label": "caf\xe9"}', "error: invalid JSON in {path}: 'utf-8' codec can't decode byte 0xe9"),
        ("[" * 100_000 + "]" * 100_000, "error: invalid JSON in {path}: maximum recursion depth exceeded"),
        (_DELAY.replace('"1"', '"1\\ud800"'),
         "error: field 'terms[0].coef_expr': expected valid Unicode text, got '1\\ud800'"),
        (_DELAY.replace('"terms"', '"label": "x\\ud800", "terms"'),
         "error: field 'label': expected valid Unicode text, got 'x\\ud800'"),
        (_DELAY.replace('"1"', f'"{_sum(600)}"'), "error: nesting deeper than 200 levels in expression "),
        (_DELAY.replace('"1"', f'"{_sum(3000)}"'), "error: "),
        (_DELAY.replace('"1"', '"1\\u0000"'), "error: cannot parse expression '1\\x00': "),
    ],
    ids=["misspelled-field", "misspelled-term-field", "bool-schema", "bool-delay", "bool-l", "delay-401-digits",
         "a1-401-digits", "delay-5001-digits", "not-utf8", "nested-100000", "surrogate-coef", "surrogate-label",
         "sum-600", "sum-3000", "null-byte"],
)
def test_malformed_spec_exits_2_naming_the_file_or_field(text, message, tmp_path):
    path, report = tmp_path / "spec.json", tmp_path / "report.json"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    result = CliRunner().invoke(main, ["analyze", "--spec", str(path), "--out", str(report)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)  # not an uncaught error
    assert result.stderr.startswith(message.format(path=path))
    assert len(result.stderr.splitlines()) == 1
    assert result.stdout == ""
    assert not report.exists()  # rejected at load, before the report is written


@pytest.mark.parametrize(
    "text, message",
    [
        (_DELAY.replace("1.0", "1" + "0" * 400), "error: field 'terms[0].delay': expected a finite positive number, got 1"),
        ('{"schema": 1, "kind": "distributed_delay", "kernel": "app2", "parameters": {"a1": 1' + "0" * 400 + "}}",
         "error: field 'parameters.a1': expected a finite number, got 1"),
        ('{"schema": 1, "kind": "distributed_delay", "kernel": "app2", "parameters": {"a' + "1" * 400 + '": 1}}',
         "error: field 'parameters': unknown parameter(s) ['a111"),
        (_DELAY.replace('"terms"', '"b' + "x" * 400 + '": 1, "terms"'), "error: field 'bxxx"),
        (_DELAY.replace('"schema": 1', '"schema": "' + "1" * 400 + '"'), "error: field 'schema': expected 1, got '111"),
        (_DELAY.replace('"1"', f'"{_sum(600)}"'), "error: nesting deeper than 200 levels in expression '0.001+"),
        (_DELAY.replace('"1"', f'"{_sum(3000)}"'), "error: "),
        (_DELAY.replace('"terms"', f'"bound_expr": "{_sum(150)} + x", "terms"'), "error: unknown name 'x' in expression '0.001+"),
    ],
    ids=["delay-401-digits", "a1-401-digits", "parameter-401-characters", "field-401-characters", "schema-400-characters",
         "sum-600", "sum-3000", "bound-sum-150"],
)
def test_a_long_value_or_source_is_clipped_in_a_short_line(text, message, tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(text)
    result = CliRunner().invoke(main, ["analyze", "--spec", str(path)])
    assert result.exit_code == 2
    assert result.stderr.startswith(message)
    assert len(result.stderr.splitlines()) == 1
    assert len(result.stderr.rstrip("\n").encode()) <= 300
    assert re.search(r"\.\.\. \(\d+ characters\)", result.stderr)


def test_the_deepest_expression_accepted_runs_through_analyze_and_simulate(tmp_path):
    path = tmp_path / "sum.json"
    path.write_text(_DELAY.replace('"1"', f'"{_sum(201)}"'))
    for args in (["analyze"], ["simulate", "--t-end", "5"]):
        result = CliRunner().invoke(main, [*args, "--spec", str(path)])
        assert result.exit_code == 0, result.output


@pytest.mark.parametrize("coef, message", [
    ("min(t)", "min() takes at least two arguments, got 1, in expression 'min(t)'"),
    ("exp(t, t)", "exp() takes exactly one argument, got 2, in expression 'exp(t, t)'"),
])
def test_call_arity_rejected_at_load(coef, message, tmp_path):
    path = tmp_path / "arity.json"
    save_spec(EquationSpec(kind="discrete_delay", label="arity", terms=((coef, 1.0),)), path)
    result = CliRunner().invoke(main, ["simulate", "--spec", str(path), "--t-end", "5"])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.endswith(message + "\n")
    assert len(result.stderr.splitlines()) == 1


def test_complex_coefficient_exits_3(tmp_path):
    spec = EquationSpec(kind="discrete_delay", label="complex", terms=(("(t-10)**0.5", 1.0),))
    path = tmp_path / "complex.json"
    save_spec(spec, path)
    result = CliRunner().invoke(main, ["simulate", "--spec", str(path), "--t-end", "5"])
    assert result.exit_code == 3
    assert isinstance(result.exception, SystemExit)  # not an uncaught TypeError
    assert result.stderr.startswith("error: expression '(t-10)**0.5' does not evaluate to a real number at t=0.0: ")
    assert len(result.stderr.splitlines()) == 1


def test_bad_transient_fraction_rejected_before_integrating(single_delay_spec, tmp_path):
    csv = tmp_path / "traj.csv"
    args = ["simulate", "--spec", str(single_delay_spec), "--transient-fraction", "1.5", "--out", str(csv)]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 2
    assert result.stderr == "error: transient_fraction must be in [0, 1), got 1.5\n"
    assert not csv.exists()


@pytest.mark.parametrize("command, name", [("simulate", "x.csv"), ("analyze", "r.json")])
def test_unwritable_output_exits_2(command, name, single_delay_spec, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    args = [command, "--spec", str(single_delay_spec), "--out", str(blocker / name)]
    result = CliRunner().invoke(main, args + (["--t-end", "5"] if command == "simulate" else []))
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)  # not an uncaught NotADirectoryError
    assert result.stderr.startswith("error: [Errno 20] Not a directory: ")
    assert len(result.stderr.splitlines()) == 1


_APP2 = '{"schema": 1, "kind": "distributed_delay", "kernel": "app2", "parameters": {"a1": 1.0}}'


@pytest.mark.parametrize(
    "args, code, stderr",
    [
        # e^a1 overflows from a1 = 709.79, e^(1 + a1) from 708.79; the bound's product from 709
        (["analyze", "--spec", _APP2.replace("1.0", "800")], 3,
         "error: criterion integral is not finite at t=10.0 (value inf); check the bound function\n"),
        (["simulate", "--spec", _APP2.replace("1.0", "800"), "--t-end", "5"], 3,
         f"simulation of {KERNEL_CATALOG['app2'].description!r} with history constant:1 overflowed at t=0.0; "
         "partial trajectory written\n"),
        (["reproduce", "--app", "2", "--set", "a1=709"], 3,
         "error: criterion integral is not finite at t=4.0 (value inf); check the bound function\n"),
        # a2*s overflows to inf: sigma(t) = -inf
        (["analyze", "--spec", _APP2.replace('"a1": 1.0', '"a2": 1.7e308')], 0, ""),
        (["simulate", "--spec", _APP2.replace('"a1": 1.0', '"a2": 1.7e308'), "--t-end", "5"], 0, ""),
        (["reproduce", "--app", "2", "--set", "a2=1.7e308"], 2, "error: sigma(t) must be finite; sigma(4.0) = -inf\n"),
    ],
    ids=["analyze-a1=800", "simulate-a1=800", "reproduce-a1=709", "analyze-a2=1.7e308", "simulate-a2=1.7e308",
         "reproduce-a2=1.7e308"],
)
def test_app2_at_the_float_range_overflows_into_a_package_error_or_none(args, code, stderr, tmp_path):
    if "--spec" in args:  # the spec document itself, written to a file here
        at = args.index("--spec")
        (tmp_path / "app2.json").write_text(args[at + 1])
        args = [*args[:at + 1], str(tmp_path / "app2.json"), *args[at + 2:]]
    if args[0] == "reproduce":
        args = [*args, "--n-histories", "1", "--out", str(tmp_path / "o")]
    result = CliRunner().invoke(main, args)
    assert (result.exit_code, result.stderr) == (code, stderr)


_PARAMETERS = [(app, name) for app, (param_sets, _) in SCENARIO_CATALOG.items() for name in param_sets[0]]
_PACKAGE_ERRORS = tuple(v for v in vars(errors).values() if isinstance(v, type) and issubclass(v, Exception))


def _with_edge_examples(test):
    """Every parameter at the float range's edges, at app2's overflows (a1 = 709, 709.8) and at 0."""
    for parameter, value in itertools.product(_PARAMETERS, (1.7e308, -1.7e308, 709.0, 709.8, 1e-320, 0.0)):
        test = example(parameter, value)(test)
    return test


@settings(max_examples=40, deadline=None)
@_with_edge_examples
@given(st.sampled_from(_PARAMETERS), st.floats(allow_nan=False, allow_infinity=False))
def test_an_override_analyzes_or_raises_a_package_error(parameter, value):
    app, name = parameter
    try:
        for sc in make_scenarios(app, {name: value}):
            analyze_spec(sc.spec, sc.crit_t_start, sc.crit_t_end)
    except _PACKAGE_ERRORS:
        pass


def test_reproduce_names_a_huge_integer_l_in_g_form(tmp_path):
    out = tmp_path / "o"
    args = ["reproduce", "--app", "3", "--set", "l=1e300", "--n-histories", "1", "--out", str(out)]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0
    assert [p.name for p in out.iterdir()] == ["app3_a=3_b=0.1_m=1_l=1e+300"]
    assert [sc.name for sc in make_scenarios(3)] == ["app3_a=3_b=0.1_m=1_l=2", "app3_a=3_b=0.1_m=1_l=3"]


def test_captured_output_streams_are_not_kept():
    # An in-process caller that captures each command's output in a fresh
    # stream must not keep those streams alive.
    refs = []
    for _ in range(3):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exited:
            main.main(args=["tower", "--base", "1.2"], prog_name="ddeosc", standalone_mode=False)
        assert exited.value.code == 0 and out.getvalue()
        refs.append(weakref.ref(out))
        del out, exited
    gc.collect()
    assert [r() for r in refs] == [None, None, None]
