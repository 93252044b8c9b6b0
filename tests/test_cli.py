import json

import numpy as np
import pytest
from click.testing import CliRunner

from ddeosc.cli import (
    cmd_analyze,
    cmd_reproduce,
    cmd_simulate,
    cmd_tower,
    main,
    make_scenarios,
    read_trajectory_csv,
    write_trajectory_csv,
)
from ddeosc import HistoryFunction, SimulationConfig, integrate, make_discrete_delay, random_history
from ddeosc.simulator import sigma_pad_start
from ddeosc.specfile import EquationSpec, build_operator, load_spec, save_spec

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

    @pytest.mark.parametrize("tau_expr, w_hat", [(None, 0.5), ("t - 2", 1.0)])
    def test_tau_expr_sets_the_criterion_delay(self, tau_expr, w_hat, tmp_path):
        spec = EquationSpec(kind="discrete_delay", label="tau", terms=(("0.5", 1.0),), tau_expr=tau_expr)
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
        (["simulate", "--spec", _DELAY.replace("1.0", "NaN")], 2),
        (["simulate", "--spec", _DELAY.replace("1.0", "Infinity")], 2),
        (["simulate", "--spec", '{"schema": 1, "kind": "distributed_delay", "kernel": "app2", '
                                '"parameters": {"a1": NaN}}'], 2),
    ],
    ids=["a1=0", "m=-1", "m=0", "a1=1000", "l=2.5", "transient=1.5", "transient=-0.1", "step-nan", "tower-nan",
         "tower-inf", "tower-inf-json", "tower-tol-nan", "n-histories=0", "seed=-1", "constant-nan",
         "constant-inf", "exponential-nan", "exponential-inf", "analyze-t-end-inf", "analyze-t-start-nan",
         "analyze-t-start-minus-inf", "set-a2=inf", "set-q=nan", "spec-delay-nan", "spec-delay-inf",
         "spec-a1-nan"],
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
