"""Command-line surface: analyze, simulate, tower, reproduce.

Exit codes: 0 success (regardless of verdict), 2 parse, parameter or file
error (or a run too large to allocate), 3 numerical failure (including
overflow-flagged simulations).  All commands are deterministic for fixed
arguments; random histories are always seeded and the seed is echoed in
the output.

Equation specs are JSON documents (see :mod:`ddeosc.specfile`).  Coefficient
and bound expressions use the grammar of :mod:`ddeosc.expressions`: numbers,
t, + - * / **, parentheses, exp/log/sin/cos/min/max, and the constants e
and pi.
"""

import functools
import math
import sys
from collections import Counter
from datetime import datetime, timezone
from itertools import islice
from pathlib import Path
from typing import Optional

import click
import numpy as np

from . import __version__
from .criterion import DEFAULT_GRID_POINTS, PANELS, THRESHOLD, estimate_liminf_w, tetration_proof_trace, theorem_verdict
from .errors import CrossValidationError, ExpressionError, InvalidParameterError, SpecFormatError, clipped
from .expressions import parse_expression
from .operators import HistoryFunction, _row_sums, _sign_bound_gate, random_history, sigma_growth_check
from .simulator import (
    Interpolation,
    SimulationConfig,
    check_transient_fraction,
    classify,
    concordance_experiment,
    integrate,
    read_trajectory_csv,
    sigma_pad_start,
    write_trajectory_csv,
)
from .special_functions import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    EULER_LOWER,
    EULER_UPPER,
    TowerOutcome,
    euler_interval_contains,
    tower_iterates,
    tower_limit,
    tower_limit_via_lambert,
)
from .specfile import EquationSpec, build_operator, load_spec, make_scenarios, save_spec, strict_json

# The CSV reader and the scenario builder are re-exported for callers of this module.
__all__ = ["analyze_spec", "cmd_analyze", "cmd_reproduce", "cmd_simulate", "cmd_tower", "main",
           "make_scenarios", "read_trajectory_csv", "write_trajectory_csv"]

_PARSE_ERRORS = (SpecFormatError, ExpressionError, InvalidParameterError)
# Checked after _PARSE_ERRORS: plain ValueError here means math-domain
# failures from expression evaluation, not malformed input.
_NUMERIC_ERRORS = (CrossValidationError, ArithmeticError, ValueError)


def _echo(message: str = "", err: bool = False) -> None:
    """``click.echo`` to the current ``sys.stdout`` or ``sys.stderr``, named explicitly.

    Given no file, click keeps a wrapper for each stream it has written to
    in a weak-keyed map whose value holds the stream itself, so a stream
    swapped in for ``sys.stdout`` by an in-process caller that captures the
    output would stay alive, with its contents, for the life of the process.
    """
    click.echo(message, file=sys.stderr if err else sys.stdout)


def _fail(code: int, message: str) -> int:
    _echo(f"error: {message}", err=True)
    return code


def _exit_codes(command):
    """Turn package errors raised by a ``cmd_*`` function into its exit code."""

    @functools.wraps(command)
    def run(*args, **kwargs) -> int:
        try:
            return command(*args, **kwargs)
        except (*_PARSE_ERRORS, OSError, MemoryError) as exc:
            return _fail(2, str(exc))
        except _NUMERIC_ERRORS as exc:
            return _fail(3, str(exc))

    return run


# ---------------------------------------------------------------------------
# analyze


def analyze_spec(
    spec: EquationSpec,
    t_start: float,
    t_end: float,
    grid_points: int = DEFAULT_GRID_POINTS,
    panels: int = PANELS,
):
    """Run the criterion for a spec; returns (report dict, operator, estimate)."""
    op = build_operator(spec)
    lag = op.min_lag
    # Inverted, non-finite and too-wide windows are left to the estimate's own checks.
    if lag is not None and 0.0 < t_end - t_start < math.inf:
        for t in (t_start, t_end):
            if t - lag == t:
                raise InvalidParameterError(
                    f"criterion window [{t_start}, {t_end}] lies too far from 0 to resolve "
                    f"the lag {lag}: t - {lag} rounds to t at t = {t}"
                )
    tau = parse_expression(spec.tau_expr) if spec.tau_expr else op.tau
    estimate = estimate_liminf_w(op.bound_b, tau, t_start, t_end, grid_points, panels)
    # After the estimate, so that a spec it cannot evaluate keeps the estimate's error.
    _check_criterion_inputs(spec, op, tau, estimate.sample_times)
    verdict = theorem_verdict(estimate)
    # Above ln(DBL_MAX) the tower base e^w is not a float: no tower to trace.
    trace = tetration_proof_trace(estimate.w_hat) if 0.0 < estimate.w_hat <= math.log(sys.float_info.max) else None

    report = {
        "schema": 1,
        "tool": f"ddeosc {__version__}",
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "spec": spec.to_dict(),
        "parameters": {
            "t_start": t_start,
            "t_end": t_end,
            "grid_points": grid_points,
            "panels": panels,
        },
        "w_hat": estimate.w_hat,
        "threshold": THRESHOLD,
        "margin": verdict.margin,
        "verdict": verdict.outcome.value,
        "trend": estimate.trend.value,
        "sigma_unbounded_check": sigma_growth_check(op, t_start, t_end),
        "window_infima": [[t, v] for t, v in estimate.window_infima],
        "tetration": None
        if trace is None
        else {
            "a": trace.a,
            "decision": trace.decision.value,
            "tower_outcome": trace.tower_result.outcome.value,
            "tower_iterations": trace.tower_result.iterations_used,
            "limit_if_convergent": trace.limit_if_convergent,
        },
    }
    return report, op, estimate


# A bound may exceed the coefficient sum by this relative slack.  The two are
# different expressions, rounded separately, so a bound equal to the sum in
# exact arithmetic can exceed the float sum in the last bits: app1's "1/10.0"
# exceeds 1/(10.0*(t+6)) + (t+5)/(10.0*(t+6)) at 215 of its 512 sample times,
# by up to 2.8e-16 of it.  The slack is two units in the last place.
_BOUND_SLACK = 4e-16


def _check_criterion_inputs(spec: EquationSpec, op, tau, ts: np.ndarray) -> None:
    """Reject, at the criterion's sample times ``ts``, a spec whose verdict the theorem does not cover.

    For a discrete spec, Tx = sum_i p_i(t) x(t - d_i) >= b(t) x(tau(t)) holds
    for every positive solution when every p_i(t) >= 0 and b(t) is at most
    the sum of the p_i(t) whose terms read at or before tau(t), since such a
    solution is nonincreasing.  A negative coefficient lets a large read
    drive Tx below zero, so no bound, derived or given, makes it admissible.
    tau is the ``tau_expr``, at or before which some term must read, or else
    the newest read, when every term counts.  A distributed spec's
    ``bound_expr`` must pass the sign-bound gate that
    ``concordance_experiment`` also runs, and its ``tau_expr`` must be no
    older than the operator's newest read, op.tau(t).  Between the sample
    times nothing is checked.
    """

    def require(ok, values, what, against=None):
        bad = np.flatnonzero(~ok)
        if bad.size:
            k = int(bad[0])
            versus = "" if against is None else f" against {float(against[k])!r}"
            raise InvalidParameterError(
                f"{what}, but is {float(values[k])!r}{versus} at t={float(ts[k])!r}; criterion not applicable"
            )

    with np.errstate(all="ignore"):
        t = ts[:, None]
        if spec.kind != "discrete_delay":
            if spec.bound_expr:
                _sign_bound_gate(op, (ts[0], ts[-1]), 0, f"bound_expr {clipped(spec.bound_expr)}")
            if not spec.tau_expr:
                return
            # A kernel's reads count all or none, as its newest read does.
            reads = op.tau(t)
        else:
            # Combining unit reads gives the coefficients: column i is p_i at each sample time.
            reads = op._reads(t)
            p = op.combine(t, np.ones_like(reads))
            for i, (coef, _) in enumerate(spec.terms):
                require(p[:, i] >= 0.0, p[:, i], f"terms[{i}].coef_expr {clipped(coef)} must be >= 0")
        counted = True  # tau is the newest read, at or before which every term reads
        if spec.tau_expr:
            lows = np.broadcast_to(tau(ts), ts.shape)
            counted = reads <= lows[:, None]
            require(counted.any(axis=1), lows, f"tau_expr {clipped(spec.tau_expr)} must be no older than "
                    "the operator's newest read", reads.max(axis=1))
        if spec.kind == "discrete_delay" and (spec.bound_expr or spec.tau_expr):
            bound = f"bound_expr {clipped(spec.bound_expr)}" if spec.bound_expr else "the derived bound"
            at = f" of the terms that read at or before tau_expr {clipped(spec.tau_expr)}" if spec.tau_expr else ""
            b, total = op.bound_b(ts), _row_sums(np.where(counted, p, 0.0))
            require(b <= total * (1.0 + _BOUND_SLACK), b, f"{bound} must not exceed the sum of the coefficients{at}", total)


def _print_analysis(report: dict, fmt: str) -> None:
    if fmt == "json":
        _echo(strict_json(report))
        return
    if fmt == "csv":
        _echo("window_start,infimum")
        for t, v in report["window_infima"]:
            _echo(f"{t!r},{v!r}")
        return
    spec = report["spec"]
    p = report["parameters"]
    _echo(f"equation       : {spec.get('label') or spec['kind']}")
    _echo(
        f"criterion      : {p['grid_points']} samples on [{p['t_start']:g}, {p['t_end']:g}], "
        f"{p['panels']} Simpson panels per integral"
    )
    _echo(f"w_hat          : {report['w_hat']!r}  (tail infimum; trend {report['trend']})")
    _echo(f"threshold 1/e  : {report['threshold']!r}")
    _echo(f"margin         : {report['margin']!r}")
    verdict = report["verdict"]
    if verdict == "guaranteed":
        _echo("verdict        : GUARANTEED -- every nontrivial solution oscillates or decays monotonically to zero")
    else:
        _echo("verdict        : INCONCLUSIVE -- the criterion is silent at or below 1/e")
    tet = report["tetration"]
    if tet is not None:
        if tet["decision"] == "diverges_hence_guaranteed":
            _echo(
                f"tower check    : a = e^w = {tet['a']:.6g} > e^(1/e); the tower diverges "
                f"({tet['tower_outcome']} after {tet['tower_iterations']} iterations) -- no finite ratio bound can exist"
            )
        else:
            _echo(
                f"tower check    : a = e^w = {tet['a']:.6g} <= e^(1/e); the tower converges to "
                f"{tet['limit_if_convergent']!r} -- no contradiction at this rate"
            )


@_exit_codes
def cmd_analyze(
    spec_path,
    t_start: float,
    t_end: float,
    output_path=None,
    fmt: str = "text",
    grid_points: int = DEFAULT_GRID_POINTS,
    panels: int = PANELS,
) -> int:
    report, _, _ = analyze_spec(load_spec(spec_path), t_start, t_end, grid_points, panels)
    if output_path is not None:
        Path(output_path).write_text(strict_json(report) + "\n")
    _print_analysis(report, fmt)
    return 0


# ---------------------------------------------------------------------------
# simulate


def _parse_history_preset(preset: str, op) -> tuple[HistoryFunction, str]:
    start = sigma_pad_start(op)
    kind, _, arg = preset.partition(":")
    try:
        if kind == "constant":
            c = float(arg) if arg else 1.0
            return HistoryFunction.constant(c, start), f"constant:{c:g}"
        if kind == "exponential":
            rate = float(arg) if arg else 0.0
            return HistoryFunction.exponential(rate, start), f"exponential:{rate:g}"
        if kind == "random":
            seed = int(arg) if arg else 0
            return random_history(seed, start), f"random:{seed}"
    except ValueError as exc:
        raise InvalidParameterError(f"bad history preset argument in {preset!r}: {exc}") from exc
    raise InvalidParameterError(
        f"unknown history preset {preset!r}; use constant:C, exponential:RATE or random:SEED"
    )


@_exit_codes
def cmd_simulate(
    spec_path,
    history_preset: str,
    t_end: float,
    step: float,
    csv_path=None,
    interpolation: str = "cubic-hermite",
    transient_fraction: float = 0.25,
    fmt: str = "text",
) -> int:
    op = build_operator(load_spec(spec_path))
    hist, hist_desc = _parse_history_preset(history_preset, op)
    interp = Interpolation.LINEAR if interpolation == "linear" else Interpolation.CUBIC_HERMITE
    config = SimulationConfig(t_end=t_end, step=step, interpolation=interp)
    check_transient_fraction(transient_fraction)
    traj = integrate(op, hist, config)

    if csv_path is not None:
        write_trajectory_csv(traj, csv_path)

    if traj.overflowed:
        _echo(
            f"simulation of {op.label!r} with history {hist_desc} overflowed at "
            f"t={traj.final_time!r}; partial trajectory written", err=True
        )
        return 3

    cls = classify(traj, transient_fraction)
    summary = {
        "label": op.label,
        "history": hist_desc,
        "t_end": traj.final_time,
        "step": step,
        "interpolation": interp.value,
        "classification": cls.classification.value,
        "sign_changes_in_tail": cls.sign_changes,
        "crossings_total": len(cls.zero_crossings),
        "final_value": cls.final_value,
        "tail_monotone": cls.tail_monotone,
    }
    if fmt == "json":
        _echo(strict_json(summary))
    else:
        _echo(
            f"simulated {op.label!r}: {len(traj.times) - 1} steps of {step:g} "
            f"({interp.value}), history {hist_desc}"
        )
        _echo(
            f"class: {cls.classification.value}; sign changes in tail: {cls.sign_changes}; "
            f"crossings total: {len(cls.zero_crossings)}; final value: {cls.final_value!r}"
        )
        if csv_path is not None:
            _echo(f"csv: {csv_path}")
    return 0


# ---------------------------------------------------------------------------
# tower


@_exit_codes
def cmd_tower(base: float, max_iter: int = DEFAULT_MAX_ITER, tol: float = DEFAULT_TOL, fmt: str = "text") -> int:
    result = tower_limit(base, tol=tol, max_iter=max_iter)

    inside = euler_interval_contains(base)
    lambert_value = tower_limit_via_lambert(base) if EULER_LOWER < base <= EULER_UPPER else None

    if fmt == "json":
        doc = {
            "base": base,
            "outcome": result.outcome.value,
            "iterations_used": result.iterations_used,
            "residual": None if math.isnan(result.residual) else result.residual,
            "limit": result.limit,
            "last_value": result.last_value,
            "cycle": list(result.cycle) if result.cycle else None,
            "euler_interval": [EULER_LOWER, EULER_UPPER],
            "inside_euler_interval": inside,
            "lambert_limit": lambert_value,
        }
        _echo(strict_json(doc))
        return 0

    _echo(f"infinite power tower, base = {base!r}")
    _echo("  n        iterate")
    shown = min(12, result.iterations_used)
    # One iterate past the display cap, so that an overflow marker there shows.
    for n, t in enumerate(islice(tower_iterates(base), shown + 1), 1):
        if n > 1 and t == math.inf:
            _echo("  ...      (overflow range)")
        elif n <= shown:
            _echo(f"  {n:<8d} {t!r}")
    if result.outcome is TowerOutcome.CONVERGED:
        _echo(
            f"outcome: converged after {result.iterations_used} iterations; "
            f"limit = {result.limit!r} (residual {result.residual:.3g})"
        )
    elif result.outcome is TowerOutcome.DIVERGED:
        _echo(f"outcome: DIVERGED at iteration {result.iterations_used}; no finite tower limit")
    else:
        _echo(
            f"outcome: no decision after {result.iterations_used} iterations; "
            f"last value {result.last_value!r}"
            + (f"; two-cycle detected between {result.cycle[0]!r} and {result.cycle[1]!r}" if result.cycle else "")
        )
    where = "inside" if inside else "outside"
    _echo(f"Euler interval [{EULER_LOWER!r}, {EULER_UPPER!r}]: base is {where}")
    if lambert_value is not None:
        _echo(f"closed form W(-ln base)/(-ln base) = {lambert_value!r}")
        if result.outcome is TowerOutcome.CONVERGED:
            _echo(f"agreement |iterative - closed form| = {abs(result.limit - lambert_value):.3g}")
    return 0


# ---------------------------------------------------------------------------
# reproduce: the built-in benchmark scenarios of :data:`ddeosc.specfile.SCENARIO_CATALOG`


@_exit_codes
def cmd_reproduce(
    app_id: int,
    overrides: Optional[dict] = None,
    out_dir=None,
    seed: int = 0,
    n_histories: int = 10,
    fmt: str = "text",
) -> int:
    scenarios = make_scenarios(app_id, overrides)
    out = Path(out_dir) if out_dir is not None else Path(f"reproduce_app{app_id}")
    docs = []
    for sc in scenarios:
        report, op, estimate = analyze_spec(sc.spec, sc.crit_t_start, sc.crit_t_end)
        conc = concordance_experiment(
            op,
            sc.sim,
            estimate,
            n_histories=n_histories,
            seed=seed,
            history_amplitude=sc.history_amplitude,
        )
        # Written only once the ensemble has returned, so that a failed run
        # leaves no partial bundle.
        bundle = out / sc.name
        traj_dir = bundle / "trajectories"
        traj_dir.mkdir(parents=True, exist_ok=True)
        save_spec(sc.spec, bundle / "spec.json")
        (bundle / "report.json").write_text(strict_json(report) + "\n")
        for run_seed, traj in zip(conc.seeds, conc.trajectories):
            write_trajectory_csv(traj, traj_dir / f"traj_seed{run_seed}.csv")

        conc_doc = {
            "scenario": sc.name,
            "seed": seed,
            "seeds": list(conc.seeds),
            "history_amplitude": sc.history_amplitude,
            "w_hat": conc.verdict.w_hat,
            "verdict": conc.verdict.outcome.value,
            "classes": [c.classification.value for c in conc.classes],
            "sign_changes": [c.sign_changes for c in conc.classes],
            "overflowed_runs": conc.overflowed_runs,
            "discordant_runs": conc.discordant_runs,
            "concordant": conc.concordant,
            "audit_checked": conc.audit.checked,
            "audit_violations": len(conc.audit.violations),
            "stated_condition": sc.stated_condition,
            "stated_condition_holds": sc.stated_condition_holds,
            "discrepancy": sc.discrepancy,
        }
        (bundle / "concordance.json").write_text(strict_json(conc_doc) + "\n")
        docs.append(conc_doc)

    if fmt == "json":
        keys = ("scenario", "w_hat", "verdict", "stated_condition", "stated_condition_holds", "concordant", "discrepancy")
        _echo(strict_json([{**{k: doc[k] for k in keys}, "classes": Counter(doc["classes"])} for doc in docs]))
        return 0

    for sc, doc in zip(scenarios, docs):
        _echo(f"=== {doc['scenario']} ===")
        _echo(f"equation          : {sc.spec.label}")
        met = "met" if doc["stated_condition_holds"] else "NOT met"
        _echo(f"stated condition  : {doc['stated_condition']} -> {met}")
        _echo(
            f"computed criterion: w_hat = {doc['w_hat']!r} vs 1/e = {THRESHOLD:.6g} "
            f"-> {doc['verdict'].upper()}"
        )
        if doc["discrepancy"]:
            _echo(f"!! discrepancy    : {doc['discrepancy']}")
        hist_text = ", ".join(f"{k}: {v}" for k, v in sorted(Counter(doc["classes"]).items())) or "none classified"
        _echo(
            f"concordance       : {len(doc['classes'])}/{n_histories} runs classified "
            f"(seed {seed}); classes {{{hist_text}}}; "
            f"overflowed {doc['overflowed_runs']}; concordant: {'yes' if doc['concordant'] else 'NO'}"
        )
        _echo(f"bundle            : {out / doc['scenario']}")
    return 0


# ---------------------------------------------------------------------------
# click wiring


@click.group()
@click.version_option(__version__, prog_name="ddeosc")
def main():
    """Oscillation analysis for delay differential equations x'(t) + (Tx)(t) = 0."""


@main.command("analyze")
@click.option("--spec", "spec_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--t-start", type=float, default=10.0, show_default=True, help="start of the criterion sampling window")
@click.option("--t-end", type=float, default=110.0, show_default=True, help="end of the criterion sampling window")
@click.option("--grid-points", type=int, default=DEFAULT_GRID_POINTS, show_default=True)
@click.option("--panels", type=int, default=PANELS, show_default=True)
@click.option("--out", "output_path", type=click.Path(dir_okay=False), default=None, help="write the criterion report JSON here")
@click.option("--format", "fmt", type=click.Choice(["text", "json", "csv"]), default="text", show_default=True)
def _analyze_command(spec_path, t_start, t_end, grid_points, panels, output_path, fmt):
    """Estimate w for an equation spec and render the 1/e verdict."""
    sys.exit(cmd_analyze(spec_path, t_start, t_end, output_path, fmt, grid_points, panels))


@main.command("simulate")
@click.option("--spec", "spec_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--history", "history_preset", default="constant:1", show_default=True,
              help="initial history: constant:C, exponential:RATE or random:SEED")
@click.option("--t-end", type=float, default=60.0, show_default=True)
@click.option("--step", type=float, default=0.01, show_default=True)
@click.option("--out", "csv_path", type=click.Path(dir_okay=False), default=None, help="write the trajectory CSV here")
@click.option("--interpolation", type=click.Choice(["cubic-hermite", "linear"]), default="cubic-hermite", show_default=True)
@click.option("--transient-fraction", type=float, default=0.25, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text", show_default=True)
def _simulate_command(spec_path, history_preset, t_end, step, csv_path, interpolation, transient_fraction, fmt):
    """Integrate an equation spec by the method of steps and classify the run."""
    sys.exit(cmd_simulate(spec_path, history_preset, t_end, step, csv_path, interpolation, transient_fraction, fmt))


@main.command("tower")
@click.option("--base", type=float, required=True)
@click.option("--max-iter", type=int, default=DEFAULT_MAX_ITER, show_default=True)
@click.option("--tol", type=float, default=DEFAULT_TOL, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text", show_default=True)
def _tower_command(base, max_iter, tol, fmt):
    """Iterate the infinite power tower of a base and report convergence."""
    sys.exit(cmd_tower(base, max_iter, tol, fmt))


@main.command("reproduce")
@click.option("--app", "app_id", type=click.IntRange(1, 3), required=True, help="built-in benchmark scenario id")
@click.option("--set", "overrides", multiple=True, metavar="NAME=VALUE", help="override a scenario parameter")
@click.option("--out", "out_dir", type=click.Path(file_okay=False), default=None, help="bundle output directory")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--n-histories", type=int, default=10, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text", show_default=True)
def _reproduce_command(app_id, overrides, out_dir, seed, n_histories, fmt):
    """Rebuild a benchmark scenario, analyze it, and run a concordance ensemble."""
    parsed: dict = {}
    for item in overrides:
        name, sep, value = item.partition("=")
        if not sep:
            sys.exit(_fail(2, f"override {item!r} is not of the form NAME=VALUE"))
        try:
            parsed[name.strip()] = float(value)
        except ValueError:
            sys.exit(_fail(2, f"override {item!r} has a non-numeric value"))
    sys.exit(cmd_reproduce(app_id, parsed or None, out_dir, seed, n_histories, fmt))


if __name__ == "__main__":
    main()
