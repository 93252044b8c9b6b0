"""Command-line surface: analyze, simulate, tower, reproduce.

Exit codes: 0 success (regardless of verdict), 2 parse or parameter error,
3 numerical failure (including overflow-flagged simulations).  All commands
are deterministic for fixed arguments; random histories are always seeded
and the seed is echoed in the output.

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

from . import __version__
from .criterion import THRESHOLD, estimate_liminf_w, tetration_proof_trace, theorem_verdict
from .errors import (
    CrossValidationError,
    DomainError,
    ExpressionError,
    HistoryDomainError,
    InvalidParameterError,
    SpecFormatError,
)
from .expressions import parse_expression
from .operators import HistoryFunction, random_history, sigma_growth_check
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
_NUMERIC_ERRORS = (DomainError, HistoryDomainError, CrossValidationError, ArithmeticError, ValueError)


def _fail(code: int, message: str) -> int:
    click.echo(f"error: {message}", err=True)
    return code


def _exit_codes(command):
    """Turn package errors raised by a ``cmd_*`` function into its exit code."""

    @functools.wraps(command)
    def run(*args, **kwargs) -> int:
        try:
            return command(*args, **kwargs)
        except _PARSE_ERRORS as exc:
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
    grid_points: int = 512,
    panels: int = 64,
):
    """Run the criterion for a spec; returns (report dict, operator, estimate)."""
    op = build_operator(spec)
    if op.bound_b is None:
        raise InvalidParameterError(
            "spec has no usable bound function; set 'bound_expr' (field bound_expr)"
        )
    tau = parse_expression(spec.tau_expr) if spec.tau_expr else op.tau
    estimate = estimate_liminf_w(op.bound_b, tau, t_start, t_end, grid_points, panels)
    verdict = theorem_verdict(estimate)
    trace = tetration_proof_trace(estimate.w_hat) if estimate.w_hat > 0.0 else None

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


def _print_analysis(report: dict, fmt: str) -> None:
    if fmt == "json":
        click.echo(strict_json(report))
        return
    if fmt == "csv":
        click.echo("window_start,infimum")
        for t, v in report["window_infima"]:
            click.echo(f"{t!r},{v!r}")
        return
    spec = report["spec"]
    p = report["parameters"]
    click.echo(f"equation       : {spec.get('label') or spec['kind']}")
    click.echo(
        f"criterion      : {p['grid_points']} samples on [{p['t_start']:g}, {p['t_end']:g}], "
        f"{p['panels']} Simpson panels per integral"
    )
    click.echo(f"w_hat          : {report['w_hat']!r}  (tail infimum; trend {report['trend']})")
    click.echo(f"threshold 1/e  : {report['threshold']!r}")
    click.echo(f"margin         : {report['margin']!r}")
    verdict = report["verdict"]
    if verdict == "guaranteed":
        click.echo("verdict        : GUARANTEED -- every nontrivial solution oscillates or decays monotonically to zero")
    else:
        click.echo("verdict        : INCONCLUSIVE -- the criterion is silent at or below 1/e")
    tet = report["tetration"]
    if tet is not None:
        if tet["decision"] == "diverges_hence_guaranteed":
            click.echo(
                f"tower check    : a = e^w = {tet['a']:.6g} > e^(1/e); the tower diverges "
                f"({tet['tower_outcome']} after {tet['tower_iterations']} iterations) -- no finite ratio bound can exist"
            )
        else:
            click.echo(
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
    grid_points: int = 512,
    panels: int = 64,
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
        click.echo(
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
        click.echo(strict_json(summary))
    else:
        click.echo(
            f"simulated {op.label!r}: {len(traj.times) - 1} steps of {step:g} "
            f"({interp.value}), history {hist_desc}"
        )
        click.echo(
            f"class: {cls.classification.value}; sign changes in tail: {cls.sign_changes}; "
            f"crossings total: {len(cls.zero_crossings)}; final value: {cls.final_value!r}"
        )
        if csv_path is not None:
            click.echo(f"csv: {csv_path}")
    return 0


# ---------------------------------------------------------------------------
# tower


@_exit_codes
def cmd_tower(base: float, max_iter: int = 10_000, tol: float = 1e-10, fmt: str = "text") -> int:
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
        click.echo(strict_json(doc))
        return 0

    click.echo(f"infinite power tower, base = {base!r}")
    click.echo("  n        iterate")
    shown = min(12, result.iterations_used)
    # One iterate past the display cap, so that an overflow marker there shows.
    for n, t in enumerate(islice(tower_iterates(base), shown + 1), 1):
        if n > 1 and t == math.inf:
            click.echo("  ...      (overflow range)")
        elif n <= shown:
            click.echo(f"  {n:<8d} {t!r}")
    if result.outcome is TowerOutcome.CONVERGED:
        click.echo(
            f"outcome: converged after {result.iterations_used} iterations; "
            f"limit = {result.limit!r} (residual {result.residual:.3g})"
        )
    elif result.outcome is TowerOutcome.DIVERGED:
        click.echo(f"outcome: DIVERGED at iteration {result.at_iteration}; no finite tower limit")
    else:
        click.echo(
            f"outcome: no decision after {result.iterations_used} iterations; "
            f"last value {result.last_value!r}"
            + (f"; two-cycle detected between {result.cycle[0]!r} and {result.cycle[1]!r}" if result.cycle else "")
        )
    where = "inside" if inside else "outside"
    click.echo(f"Euler interval [{EULER_LOWER!r}, {EULER_UPPER!r}]: base is {where}")
    if lambert_value is not None:
        click.echo(f"closed form W(-ln base)/(-ln base) = {lambert_value!r}")
        if result.outcome is TowerOutcome.CONVERGED:
            click.echo(f"agreement |iterative - closed form| = {abs(result.limit - lambert_value):.3g}")
    return 0


# ---------------------------------------------------------------------------
# reproduce: the built-in benchmark scenarios of :data:`ddeosc.specfile.SCENARIO_CATALOG`


def _class_histogram(classes) -> dict:
    return dict(Counter(cls.classification.value for cls in classes))


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
    summaries = []
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
        summaries.append((sc, report, conc))

    if fmt == "json":
        click.echo(
            strict_json(
                [
                    {
                        "scenario": sc.name,
                        "w_hat": rep["w_hat"],
                        "verdict": rep["verdict"],
                        "stated_condition": sc.stated_condition,
                        "stated_condition_holds": sc.stated_condition_holds,
                        "classes": _class_histogram(conc.classes),
                        "concordant": conc.concordant,
                        "discrepancy": sc.discrepancy,
                    }
                    for sc, rep, conc in summaries
                ]
            )
        )
        return 0

    for sc, rep, conc in summaries:
        click.echo(f"=== {sc.name} ===")
        click.echo(f"equation          : {sc.spec.label}")
        met = "met" if sc.stated_condition_holds else "NOT met"
        click.echo(f"stated condition  : {sc.stated_condition} -> {met}")
        click.echo(
            f"computed criterion: w_hat = {rep['w_hat']!r} vs 1/e = {THRESHOLD:.6g} "
            f"-> {rep['verdict'].upper()}"
        )
        if sc.discrepancy:
            click.echo(f"!! discrepancy    : {sc.discrepancy}")
        hist = _class_histogram(conc.classes)
        hist_text = ", ".join(f"{k}: {v}" for k, v in sorted(hist.items())) or "none classified"
        click.echo(
            f"concordance       : {len(conc.classes)}/{n_histories} runs classified "
            f"(seed {seed}); classes {{{hist_text}}}; "
            f"overflowed {conc.overflowed_runs}; concordant: {'yes' if conc.concordant else 'NO'}"
        )
        click.echo(f"bundle            : {out / sc.name}")
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
@click.option("--grid-points", type=int, default=512, show_default=True)
@click.option("--panels", type=int, default=64, show_default=True)
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
@click.option("--max-iter", type=int, default=10_000, show_default=True)
@click.option("--tol", type=float, default=1e-10, show_default=True)
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
