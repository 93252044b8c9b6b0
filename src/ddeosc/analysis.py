"""The theorem's hypotheses: the checks that hold a spec to them, and the analysis built on them.

The dichotomy covers an operator whose rate bound b satisfies the sign
bound, whose newest read tau(t) lies behind t, and whose oldest read
sigma(t) grows without bound.  ``tau(t) < t`` is checked by the criterion
estimate, whose public entry point needs it; every other hypothesis is
checked here:

- :func:`analyze_spec` runs the criterion on a spec and holds it to the
  admissibility rules of :func:`_check_criterion_inputs`, which reject a
  spec outside the hypotheses with :class:`InvalidParameterError`;
- :func:`_sign_bound_gate` is the sampled audit of the sign bound that a
  kernel's ``bound_expr`` and every concordance ensemble must pass;
- :func:`concordance_experiment` sets the verdict beside an ensemble of
  simulated solutions, once the operator has passed the gate.
"""

import math
import sys
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .criterion import (
    DEFAULT_GRID_POINTS,
    PANELS,
    THRESHOLD,
    LiminfEstimate,
    Verdict,
    VerdictOutcome,
    estimate_liminf_w,
    tetration_proof_trace,
    theorem_verdict,
)
from .errors import InvalidParameterError, clipped
from .expressions import parse_expression
from .operators import AmnesiaOperator, AuditReport, _row_sums, audit_sign_bound, random_history, sigma_growth_check
from .simulator import (
    SimulationConfig,
    SolutionClass,
    SolutionClassification,
    Trajectory,
    classify,
    integrate,
    sigma_pad_start,
)
from .specfile import EquationSpec, build_operator


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
    sigma_unbounded = sigma_growth_check(op, t_start, t_end)
    # After the estimate, so that a spec it cannot evaluate keeps the estimate's error.
    _check_criterion_inputs(spec, op, tau, estimate.sample_times, sigma_unbounded)
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
        "sigma_unbounded_check": sigma_unbounded,
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


def _check_criterion_inputs(spec: EquationSpec, op, tau, ts: np.ndarray, sigma_unbounded: bool) -> None:
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
    times nothing is checked.  Last, for every spec, ``sigma_unbounded``,
    the result of :func:`sigma_growth_check` across the window, must hold:
    a failure names the first sample time with a non-finite sigma, or else
    sigma at the window's two ends.
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
            # A kernel's reads count all or none, as its newest read does.
            reads = op.tau(t) if spec.tau_expr else None
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
    if not sigma_unbounded:
        times, sigmas = ts.tolist(), op.sigma(ts).tolist()
        for t, s in zip(times, sigmas):
            if not math.isfinite(s):  # in the audit's words, as the gate would say it
                raise InvalidParameterError(f"sigma(t) must be finite; sigma({t!r}) = {s!r}")
        raise InvalidParameterError(f"sigma(t) must grow without bound on [{times[0]!r}, {times[-1]!r}], but is {sigmas[0]!r} "
                                    f"at t={times[0]!r} and {sigmas[-1]!r} at t={times[-1]!r}; criterion not applicable")


def _sign_bound_gate(op: AmnesiaOperator, t_range: tuple[float, float], seed: int, subject: str) -> AuditReport:
    """Audit ``op`` at 8 times across ``t_range``, 5 trials from ``seed``; a violation raises, naming ``subject``."""
    audit = audit_sign_bound(op, np.linspace(*t_range, 8), trials=5, seed=seed)
    if not audit.passed:
        raise InvalidParameterError(
            f"{subject} violates the operator's sign bound on {len(audit.violations)} "
            f"of {audit.checked} sampled pairs (worst margin {audit.worst_margin:.3g}); criterion not applicable"
        )
    return audit


@dataclass(frozen=True, eq=False)
class ConcordanceReport:
    """Criterion verdict side by side with an ensemble of simulated solutions.

    ``discordant_runs`` counts completed runs whose class contradicts a
    GUARANTEED verdict: Inconclusive with a one-signed tail bounded away
    from zero.  Overflowed runs cannot be classified and are only counted.
    ``concordant`` holds when at least one run was classified and none is
    discordant: an ensemble with no classified run confirms nothing.
    """

    verdict: Verdict
    classes: tuple[SolutionClass, ...]
    seeds: tuple[int, ...]
    overflowed_runs: int
    discordant_runs: int
    concordant: bool
    audit: AuditReport
    trajectories: tuple[Trajectory, ...]


def concordance_experiment(
    op: AmnesiaOperator,
    config: SimulationConfig,
    estimate: LiminfEstimate,
    *,
    n_histories: int = 10,
    seed: int = 0,
    history_amplitude: float = 1.0,
) -> ConcordanceReport:
    """Simulate seeded random histories beside the verdict on ``estimate``.

    ``estimate`` is the criterion estimate of ``op.bound_b``; its verdict is
    the one checked.  The operator must first pass the criterion's
    sign-bound gate across the estimate's window, seeded with ``seed``; a
    violation raises, since the criterion hypothesis would be void.  Histories
    are truncated Fourier sums seeded with seed, seed+1, ...; every run's
    trajectory is kept, and the report is deterministic for fixed arguments.
    """
    if n_histories < 1:
        raise InvalidParameterError(f"n_histories must be >= 1, got {n_histories}")
    if seed < 0:
        raise InvalidParameterError(f"seed must be >= 0, got {seed}")

    audit = _sign_bound_gate(op, estimate.t_range, seed, f"the bound_b of operator {op.label!r}")
    verdict = theorem_verdict(estimate)

    classes: list[SolutionClass] = []
    kept: list[Trajectory] = []
    seeds = tuple(seed + i for i in range(n_histories))
    overflowed = 0
    discordant = 0
    for s in seeds:
        hist = random_history(s, sigma_pad_start(op), 0.0, amplitude=history_amplitude)
        traj = integrate(op, hist, config)
        kept.append(traj)
        if traj.overflowed:
            overflowed += 1
            continue
        cls = classify(traj)
        classes.append(cls)
        if (
            verdict.outcome is VerdictOutcome.GUARANTEED
            and cls.classification is SolutionClassification.INCONCLUSIVE
            and cls.sign_changes == 0
            and abs(cls.final_value) >= cls.decay_tol
        ):
            discordant += 1

    return ConcordanceReport(
        verdict=verdict,
        classes=tuple(classes),
        seeds=seeds,
        overflowed_runs=overflowed,
        discordant_runs=discordant,
        concordant=bool(classes) and discordant == 0,
        audit=audit,
        trajectories=tuple(kept),
    )
