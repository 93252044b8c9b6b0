"""Method-of-steps integration of x'(t) = -(Tx)(t) and trajectory classification.

The integrator is classical fixed-step RK4.  Because the response operator
reads only strictly delayed values (tau(t) <= t - min_lag and the step rule
enforces step <= min_lag / 4), the stage derivatives do not depend on the
current state, the two middle stages coincide, and every delayed read falls
inside the already-computed part of the trajectory: no implicitness.
Delayed reads use cubic Hermite interpolation of the stored value and
derivative samples by default, which preserves the fourth-order accuracy;
linear interpolation is available for cross-checks.  Trajectories are
written to and read back from CSV without loss.

Every operator reads the history through one numpy gather over an array
of times (``history.many(ts)``; a call ``history(t)`` gathers one time).
The gather uses exactly rounded operations only and keeps the Python power
for the one square in the Hermite basis, so each read has the bits of the
scalar formula.  Reads at t <= 0 go to the initial history once per
distinct time in a run: each gather reads the times it has not seen before
with one ``initial_history.many`` call and looks the others up.

Operators with an array evaluation (``evaluate_many``; every operator this
package builds has one) are integrated in blocks of steps, the method of
steps in its literal form: with tau(t) <= t - min_lag, every stage of the
next min_lag/step - 1 steps reads only nodes that are already computed, so
one evaluation gives all stage derivatives of the block, and the RK4 update
then runs step by step over them.  A block is capped at a fixed number of
reads.  It is valid only if every read at t > 0 lies between nodes computed
before it (int(t/step) + 1 <= the block's first step), which the gather
checks.  A block that fails the check, or whose evaluation raises any
error (an overflow, a domain error), is replayed one step at a time, which
is the step-by-step loop itself: overflow truncation and error messages
stay those of single steps.  A single step reads up to the last computed
node and raises for a read ahead of it.
"""

import math
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from pathlib import Path
from typing import Optional

import numpy as np

from .criterion import (
    LiminfEstimate,
    Verdict,
    VerdictOutcome,
    estimate_liminf_w,
    theorem_verdict,
)
from .errors import (
    HistoryCoverageError,
    HistoryDomainError,
    InvalidParameterError,
    SpecFormatError,
    StepSizeError,
)
from .operators import AmnesiaOperator, AuditReport, HistoryFunction, audit_sign_bound, random_history


class Interpolation(Enum):
    LINEAR = "linear"
    CUBIC_HERMITE = "cubic_hermite"


@dataclass(frozen=True)
class SimulationConfig:
    t_end: float
    step: float
    interpolation: Interpolation = Interpolation.CUBIC_HERMITE
    overflow_guard: float = 1e12

    def __post_init__(self):
        for name, value in (("t_end", self.t_end), ("step", self.step)):
            if not 0.0 < value < math.inf:
                raise InvalidParameterError(f"{name} must be finite and positive, got {value}")
        if not self.overflow_guard > 0.0:
            raise InvalidParameterError(f"overflow_guard must be positive, got {self.overflow_guard}")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Uniformly sampled solution: times k*step, values x, derivatives x'.

    ``derivative_values[k]`` is -(Tx)(times[k]) evaluated against the dense
    history available at that node.  ``overflowed`` marks a run halted early
    because |x| passed the overflow guard (or the operator evaluation
    overflowed); the arrays then end at the offending sample.
    """

    times: np.ndarray
    values: np.ndarray
    derivative_values: np.ndarray
    config: SimulationConfig
    operator_label: str = ""
    overflowed: bool = False

    @property
    def final_time(self) -> float:
        return float(self.times[-1])

    @property
    def final_value(self) -> float:
        return float(self.values[-1])


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """CSV with header t,x,dx; floats in shortest round-trip form.

    An overflow-flagged run gets a trailing '#' comment line.
    """
    lines = ["t,x,dx"]
    for t, v, d in zip(traj.times, traj.values, traj.derivative_values):
        lines.append(f"{float(t)!r},{float(v)!r},{float(d)!r}")
    if traj.overflowed:
        lines.append(
            f"# overflow: |x| exceeded {traj.config.overflow_guard:g} "
            f"(or an operator evaluation overflowed); truncated at t={traj.final_time!r}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def read_trajectory_csv(path) -> Trajectory:
    """Parse a trajectory CSV back; samples round-trip exactly.

    The integration config is reconstructed only as far as the file allows
    (step from the time grid); interpolation choice is not recorded.
    """
    times, values, derivs = [], [], []
    overflowed = False
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line == "t,x,dx":
            continue
        if line.startswith("#"):
            overflowed = overflowed or line.startswith("# overflow")
            continue
        t, v, d = line.split(",")
        times.append(float(t))
        values.append(float(v))
        derivs.append(float(d))
    if not times:
        raise SpecFormatError(f"no samples in trajectory CSV {path}")
    step = times[1] - times[0] if len(times) > 1 else 1.0
    config = SimulationConfig(t_end=max(times[-1], step), step=step)
    return Trajectory(
        times=np.array(times),
        values=np.array(values),
        derivative_values=np.array(derivs),
        config=config,
        overflowed=overflowed,
    )


class _TrajectoryReader(HistoryFunction):
    """The initial history, then the computed nodes; a call gathers one time."""

    __slots__ = ("_gather",)

    def __init__(self, gather, domain_start: float, domain_end: float):
        super().__init__(lambda t: gather(np.array([t]))[0], domain_start, domain_end)
        self._gather = gather

    def many(self, ts) -> np.ndarray:
        return self._gather(np.asarray(ts, dtype=float))


#: The most delayed reads one block gathers: eight steps of the catalog's
#: distributed kernels (2 stages x 65 nodes x 2 delay maps per step).
#: Longer blocks gain no measurable speed and cost peak memory.
_BLOCK_READS = 2080


def _block_steps(op: AmnesiaOperator, h: float) -> int:
    """Steps per block: at most min_lag/h - 1, within the read budget.

    With tau(t) <= t - min_lag, every stage of steps k0 .. k0 + min_lag/h - 2
    reads at or before t_{k0} - h, behind the nodes computed before step k0.
    Operators without an array evaluation take one step at a time.
    """
    if op.evaluate_many is None or op.min_lag is None or op.read_points is None:
        return 1
    by_lag = int(op.min_lag / h) - 1
    by_budget = _BLOCK_READS // (2 * len(op.read_points(0.0)))
    return max(1, min(by_lag, by_budget))


def integrate(
    op: AmnesiaOperator,
    initial_history: HistoryFunction,
    config: SimulationConfig,
) -> Trajectory:
    """Integrate x'(t) = -(Tx)(t) on [0, t_end] from the given history.

    The initial history must cover [sigma(0), 0].  For operators with a known
    ``min_lag`` the step rule step <= min_lag / 4 is enforced up front; it
    guarantees that every delayed read lies at or before the last completed
    node.  Integration halts early, with the trajectory flagged, as soon as
    |x| exceeds ``config.overflow_guard`` or an operator evaluation overflows.
    The initial history must be a pure function of t: its value at a time is
    computed once and reused for every later read at that time.  Each
    evaluation reads the times at or before 0 that it is the first to need
    with one ``initial_history.many`` call.
    """
    h = config.step
    if op.min_lag is not None and h > op.min_lag / 4.0 + 1e-12:
        raise StepSizeError(
            f"step {h} exceeds min_lag/4 = {op.min_lag / 4.0} for operator {op.label!r}"
        )
    n = int(math.floor(config.t_end / h + 1e-9))
    if n < 1:
        raise InvalidParameterError(f"t_end {config.t_end} is shorter than one step {h}")

    sigma0 = op.sigma(0.0)
    if sigma0 < initial_history.domain_start - 1e-9 * max(1.0, abs(sigma0)):
        raise HistoryCoverageError(
            f"initial history starts at {initial_history.domain_start} but the operator "
            f"reads back to sigma(0) = {sigma0}"
        )

    times = np.arange(n + 1) * h
    x = np.zeros(n + 1)
    dx = np.zeros(n + 1)
    frontier = 0  # index of the last node computed before the current evaluation
    block = False  # whether the current evaluation spans several steps
    hermite = config.interpolation is Interpolation.CUBIC_HERMITE

    initial_values: dict[float, float] = {}  # the lags recur, so past reads repeat

    def interpolate(ts: np.ndarray) -> np.ndarray:
        # The phase square stays a Python power, which numpy's square
        # differs from in the last bit now and then.
        j = np.maximum(np.minimum((ts / h).astype(np.int64), frontier - 1), 0)
        theta = (ts - j * h) / h
        if not hermite:
            return x[j] * (1.0 - theta) + x[j + 1] * theta
        sq = np.fromiter(map(pow, (1.0 - theta).tolist(), repeat(2.0)), float, theta.size)
        tt = theta * theta
        j1 = j + 1
        return (
            x[j] * ((1.0 + 2.0 * theta) * sq)
            + h * dx[j] * (theta * sq)
            + x[j1] * (tt * (3.0 - 2.0 * theta))
            + h * dx[j1] * (tt * (theta - 1.0))
        )

    def gather(ts: np.ndarray) -> np.ndarray:
        # Reads at t <= 0 go to the initial history once per distinct time,
        # the new ones in one call; they are interpolated too (clamped to
        # node 0) and then overwritten, so that every temporary has the full
        # size of the call.  A single step reads up to the frontier, within a
        # relative slack of 1e-9; the first read ahead of it (or NaN) raises.
        # A block reads at t > 0 only between nodes computed before it,
        # int(t/h) + 1 <= frontier, so that no index is clamped and every
        # read has the bits it has in its own step; otherwise the block is
        # abandoned.
        past = ts <= 0.0
        if block:
            newest = ts.max()
            if not (newest <= 0.0 or newest / h < frontier):
                raise HistoryDomainError(f"block read at t={newest} is not behind node {frontier}")
        else:
            ahead = ~(past | (ts <= frontier * h + 1e-9 * np.maximum(1.0, ts)))
            if ahead.any():
                t = float(ts[ahead][0])
                if math.isnan(t):
                    raise ValueError("cannot convert float NaN to integer")
                raise HistoryDomainError(
                    f"delayed read at t={t} is ahead of the computed trajectory "
                    f"(frontier {frontier * h}); decrease the step"
                )
        values = interpolate(ts)
        early = ts[past].tolist()
        missing = [t for t in dict.fromkeys(early) if t not in initial_values]
        if missing:
            initial_values.update(zip(missing, initial_history.many(np.array(missing)).tolist()))
        values[past] = [initial_values[t] for t in early]
        return values

    reader = _TrajectoryReader(gather, initial_history.domain_start, float(times[-1]))

    x[0] = initial_history(0.0)
    dx[0] = -op.evaluate(0.0, reader)

    overflowed = False
    last = n
    comp = 0.0  # Kahan compensation keeps the state accumulation at truncation level
    steps = _block_steps(op, h)
    single_until = 0  # steps before this one run one at a time
    k = 0
    while k < n:
        size = 1 if k < single_until else min(steps, n - k)
        frontier = k
        block = size > 1
        # Stage derivatives at t_k + h/2 and t_k + h for each step of the block.
        if block:
            stage_times = (times[k : k + size, None] + [0.5 * h, h]).ravel()
            try:
                stages = (-op.evaluate_many(stage_times, reader)).tolist()
            except Exception:
                # Replayed one step at a time, a failure surfaces at the step
                # it belongs to, or not at all if the run stops before it.
                single_until = k + size
                continue
        else:
            t = float(times[k])
            try:
                stages = [-op.evaluate(t + 0.5 * h, reader), -op.evaluate(t + h, reader)]
            except OverflowError:
                overflowed = True
                last = k
                break
        for fmid, fend in zip(stages[0::2], stages[1::2]):
            # RK4 with state-independent stages: k2 = k3 = fmid, Simpson update.
            incr = (h / 6.0) * (dx[k] + 4.0 * fmid + fend) - comp
            s = x[k] + incr
            comp = (s - x[k]) - incr
            x[k + 1] = s
            dx[k + 1] = fend
            k += 1
            if not math.isfinite(s) or abs(s) > config.overflow_guard:
                overflowed = True
                last = k
                break
        if overflowed:
            break

    return Trajectory(
        times=times[: last + 1],
        values=x[: last + 1],
        derivative_values=dx[: last + 1],
        config=config,
        operator_label=op.label,
        overflowed=overflowed,
    )


class SolutionClassification(Enum):
    OSCILLATORY = "oscillatory"
    MONOTONE_TO_ZERO = "monotone_to_zero"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class SolutionClass:
    """Trajectory classification against the oscillate-or-decay dichotomy.

    ``sign_changes`` counts strict sign changes after the transient cutoff
    (isolated zeros between same-signed neighbors are tangencies, not
    crossings); ``zero_crossings`` lists crossing times over the whole run.
    """

    classification: SolutionClassification
    zero_crossings: tuple[float, ...]
    final_value: float
    tail_monotone: bool
    sign_changes: int
    decay_tol: float


def zero_crossings(traj: Trajectory) -> list[float]:
    """Times where the sampled solution changes strict sign.

    Crossings between samples are located by linear interpolation; exact-zero
    samples are reported at their own timestamp, with runs of consecutive
    zeros collapsed to their first time.
    """
    ts = traj.times
    vs = traj.values
    out: list[float] = []
    in_zero_run = False
    for k in range(len(vs)):
        if vs[k] == 0.0:
            if not in_zero_run:
                out.append(float(ts[k]))
                in_zero_run = True
            continue
        in_zero_run = False
        if k + 1 < len(vs) and vs[k + 1] != 0.0 and vs[k] * vs[k + 1] < 0.0:
            frac = vs[k] / (vs[k] - vs[k + 1])
            out.append(float(ts[k] + frac * (ts[k + 1] - ts[k])))
    return out


def _tail_sign_changes(values: np.ndarray) -> int:
    changes = 0
    prev = 0
    for v in values:
        if v == 0.0:
            continue
        s = 1 if v > 0.0 else -1
        if prev != 0 and s != prev:
            changes += 1
        prev = s
    return changes


def check_transient_fraction(transient_fraction: float) -> None:
    if not 0.0 <= transient_fraction < 1.0:
        raise InvalidParameterError(f"transient_fraction must be in [0, 1), got {transient_fraction}")


def classify(
    traj: Trajectory,
    transient_fraction: float = 0.25,
    decay_tol: Optional[float] = None,
) -> SolutionClass:
    """Classify the tail (t >= transient_fraction * final time) of a trajectory.

    Oscillatory needs at least two strict sign changes in the tail.
    MonotoneToZero needs a one-signed tail, nonincreasing in magnitude, with
    |final value| below ``decay_tol`` (default: 1e-6 times the peak magnitude
    over the transient).  Anything failing both patterns is Inconclusive.
    Scaling the values by a positive constant changes neither the class nor
    the crossing times.
    """
    if traj.overflowed:
        raise InvalidParameterError("cannot classify an overflow-flagged trajectory")
    check_transient_fraction(transient_fraction)

    ts = traj.times
    vs = traj.values
    cutoff = transient_fraction * float(ts[-1])
    tail_mask = ts >= cutoff - 1e-12
    tail = vs[tail_mask]

    transient = vs[~tail_mask]
    scale_pool = transient if transient.size else vs
    scale = float(np.max(np.abs(scale_pool)))
    if decay_tol is None:
        decay_tol = 1e-6 * max(scale, 5e-324)

    changes = _tail_sign_changes(tail)
    abs_tail = np.abs(tail)
    tail_monotone = bool(np.all(np.diff(abs_tail) <= 1e-12 * max(scale, 1e-300)))
    signs = {1 if v > 0 else -1 for v in tail if v != 0.0}
    one_signed = len(signs) <= 1
    final_value = float(vs[-1])

    if changes >= 2:
        cls = SolutionClassification.OSCILLATORY
    elif changes == 0 and one_signed and tail_monotone and abs(final_value) < decay_tol:
        cls = SolutionClassification.MONOTONE_TO_ZERO
    else:
        cls = SolutionClassification.INCONCLUSIVE

    return SolutionClass(
        classification=cls,
        zero_crossings=tuple(zero_crossings(traj)),
        final_value=final_value,
        tail_monotone=tail_monotone,
        sign_changes=changes,
        decay_tol=float(decay_tol),
    )


@dataclass(frozen=True, eq=False)
class ConcordanceReport:
    """Criterion verdict side by side with an ensemble of simulated solutions.

    ``discordant_runs`` counts completed runs whose class contradicts a
    GUARANTEED verdict: Inconclusive with a one-signed tail bounded away
    from zero.  Overflowed runs cannot be classified and are only counted.
    """

    verdict: Verdict
    estimate: LiminfEstimate
    classes: tuple[SolutionClass, ...]
    seeds: tuple[int, ...]
    overflowed_runs: int
    discordant_runs: int
    concordant: bool
    audit: AuditReport
    trajectories: tuple[Trajectory, ...] = ()


def concordance_experiment(
    op: AmnesiaOperator,
    config: SimulationConfig,
    *,
    n_histories: int = 10,
    seed: int = 0,
    history_amplitude: float = 1.0,
    transient_fraction: float = 0.25,
    criterion_t_start: Optional[float] = None,
    criterion_t_end: Optional[float] = None,
    audit_trials: int = 5,
    keep_trajectories: bool = False,
    estimate: Optional[LiminfEstimate] = None,
) -> ConcordanceReport:
    """Estimate w for the operator's bound, then simulate seeded random histories.

    The operator must pass its sign-bound audit (a sampled audit runs first
    and raises on violations, since the criterion hypothesis would be void).
    Histories are truncated Fourier sums seeded with seed, seed+1, ...; the
    report is deterministic for fixed arguments.  A caller that already
    holds the estimate of ``op.bound_b`` over the criterion window passes it
    as ``estimate`` and it is used as is, not recomputed.
    """
    if n_histories < 1:
        raise InvalidParameterError(f"n_histories must be >= 1, got {n_histories}")
    if op.bound_b is None:
        raise InvalidParameterError("operator has no bound_b; the criterion needs one")

    lag0 = -op.sigma(0.0)
    if not lag0 > 0.0:
        raise InvalidParameterError("operator must read strictly into the past at t = 0")
    t0 = criterion_t_start if criterion_t_start is not None else 2.0 * lag0
    t1 = criterion_t_end if criterion_t_end is not None else t0 + max(config.t_end, 10.0 * lag0)

    audit = audit_sign_bound(
        op,
        t_samples=np.linspace(t0, t1, 8),
        trials=audit_trials,
        seed=seed,
    )
    if not audit.passed:
        raise InvalidParameterError(
            f"operator {op.label!r} violates its sign bound on {len(audit.violations)} "
            f"sampled pairs (worst margin {audit.worst_margin:.3g}); criterion not applicable"
        )

    if estimate is None:
        estimate = estimate_liminf_w(op.bound_b, op.tau, t0, t1)
    verdict = theorem_verdict(estimate)

    classes: list[SolutionClass] = []
    kept: list[Trajectory] = []
    seeds = tuple(seed + i for i in range(n_histories))
    overflowed = 0
    discordant = 0
    for s in seeds:
        hist = random_history(s, sigma_pad_start(op), 0.0, amplitude=history_amplitude)
        traj = integrate(op, hist, config)
        if keep_trajectories:
            kept.append(traj)
        if traj.overflowed:
            overflowed += 1
            continue
        cls = classify(traj, transient_fraction)
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
        estimate=estimate,
        classes=tuple(classes),
        seeds=seeds,
        overflowed_runs=overflowed,
        discordant_runs=discordant,
        concordant=discordant == 0,
        audit=audit,
        trajectories=tuple(kept),
    )


def sigma_pad_start(op: AmnesiaOperator) -> float:
    """Start of an initial-history domain safely covering [sigma(0), 0]."""
    sigma0 = op.sigma(0.0)
    return sigma0 - 1e-6 * max(1.0, abs(sigma0))
