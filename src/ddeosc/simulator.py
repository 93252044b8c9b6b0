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

The step loop evaluates the operator at one site, on an array of times
(``op.evaluate_many(ts, history)``).  Each evaluation reads the history
through one numpy gather over an array of times (``history.many(ts)``; a
call ``history(t)`` gathers one time).  The gather is the scalar read's
arithmetic, element by element, so a read does not depend on the other
times of its call.  Each gather sends its reads at t <= 0 to the initial
history in one ``initial_history.many`` call.

The loop evaluates blocks of steps, the method of steps in its literal
form: with tau(t) <= t - min_lag, every stage of the next min_lag/step - 1
steps reads only nodes that are already computed, so one evaluation gives
all stage derivatives of the block, and the RK4 update then runs step by
step over them.  A block is capped at a fixed number of reads.  Both
sizes come from the operator's read points, its one description of where
it reads.  Every evaluation, a block or a single step, follows one read
rule, which the gather checks: a read at t > 0 lies between nodes computed
before it (int(t/step) + 1 <= the evaluation's first step), so that no
read is clamped and each has the bits it has in its own step.  A block
that breaks the rule, or whose evaluation raises any error (an overflow, a
domain error), is replayed one step at a time.  A single step is a block
of one, its two stage times evaluated in one call: a read that breaks the
rule raises, an overflow flags the run and any other error propagates.
Operators without a positive ``min_lag`` take single steps throughout.
"""

import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .criterion import (
    LiminfEstimate,
    Verdict,
    VerdictOutcome,
    theorem_verdict,
)
from .errors import (
    HistoryCoverageError,
    HistoryDomainError,
    InvalidParameterError,
    SpecFormatError,
    StepSizeError,
)
from .operators import AmnesiaOperator, AuditReport, HistoryFunction, _sign_bound_gate, random_history


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
    overflowed); the arrays then end at the offending sample.  A run whose
    evaluation at t = 0 overflows ends at node 0 with ``derivative_values[0]``
    NaN, since no derivative was computed.
    """

    times: np.ndarray
    values: np.ndarray
    derivative_values: np.ndarray
    config: SimulationConfig
    overflowed: bool = False

    @property
    def final_time(self) -> float:
        return float(self.times[-1])


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """CSV with header t,x,dx; floats in shortest round-trip form.

    An overflow-flagged run gets a trailing '#' comment line.
    """
    columns = (traj.times, traj.values, traj.derivative_values)
    lines = ["t,x,dx", *map(",".join, zip(*(map(repr, c.tolist()) for c in columns)))]
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
    """The initial history, then the computed nodes; the gather checks every read."""

    __slots__ = ()

    def many(self, ts) -> np.ndarray:
        return self._fn(np.asarray(ts, dtype=float))


#: The most delayed reads one block gathers: eight steps of the catalog's
#: distributed kernels (2 stages x 65 nodes x 2 delay maps per step).
#: Longer blocks gain no measurable speed and cost peak memory.
_BLOCK_READS = 2080


def _block_steps(op: AmnesiaOperator, h: float) -> int:
    """Steps per block: at most min_lag/h - 1, within the read budget.

    With tau(t) <= t - min_lag, every stage of steps k0 .. k0 + min_lag/h - 2
    reads at or before t_{k0} - h, behind the nodes computed before step k0.
    Operators without a positive lag take one step at a time.
    """
    min_lag = op.min_lag
    if min_lag is None:
        return 1
    by_lag = int(min_lag / h) - 1
    with np.errstate(all="ignore"):
        reads = op._reads(np.zeros((1, 1)))
    by_budget = _BLOCK_READS // (2 * reads.size)
    return max(1, min(by_lag, by_budget))


def integrate(
    op: AmnesiaOperator,
    initial_history: HistoryFunction,
    config: SimulationConfig,
) -> Trajectory:
    """Integrate x'(t) = -(Tx)(t) on [0, t_end] from the given history.

    The initial history must cover [sigma(0), 0].  For operators with a
    positive ``min_lag`` the step rule step <= min_lag / 4 is enforced up
    front; with lags that do not shrink, it keeps every read of a single
    step three steps behind the last completed node.  Integration halts
    early, with the trajectory flagged, as soon as |x| exceeds
    ``config.overflow_guard`` or an operator evaluation overflows.  Each
    evaluation reads its times at or before 0 with one
    ``initial_history.many`` call.
    """
    h = config.step
    min_lag = op.min_lag
    if min_lag is not None and h > min_lag / 4.0 + 1e-12:
        raise StepSizeError(
            f"step {h} exceeds min_lag/4 = {min_lag / 4.0} for operator {op.label!r}"
        )
    steps = config.t_end / h
    if steps * np.dtype(float).itemsize >= np.iinfo(np.intp).max:
        raise InvalidParameterError(f"t_end {config.t_end} at step {h} takes {steps:.3g} steps, more than an array can hold")
    n = int(math.floor(steps + 1e-9))
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
    hermite = config.interpolation is Interpolation.CUBIC_HERMITE

    def interpolate(ts: np.ndarray) -> np.ndarray:
        j = np.maximum((ts / h).astype(np.int64), 0)
        theta = (ts - j * h) / h
        om = 1.0 - theta
        if not hermite:
            return x[j] * om + x[j + 1] * theta
        sq = om * om
        tt = theta * theta
        j1 = j + 1
        return (
            x[j] * ((1.0 + 2.0 * theta) * sq)
            + h * dx[j] * (theta * sq)
            + x[j1] * (tt * (3.0 - 2.0 * theta))
            + h * dx[j1] * (tt * (theta - 1.0))
        )

    def gather(ts: np.ndarray) -> np.ndarray:
        # An evaluation reads at t > 0 only between nodes computed before
        # it, int(t/h) + 1 <= frontier; the first read in array order that
        # is not (or is NaN) raises.  Reads at t <= 0 go to the initial
        # history in one call; they are interpolated too (at node 0) and
        # then overwritten, so that every temporary has the full size of
        # the call.
        newest = ts.max()
        past = ts <= 0.0
        if not (newest <= 0.0 or newest / h < frontier):
            t = float(ts[~(past | (ts / h < frontier))][0])
            raise HistoryDomainError(
                f"delayed read at t={t} is not behind the computed trajectory "
                f"(frontier {frontier * h}); decrease the step"
            )
        values = interpolate(ts)
        if past.any():
            values[past] = initial_history.many(ts[past])
        return values

    reader = _TrajectoryReader._of_array_function(gather, initial_history.domain_start, float(times[-1]))

    x[0] = initial_history(0.0)
    overflowed = False
    last = n  # the node the run ends at
    try:
        dx[0] = -op.evaluate(0.0, reader)
    except OverflowError:
        dx[0] = math.nan  # no derivative was computed
        overflowed = True
        last = 0

    comp = 0.0  # Kahan compensation keeps the state accumulation at truncation level
    steps = _block_steps(op, h)
    single_until = 0  # steps before this one run one at a time
    k = 0
    while k < last:
        size = 1 if k < single_until else min(steps, n - k)
        frontier = k
        # Stage derivatives at t_k + h/2 and t_k + h for each step of the block.
        stage_times = (times[k : k + size, None] + [0.5 * h, h]).ravel()
        try:
            stages = (-op.evaluate_many(stage_times, reader)).tolist()
        except Exception as error:
            if size > 1:
                # Replayed one step at a time, a failure surfaces at the step
                # it belongs to, or not at all if the run stops before it.
                single_until = k + size
                continue
            if not isinstance(error, OverflowError):
                raise
            overflowed = True
            last = k
            break
        for fmid, fend in zip(stages[0::2], stages[1::2]):
            # RK4 with state-independent stages: k2 = k3 = fmid, Simpson update.
            # Python floats round as numpy's do, and an inf - inf gives NaN
            # without a numpy warning.
            xk = float(x[k])
            incr = (h / 6.0) * (float(dx[k]) + 4.0 * fmid + fend) - comp
            s = xk + incr
            comp = (s - xk) - incr
            x[k + 1] = s
            dx[k + 1] = fend
            k += 1
            if not math.isfinite(s) or abs(s) > config.overflow_guard:
                overflowed = True
                last = k
                break

    return Trajectory(
        times=times[: last + 1],
        values=x[: last + 1],
        derivative_values=dx[: last + 1],
        config=config,
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

    A crossing between two adjacent nonzero samples of opposite sign is
    located by linear interpolation; exact-zero samples are reported at
    their own timestamp, with runs of consecutive zeros collapsed to their
    first time.
    """
    return _crossings(traj.times, traj.values, np.sign(traj.values))


def _crossings(ts: np.ndarray, vs: np.ndarray, sign: np.ndarray) -> list[float]:
    flips = np.flatnonzero(sign[:-1] * sign[1:] < 0.0)
    zero_starts = np.flatnonzero((sign == 0.0) & np.append(True, sign[:-1] != 0.0))
    frac = vs[flips] / (vs[flips] - vs[flips + 1])
    # A flip at k needs nonzero samples k and k+1, so no zero run starts at
    # k or k+1: sorting by sample index puts the times in order.
    at = np.concatenate([flips, zero_starts])
    times = np.concatenate([ts[flips] + frac * (ts[flips + 1] - ts[flips]), ts[zero_starts]])
    return times[np.argsort(at)].tolist()


def check_transient_fraction(transient_fraction: float) -> None:
    if not 0.0 <= transient_fraction < 1.0:
        raise InvalidParameterError(f"transient_fraction must be in [0, 1), got {transient_fraction}")


def classify(traj: Trajectory, transient_fraction: float = 0.25) -> SolutionClass:
    """Classify the tail (t >= transient_fraction * final time) of a trajectory.

    Oscillatory needs at least two sign changes in the tail, counted as the
    flips between consecutive nonzero samples (zeros are skipped, so a zero
    between same-signed samples is a tangency).  MonotoneToZero needs no
    sign change in the tail, a nonincreasing magnitude, and |final value|
    below ``decay_tol``, 1e-6 times the peak magnitude over the transient.
    Anything failing both patterns is Inconclusive.  Scaling the values by a
    positive constant changes neither the class nor the crossing times.
    """
    if traj.overflowed:
        raise InvalidParameterError("cannot classify an overflow-flagged trajectory")
    check_transient_fraction(transient_fraction)

    ts = traj.times
    vs = traj.values
    sign = np.sign(vs)
    cutoff = transient_fraction * float(ts[-1])
    tail_mask = ts >= cutoff - 1e-12
    tail = vs[tail_mask]

    transient = vs[~tail_mask]
    scale_pool = transient if transient.size else vs
    scale = float(np.max(np.abs(scale_pool)))
    decay_tol = 1e-6 * max(scale, 5e-324)

    tail_sign = sign[tail_mask]
    tail_sign = tail_sign[tail_sign != 0.0]
    changes = int(np.count_nonzero(tail_sign[:-1] != tail_sign[1:]))
    abs_tail = np.abs(tail)
    tail_monotone = bool(np.all(np.diff(abs_tail) <= 1e-12 * max(scale, 1e-300)))
    final_value = float(vs[-1])

    if changes >= 2:
        cls = SolutionClassification.OSCILLATORY
    elif changes == 0 and tail_monotone and abs(final_value) < decay_tol:
        cls = SolutionClassification.MONOTONE_TO_ZERO
    else:
        cls = SolutionClassification.INCONCLUSIVE

    return SolutionClass(
        classification=cls,
        zero_crossings=tuple(_crossings(ts, vs, sign)),
        final_value=final_value,
        tail_monotone=tail_monotone,
        sign_changes=changes,
        decay_tol=decay_tol,
    )


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


def sigma_pad_start(op: AmnesiaOperator) -> float:
    """Start of an initial-history domain safely covering [sigma(0), 0]."""
    sigma0 = op.sigma(0.0)
    return sigma0 - 1e-6 * max(1.0, abs(sigma0))
