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

An operator is its array evaluation (``op.evaluate_many(ts, history)``),
and the step loop calls it at one site.  It reads the history through one
numpy gather over an array of times (``history.many(ts)``; a call
``history(t)`` gathers one time).  The gather uses exactly rounded
operations only and keeps the Python power for the one square in the
Hermite basis, so each read has the bits of the scalar formula.  Reads at
t <= 0 go to the initial history once per distinct time in a run: each
gather reads the times it has not seen before with one
``initial_history.many`` call and looks the others up.

The loop evaluates blocks of steps, the method of steps in its literal
form: with tau(t) <= t - min_lag, every stage of the next min_lag/step - 1
steps reads only nodes that are already computed, so one evaluation gives
all stage derivatives of the block, and the RK4 update then runs step by
step over them.  A block is capped at a fixed number of reads.  It is
valid only if every read at t > 0 lies between nodes computed before it
(int(t/step) + 1 <= the block's first step), which the gather checks.  A
block that fails the check, or whose evaluation raises any error (an
overflow, a domain error), is replayed one step at a time.  A single step
is a block of one, its two stage times evaluated in one call: it reads up
to the last computed node and raises for a read ahead of it, an overflow
flags the run and any other error propagates.  Operators without a known
``min_lag`` take single steps throughout.
"""

import math
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
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
from .operators import AmnesiaOperator, AuditReport, HistoryFunction, _ArrayHistory, audit_sign_bound, random_history


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
    operator_label: str = ""
    overflowed: bool = False

    @property
    def final_time(self) -> float:
        return float(self.times[-1])


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


class _TrajectoryReader(_ArrayHistory):
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
    Operators without a known lag or read points take one step at a time.
    """
    if op.min_lag is None or op.read_points is None:
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
        block = size > 1
        # Stage derivatives at t_k + h/2 and t_k + h for each step of the block.
        stage_times = (times[k : k + size, None] + [0.5 * h, h]).ravel()
        try:
            stages = (-op.evaluate_many(stage_times, reader)).tolist()
        except Exception as error:
            if block:
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
    """

    verdict: Verdict
    estimate: LiminfEstimate
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
    the one checked, and eight times spread over its window are audited.
    The operator must pass its sign-bound audit (it runs first and raises on
    violations, since the criterion hypothesis would be void).  Histories
    are truncated Fourier sums seeded with seed, seed+1, ...; every run's
    trajectory is kept, and the report is deterministic for fixed arguments.
    """
    if n_histories < 1:
        raise InvalidParameterError(f"n_histories must be >= 1, got {n_histories}")
    if seed < 0:
        raise InvalidParameterError(f"seed must be >= 0, got {seed}")

    audit = audit_sign_bound(
        op,
        t_samples=np.linspace(*estimate.t_range, 8),
        trials=5,
        seed=seed,
    )
    if not audit.passed:
        raise InvalidParameterError(
            f"operator {op.label!r} violates its sign bound on {len(audit.violations)} "
            f"sampled pairs (worst margin {audit.worst_margin:.3g}); criterion not applicable"
        )
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
