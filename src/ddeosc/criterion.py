"""The oscillation criterion: w = liminf of the integral of b over [tau(t), t].

For a delay equation x'(t) + (Tx)(t) = 0 whose response operator respects a
sign bound with rate b(t) and newest-read map tau(t), the quantity

    w = liminf over t of the integral of b(s) ds from tau(t) to t

decides the dichotomy: when w > 1/e, every nontrivial solution either
oscillates or tends monotonically to zero.  The threshold is exactly the
edge of the power-tower convergence interval: a nonoscillating solution
forces a finite ratio bound zeta >= e^(zeta * w), whose iterates are the
tower of a = e^w, and that tower has a finite limit only for a <= e^(1/e),
i.e. w <= 1/e.  :func:`tetration_proof_trace` replays this mechanism and
cross-validates the three equivalent tests against each other.

:func:`estimate_liminf_w` samples the integral on a grid of times in one
pass over row blocks of at most ``_BLOCK_ELEMENTS`` Simpson nodes: per
block, one ``tau`` call on its times and one ``b`` call on the (times,
panels + 1) array of their nodes, summed row by row by
:func:`~ddeosc.quadrature.composite_simpson`.  Each sample has the bits
of the one-time rule.  A block that raises is replayed one time at a
time, so an error surfaces at the time, and in the order, that a loop
over the times would meet it.
"""

import math
from dataclasses import dataclass
from enum import Enum
from itertools import islice
from typing import Callable, Union

import numpy as np

from .errors import CrossValidationError, DomainError, InvalidParameterError
from .quadrature import PANELS, composite_simpson
from .special_functions import (
    EULER_UPPER,
    INV_E,
    ConvergenceResult,
    TowerOutcome,
    lambert_w0,
    tower_iterates,
    tower_limit,
)

#: Strict threshold of the criterion.
THRESHOLD = INV_E

DEFAULT_GRID_POINTS = 512

#: Simpson nodes per call of the rate function.  At the default 64 panels
#: a block holds 63 sample times and the 512-point grid takes nine blocks;
#: a larger grid or panel count costs more blocks, not more memory.
_BLOCK_ELEMENTS = 1 << 12

_TREND_SLOPE_TOL = 1e-6  # per unit time, times max(1, |w_hat|)
_TREND_WINDOWS = 15


class Trend(Enum):
    STABLE = "stable"
    INCREASING = "increasing"
    DECREASING = "decreasing"
    OSCILLATING = "oscillating"


@dataclass(frozen=True, eq=False)
class LiminfEstimate:
    """Finite-horizon surrogate for the liminf quantity w.

    ``w_hat`` is the infimum of the integral samples over the tail window
    (the last half of ``t_range``).  ``window_infima`` lists nested windows
    [start, t_end] with their infima; ``trend`` diagnoses whether the tail
    looks settled.  The raw samples are kept for export and plotting.
    """

    w_hat: float
    window_infima: tuple[tuple[float, float], ...]
    trend: Trend
    t_range: tuple[float, float]
    sample_times: np.ndarray
    sample_values: np.ndarray


class VerdictOutcome(Enum):
    GUARANTEED = "guaranteed"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Verdict:
    """Criterion decision: GUARANTEED iff w_hat exceeds 1/e strictly.

    GUARANTEED means every nontrivial solution oscillates or tends
    monotonically to zero.  Ties at the threshold are not broken upward.
    """

    outcome: VerdictOutcome
    w_hat: float
    threshold: float
    margin: float


class TowerDecision(Enum):
    DIVERGES_HENCE_GUARANTEED = "diverges_hence_guaranteed"
    CONVERGES_HENCE_INCONCLUSIVE = "converges_hence_inconclusive"


@dataclass(frozen=True)
class TetrationTrace:
    """Replay of the fixed-point mechanism behind the 1/e threshold.

    ``iterates`` holds the first values of the tower of a = e^w (display
    cap of 100 entries); the decision itself is cross-validated against the
    closed-form tests, not read off the stored prefix.
    """

    w: float
    a: float
    iterates: tuple[float, ...]
    decision: TowerDecision
    limit_if_convergent: Union[float, None]
    tower_result: ConvergenceResult


def _integrals(b: Callable, tau: Callable, ts: np.ndarray, panels: int) -> np.ndarray:
    """The integral of b over [tau(t), t] for every t in ``ts``, in row blocks.

    Each block of times takes one ``tau`` call and one ``b`` call on its
    Simpson nodes, at most :data:`_BLOCK_ELEMENTS` of them.  A block that
    raises is replayed one time at a time, which is the loop that reads
    tau(t), checks tau(t) < t and integrates, one time after another.
    """
    rows = max(1, _BLOCK_ELEMENTS // max(panels + 1, 1))
    blocks = []
    for start in range(0, len(ts), rows):
        block = ts[start : start + rows]
        try:
            blocks.append(_block_integrals(b, tau, block, panels))
        except Exception:
            blocks.extend(_block_integrals(b, tau, block[k : k + 1], panels) for k in range(len(block)))
    return np.concatenate(blocks)


def _block_integrals(b: Callable, tau: Callable, ts: np.ndarray, panels: int) -> np.ndarray:
    with np.errstate(all="ignore"):
        lows = np.broadcast_to(tau(ts), ts.shape)
    late = np.flatnonzero(~(lows < ts))
    if late.size:
        k = int(late[0])
        raise InvalidParameterError(f"tau(t) must lie strictly below t; tau({float(ts[k])}) = {float(lows[k])}")
    return composite_simpson(b, lows, ts, panels)


def estimate_liminf_w(
    b: Callable,
    tau: Callable,
    t_start: float,
    t_end: float,
    grid_points: int = DEFAULT_GRID_POINTS,
    panels: int = PANELS,
) -> LiminfEstimate:
    """Sample the criterion integral on a uniform grid and take tail infima.

    The liminf itself is not computable from finitely many samples; the
    surrogate is the infimum over the tail window [(t_start+t_end)/2, t_end],
    and the trend diagnostic (least-squares slope of sliding-window infima,
    residual test for oscillation) warns when the tail has not settled.
    A non-finite sample (an overflowing or undefined bound) raises
    :class:`DomainError` rather than turning into a NaN or infinite w_hat.

    ``tau`` and ``b`` are array functions, called once per row block of
    sample times (see the module docstring); either may return a plain
    number.
    """
    if not t_start < t_end:
        raise InvalidParameterError(f"need t_start < t_end, got [{t_start}, {t_end}]")
    if not (math.isfinite(t_start) and math.isfinite(t_end)):
        raise InvalidParameterError(f"criterion window ends must be finite, got [{t_start}, {t_end}]")
    if not math.isfinite(float(t_end) - float(t_start)):
        raise InvalidParameterError(f"criterion window [{t_start}, {t_end}] is too wide: its length overflows")
    if grid_points < 10:
        raise InvalidParameterError(f"grid_points must be >= 10, got {grid_points}")

    ts = np.linspace(t_start, t_end, grid_points)
    vals = _integrals(b, tau, ts, panels)
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        k = int(bad[0])
        raise DomainError(
            f"criterion integral is not finite at t={float(ts[k])!r} (value {float(vals[k])!r}); "
            f"check the bound function"
        )

    mid = 0.5 * (t_start + t_end)
    tail = vals[ts >= mid - 1e-12]
    w_hat = float(np.min(tail))

    starts = np.linspace(t_start, mid, 33)
    window_infima = tuple(
        (float(ws), float(np.min(vals[ts >= ws - 1e-12]))) for ws in starts
    )

    span = t_end - t_start
    wlen = span / 8.0
    centers = []
    infima = []
    for k in range(_TREND_WINDOWS):
        ws = t_start + k * span / 16.0
        mask = (ts >= ws - 1e-12) & (ts <= ws + wlen + 1e-12)
        centers.append(ws + 0.5 * wlen)
        infima.append(float(np.min(vals[mask])))
    slope = float(np.polyfit(centers, infima, 1)[0])

    # A persistent ripple in the late samples (after removing any linear
    # drift) marks the tail as oscillating, unless the samples are monotone:
    # a smooth saturating curve leaves a residual without oscillating.
    # Otherwise the sliding-window slope decides between drift and a
    # settled tail.
    late_mask = ts >= t_end - 0.25 * span - 1e-12
    late_t = ts[late_mask]
    late_v = vals[late_mask]
    late_fit = np.polyval(np.polyfit(late_t, late_v, 1), late_t)
    # Both tests are relative to the samples' size, so large samples neither
    # overflow the squares nor read rounding noise as drift.
    scale = max(1.0, abs(w_hat))
    ripple_rms = float(np.sqrt(np.mean(((late_v - late_fit) / scale) ** 2)))

    steps = np.diff(late_v)
    if ripple_rms > 1e-6 and not (np.all(steps >= 0) or np.all(steps <= 0)):
        trend = Trend.OSCILLATING
    elif slope > _TREND_SLOPE_TOL * scale:
        trend = Trend.INCREASING
    elif slope < -_TREND_SLOPE_TOL * scale:
        trend = Trend.DECREASING
    else:
        trend = Trend.STABLE

    return LiminfEstimate(
        w_hat=w_hat,
        window_infima=window_infima,
        trend=trend,
        t_range=(float(t_start), float(t_end)),
        sample_times=ts,
        sample_values=vals,
    )


def theorem_verdict(estimate: Union[LiminfEstimate, float]) -> Verdict:
    """Decide the criterion from an estimate (or a bare w value).

    GUARANTEED requires w_hat > 1/e *strictly*; exact equality stays
    inconclusive.
    """
    w_hat = estimate.w_hat if isinstance(estimate, LiminfEstimate) else float(estimate)
    outcome = VerdictOutcome.GUARANTEED if w_hat > THRESHOLD else VerdictOutcome.INCONCLUSIVE
    return Verdict(outcome=outcome, w_hat=w_hat, threshold=THRESHOLD, margin=w_hat - THRESHOLD)


def tetration_proof_trace(w: float) -> TetrationTrace:
    """Replay the tower mechanism for rate w and cross-validate three ways.

    The three equivalent tests -- the tower of a = e^w diverges, a > e^(1/e),
    w > 1/e -- are computed independently.  A definite contradiction raises
    :class:`CrossValidationError`.  The tower runs for at most
    :func:`tower_limit`'s default 10,000 iterations; a MAX_ITER_REACHED tower
    (possible only in a narrow band around the threshold, where convergence
    is slow) is not a contradiction and the closed-form comparison decides.
    """
    if w <= 0.0:
        raise InvalidParameterError(f"w must be positive, got {w}")

    a = math.exp(w)
    above_by_w = w > INV_E
    above_by_a = a > EULER_UPPER
    if above_by_w != above_by_a:
        raise CrossValidationError(
            f"threshold tests disagree at w={w!r}: w>1/e is {above_by_w} but e^w>e^(1/e) is {above_by_a}"
        )

    result = tower_limit(a, tol=1e-9)
    if result.outcome is TowerOutcome.DIVERGED and not above_by_a:
        raise CrossValidationError(f"tower of {a!r} diverged although a <= e^(1/e)")
    if result.outcome is TowerOutcome.CONVERGED and above_by_a:
        raise CrossValidationError(f"tower of {a!r} converged although a > e^(1/e)")

    iterates = tuple(islice(tower_iterates(a), 100))
    if len(iterates) > 1 and iterates[-1] == math.inf:
        iterates = iterates[:-1]  # the overflow marker, not an iterate

    if above_by_a:
        decision = TowerDecision.DIVERGES_HENCE_GUARANTEED
        limit = None
    else:
        decision = TowerDecision.CONVERGES_HENCE_INCONCLUSIVE
        # The tower limit of e^w in direct form, -W(-w)/w: no exp/log round
        # trip for the branch-point singularity to amplify at w = 1/e.
        limit = zeta_fixed_point(w)

    return TetrationTrace(
        w=w,
        a=a,
        iterates=iterates,
        decision=decision,
        limit_if_convergent=limit,
        tower_result=result,
    )


def zeta_fixed_point(w: float) -> float:
    """Smallest solution of zeta = e^(zeta * w) for 0 < w <= 1/e.

    Equals -W(-w)/w.  This is the minimal ratio compatible with the
    nonoscillation inequality; for w > 1/e no real solution exists (the
    contradiction that powers the criterion) and a DomainError is raised.
    """
    if not w > 0.0:
        raise DomainError(f"w must be positive, got {w}")
    if w > INV_E:
        raise DomainError(
            f"no real fixed point for w={w}: rates above 1/e admit none"
        )
    return -lambert_w0(-w) / w
