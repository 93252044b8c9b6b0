"""Lambert W (principal branch), finite tetration, and infinite power towers.

The infinite tower x^(x^(x^...)) converges exactly for bases in Euler's
interval [e^-e, e^(1/e)].  Inside it the limit y is the smallest positive
solution of y = x^y and has the closed form W(-ln x) / (-ln x); above
e^(1/e) the iterates grow without bound, below e^-e they settle into a
two-cycle.  These three regimes are the engine behind the 1/e oscillation
threshold implemented in :mod:`ddeosc.criterion`.
"""

import math
from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum
from itertools import islice
from typing import Optional

from .errors import DomainError, InvalidParameterError

#: Left edge of the principal branch's real domain, -1/e.
BRANCH_POINT = -1.0 / math.e
#: Lower endpoint of Euler's tower-convergence interval, e^-e.
EULER_LOWER = math.exp(-math.e)
#: Upper endpoint of Euler's tower-convergence interval, e^(1/e).
EULER_UPPER = math.exp(1.0 / math.e)
#: The oscillation-criterion threshold, 1/e.
INV_E = 1.0 / math.e

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 10_000

# Inputs within this distance below -1/e are treated as the branch point.
_BRANCH_CLAMP = 1e-15
# An iterate past this value certifies divergence of the tower.
_DIVERGENCE_CAP = 1e8
# base**t overflows a double once t*log(base) passes ~709.
_EXP_ARG_LIMIT = 690.0


def lambert_w0(x: float) -> float:
    """Principal branch of the Lambert W function: the w >= -1 with w*e^w = x.

    Defined for x >= -1/e; inputs within 1e-15 below the branch point are
    clamped to it.  Below e, Halley iteration from a series seed around the
    branch point or a log1p seed near zero; from e up, Newton iteration on
    w + ln w = ln x from the log asymptotic seed.  Both converge to near
    machine precision in a handful of steps.  W(inf) = inf.
    """
    if math.isnan(x):
        raise DomainError("lambert_w0 is undefined for NaN")
    if x == math.inf:
        return x  # the log seed would be inf - inf
    if x < BRANCH_POINT - _BRANCH_CLAMP:
        raise DomainError(f"lambert_w0 requires x >= -1/e ~ {BRANCH_POINT:.17g}, got {x}")
    if x <= BRANCH_POINT:
        return -1.0

    if x < -0.25:
        # Series in p = sqrt(2(e*x + 1)) around the branch point.
        p = math.sqrt(2.0 * (math.e * x + 1.0))
        w = -1.0 + p * (1.0 + p * (-1.0 / 3.0 + p * (11.0 / 72.0)))
    elif x < math.e:
        w = math.log1p(x)
    else:
        # Newton on the log form w + ln w = ln x, as w e^w overflows near the float maximum.
        lx = math.log(x)
        w = lx - math.log(lx)
        for _ in range(50):
            dw = (w + math.log(w) - lx) / (1.0 + 1.0 / w)
            w -= dw
            if abs(dw) <= 1e-16 * w:
                break
        return w

    for _ in range(50):
        ew = math.exp(w)
        f = w * ew - x
        wp1 = w + 1.0
        if wp1 == 0.0:
            w += 1e-12
            continue
        # Halley step for f(w) = w e^w - x.
        dw = f / (ew * wp1 - (w + 2.0) * f / (2.0 * wp1))
        w -= dw
        if abs(dw) <= 1e-16 * (2.0 + abs(w)):
            break
    return w


def tower_iterates(base: float) -> Iterator[float]:
    """The hyper4 iterates t1 = base, t_{k+1} = base**t_k of a positive base.

    Endless unless the next power would overflow the float range
    (t_k * ln(base) > 690): then it yields ``math.inf`` once and stops.
    """
    log_b = math.log(base)
    t = base
    while True:
        yield t
        if t * log_b > _EXP_ARG_LIMIT:
            yield math.inf
            return
        t = base ** t


def _check_base(base: float) -> None:
    if not base > 0.0:  # also rejects NaN
        raise InvalidParameterError(f"base must be positive, got {base}")
    if base == math.inf:
        raise InvalidParameterError(f"base must be finite, got {base}")


def power_tower(base: float, n: int) -> float:
    """The n-fold right-associated exponential base^(base^(...^base)).

    The n-th of :func:`tower_iterates`; ``math.inf`` once an intermediate
    would overflow the float range.
    """
    _check_base(base)
    if n < 1:
        raise InvalidParameterError(f"n must be >= 1, got {n}")
    return next(islice(tower_iterates(base), n - 1, None), math.inf)


class TowerOutcome(Enum):
    CONVERGED = "converged"
    DIVERGED = "diverged"
    MAX_ITER_REACHED = "max_iter_reached"


@dataclass(frozen=True)
class ConvergenceResult:
    """Outcome of an infinite power-tower iteration.

    ``residual`` is |y - base**y| at the point of termination (NaN when the
    iteration diverged).  When a two-cycle is detected for base < 1, its two
    accumulation values are reported in ``cycle`` (ascending order).
    """

    outcome: TowerOutcome
    iterations_used: int
    residual: float
    limit: Optional[float] = None
    last_value: Optional[float] = None
    cycle: Optional[tuple[float, float]] = None


def tower_limit(base: float, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER) -> ConvergenceResult:
    """Iterate t -> base**t from t = base until successive iterates settle.

    At most ``max_iter`` iterates are taken, counting t1 = base; the
    result's ``iterations_used`` is the number taken.

    Converged: the step |t_{k+1} - t_k| (which equals the fixed-point
    residual at t_k) dropped to ``tol``.  For base < 1 the iterates
    alternate, so a step below ``tol`` certifies that the even and odd
    subsequences share a limit; a persistent gap is reported as
    MAX_ITER_REACHED with the two-cycle values in the diagnostics.

    Diverged: an iterate passed 1e8, or, for base > 1, passed e.  The
    second certificate is sound because an increasing tower that converges
    does so to a limit y = base**y <= e, so no iterate of a convergent
    tower can exceed e.
    """
    _check_base(base)
    if not tol > 0.0:
        raise InvalidParameterError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise InvalidParameterError(f"max_iter must be >= 1, got {max_iter}")

    iterates = tower_iterates(base)
    t = next(iterates)
    iterations = 1
    for nxt in islice(iterates, max_iter - 1):
        iterations += 1
        if nxt > _DIVERGENCE_CAP or (base > 1.0 and nxt > math.e + 1e-9):
            return ConvergenceResult(
                outcome=TowerOutcome.DIVERGED,
                iterations_used=iterations,
                residual=math.nan,
            )
        if abs(nxt - t) <= tol:
            return ConvergenceResult(
                outcome=TowerOutcome.CONVERGED,
                iterations_used=iterations,
                residual=abs(base ** nxt - nxt),
                limit=nxt,
            )
        t = nxt

    # Two-cycle diagnostics: compare the last value against its double image.
    cycle = None
    other = base ** t
    if base < 1.0 and abs(base ** other - t) <= max(tol, 1e-12):
        lo, hi = sorted((t, other))
        cycle = (lo, hi)
    return ConvergenceResult(
        outcome=TowerOutcome.MAX_ITER_REACHED,
        iterations_used=iterations,
        residual=abs(other - t),
        last_value=t,
        cycle=cycle,
    )


def tower_limit_via_lambert(base: float) -> float:
    """Closed-form infinite-tower limit W(-ln base) / (-ln base).

    Valid on (e^-e, e^(1/e)]; base = 1 is answered as 1, the limit of the
    formula.  The exact upper endpoint is answered as e directly: W has a
    square-root singularity at its branch point, so the one-ulp noise of
    log(exp(1/e)) would otherwise be amplified to ~1e-8 there.  Raises
    DomainError outside the convergence interval.
    """
    if not EULER_LOWER < base <= EULER_UPPER:
        raise DomainError(
            f"base {base} outside the tower-convergence interval ({EULER_LOWER:.12g}, {EULER_UPPER:.12g}]"
        )
    if base == 1.0:
        return 1.0
    if base == EULER_UPPER:
        return math.e
    neg_log = -math.log(base)
    return lambert_w0(neg_log) / neg_log


def euler_interval_contains(base: float) -> bool:
    """True iff e^-e <= base <= e^(1/e), both endpoints in working precision."""
    return EULER_LOWER <= base <= EULER_UPPER
