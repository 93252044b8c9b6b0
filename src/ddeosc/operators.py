"""Response operators with limited memory for delay equations x'(t) + (Tx)(t) = 0.

An operator here is causal with *amnesia*: its value at time t depends on
the solution only through a window [sigma(t), tau(t)] strictly in the past
of t.  Two histories that agree on that window produce the same value.
An operator is its read points and its combine: ``read_points(t)`` gives,
for a column of times, the exact times it reads at each, and is the one
description of that window (tau(t) is the newest read, sigma(t) the
oldest, and the lag the integrator relies on is -tau(0)); ``combine``
turns the history values at those reads into the terms of each time's
sum.
Each operator carries a nonnegative rate function ``bound_b`` that is
supposed to satisfy, for histories of a single strict sign on [sigma(t), t],

    (Tx)(t) >= bound_b(t) * inf x    when x > 0,
    (Tx)(t) <= bound_b(t) * sup x    when x < 0,

with inf/sup taken over [sigma(t), t].  Linear operators with nonnegative
coefficients satisfy this automatically with bound_b equal to the
coefficient sum; for nonlinear kernels the bound is derived by hand and
supplied by the caller, and :func:`audit_sign_bound` spot-checks the claim
numerically.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import HistoryDomainError, InvalidParameterError
from .quadrature import simpson_rule

TimeFunction = Callable[[float], float]
DelayMap = Callable[[np.ndarray, np.ndarray], np.ndarray]


class HistoryFunction:
    """An evaluable trajectory segment on [domain_start, domain_end].

    Evaluation outside the domain raises :class:`HistoryDomainError`; there
    is no extrapolation.  A small relative slack absorbs floating-point
    noise in delayed-time arithmetic, and in-slack arguments are clamped to
    the domain before the underlying function sees them.  ``many(ts)``
    evaluates an array of times of any shape: it checks the domain and
    clamps once for all of them, calls the function once on the flat array
    of in-domain times, and returns a float array of the shape of ``ts``.
    A call ``h(t)`` is its one-time case.  Operators and the integrator
    read through ``many``.

    ``HistoryFunction(fn, ...)`` wraps a scalar function of t, called once
    per read, in order.  The histories this module builds (``constant``,
    ``exponential``, :func:`random_history`) hold array functions instead.
    """

    __slots__ = ("domain_start", "domain_end", "_fn")

    def __init__(self, fn: TimeFunction, domain_start: float, domain_end: float = 0.0):
        if not domain_start <= domain_end:
            raise InvalidParameterError(
                f"empty history domain [{domain_start}, {domain_end}]"
            )
        self.domain_start = float(domain_start)
        self.domain_end = float(domain_end)
        self._fn = lambda ts: np.fromiter(map(fn, ts.tolist()), float, ts.size)

    @classmethod
    def _of_array_function(cls, fn: Callable[[np.ndarray], np.ndarray], domain_start: float, domain_end: float):
        """A history whose ``fn`` maps a 1-D array of in-domain times to their values."""
        history = cls(None, domain_start, domain_end)
        history._fn = fn
        return history

    def __call__(self, t: float) -> float:
        return float(self.many(t))

    def many(self, ts) -> np.ndarray:
        """Evaluate at every time in ``ts``, as one float array of its shape; the first bad time in C order raises."""
        ts = np.asarray(ts, dtype=float)
        flat = ts.ravel()
        slack = 1e-9 * np.maximum(1.0, np.abs(flat))
        outside = (flat < self.domain_start - slack) | (flat > self.domain_end + slack)
        if outside.any():
            raise HistoryDomainError(
                f"history evaluated at t={float(flat[outside][0])}, outside [{self.domain_start}, {self.domain_end}]"
            )
        return self._fn(np.minimum(np.maximum(flat, self.domain_start), self.domain_end)).reshape(ts.shape)

    @classmethod
    def constant(cls, value: float, domain_start: float, domain_end: float = 0.0) -> "HistoryFunction":
        v = _finite("constant history value", value)
        return cls._of_array_function(lambda ts: np.full(ts.shape, v), domain_start, domain_end)

    @classmethod
    def exponential(cls, rate: float, domain_start: float, domain_end: float = 0.0) -> "HistoryFunction":
        """h(t) = exp(rate * t), through ``math.exp`` (numpy's exp differs in the last bit)."""
        r = _finite("exponential history rate", rate)
        return cls._of_array_function(
            lambda ts: np.fromiter(map(math.exp, (r * ts).tolist()), float, ts.size), domain_start, domain_end
        )


def _finite(name: str, value: float) -> float:
    v = float(value)
    if not math.isfinite(v):
        raise InvalidParameterError(f"{name} must be finite, got {v}")
    return v


def _row_dots(values: np.ndarray, coefs: np.ndarray) -> np.ndarray:
    """``np.dot(values[i], coefs[i])`` for every row i, broadcast over the leading axes.

    A stacked matmul of (1, n) rows by (n, 1) columns calls, for n > 1, the
    ``dot`` routine that ``np.dot`` calls on two 1-D arrays, so each element
    has the bits of the per-row ``np.dot``.  The gemv form ``values @ coefs``
    rounds differently and is not used.
    """
    return np.matmul(values[..., None, :], coefs[..., None])[..., 0, 0]


_MODES = 5


def random_history(
    seed: int,
    domain_start: float,
    domain_end: float = 0.0,
    amplitude: float = 1.0,
    positive: bool = False,
) -> HistoryFunction:
    """Seeded five-mode truncated Fourier sum, peak-normalized to ``amplitude``.

    The raw sum at t is ``np.dot(cos_coef, np.cos(phases)) +
    np.dot(sin_coef, np.sin(phases))`` with ``phases = omegas * (t -
    domain_start)``.  ``many`` reads a whole array of times at once, and
    each row goes through the ``dot`` routine that ``np.dot`` calls (see
    ``_row_dots``), so every read has the bits of that formula on the host's
    BLAS.  The peak is the largest |raw| over 512 grid points.  With
    ``positive=True`` the normalized sum is shifted up by 1.1x the
    amplitude, so the result is strictly positive with minimum 0.1x.
    Identical seeds produce identical histories.
    """
    if not domain_start < domain_end:
        raise InvalidParameterError(f"empty history domain [{domain_start}, {domain_end}]")
    rng = np.random.default_rng(seed)
    cos_coef = rng.uniform(-1.0, 1.0, _MODES)
    sin_coef = rng.uniform(-1.0, 1.0, _MODES)
    length = domain_end - domain_start
    omegas = np.array([math.pi * (m + 1) / length for m in range(_MODES)])

    def raw_many(ts: np.ndarray) -> np.ndarray:
        phases = (ts[:, None] - domain_start) * omegas
        return _row_dots(np.cos(phases), cos_coef) + _row_dots(np.sin(phases), sin_coef)

    peak = float(np.abs(raw_many(np.linspace(domain_start, domain_end, 512))).max())
    scale = amplitude / peak if peak > 1e-12 else 0.0
    shift = 1.1 * amplitude if positive else 0.0

    return HistoryFunction._of_array_function(lambda ts: scale * raw_many(ts) + shift, domain_start, domain_end)


@dataclass(frozen=True)
class AmnesiaOperator:
    """A causal response (Tx)(t) reading x only on [sigma(t), tau(t)].

    The operator is its read points and its combine.  ``read_points(t)``
    takes a column of times (shape (times, 1)) and returns a (times, reads)
    array, row i holding the exact times the operator reads at t_i; it is
    the one description of where it reads.  ``combine(t, values)`` takes
    that column and the history values at those reads, in the same shape,
    and returns a (times, terms) array.  A time's value is its row of terms
    summed left to right from +0.0, and depends on that row alone, so that
    stacked rows, such as one time under several histories, give each row
    the bits it has alone.

    ``evaluate_many(ts, history)`` evaluates an array of times in one pass,
    and ``evaluate(t, history)`` is its one-time case.  ``tau(t)`` (<= t)
    is the newest read at t, ``sigma(t)`` the oldest, and ``min_lag`` is
    -tau(0) when that is positive, else None.  The integrator takes
    ``min_lag`` as the smallest lag of the run, which holds when the lags
    do not shrink.  ``bound_b`` is the rate function of the sign-respecting
    bound described in the module docstring, or None when no bound is known.
    """

    label: str
    read_points: Callable[[np.ndarray], np.ndarray]
    combine: Callable[[np.ndarray, np.ndarray], np.ndarray]
    bound_b: Optional[TimeFunction] = None

    def _reads(self, t: np.ndarray) -> np.ndarray:
        """``read_points`` of the column ``t``, checked to have one row per time."""
        reads = self.read_points(t)
        if reads.ndim != 2 or len(reads) != len(t):
            raise InvalidParameterError(
                f"read_points of a column of {len(t)} times must have shape ({len(t)}, reads), got {reads.shape}"
            )
        return reads

    def evaluate_many(self, ts, history: HistoryFunction) -> np.ndarray:
        """(Tx)(t) at every time of ``ts``, with one ``history.many`` call for all reads in row order.

        Numpy's floating-point warnings are off inside, as Python float
        arithmetic prints none.
        """
        t = np.reshape(np.asarray(ts, dtype=float), (-1, 1))
        with np.errstate(all="ignore"):
            times = self._reads(t)
            values = history.many(times)
            return _row_sums(self.combine(t, values))

    def evaluate(self, t: float, history: HistoryFunction) -> float:
        """(Tx)(t); requires [sigma(t), t] inside the history domain."""
        return float(self.evaluate_many(np.array([t], dtype=float), history)[0])

    def tau(self, t):
        """The newest time read at t, or at each time of an array of times."""
        return self._reduce_reads(t, np.max)

    def sigma(self, t):
        """The oldest time read at t, or at each time of an array of times."""
        return self._reduce_reads(t, np.min)

    def _reduce_reads(self, t, reduce: Callable):
        """``reduce`` over each time's reads, from one ``read_points`` call on the column of times."""
        ts = np.asarray(t, dtype=float)
        with np.errstate(all="ignore"):
            reads = self._reads(ts.reshape(-1, 1))
        out = reduce(reads, axis=1).reshape(ts.shape)
        return out if isinstance(t, np.ndarray) else float(out)

    @property
    def min_lag(self) -> Optional[float]:
        lag = -self.tau(0.0)
        return lag if lag > 0.0 else None


def _row_sums(terms: np.ndarray) -> np.ndarray:
    """Each row of a (times, terms) array summed left to right from +0.0, as ``sum`` does."""
    return np.add.accumulate(np.hstack([np.zeros((len(terms), 1)), terms]), axis=1)[:, -1]


def _as_time_function(value) -> TimeFunction:
    if callable(value):
        return value
    v = float(value)
    return lambda t: v


def make_discrete_delay(
    terms: Sequence[tuple],
    bound_b: Optional[TimeFunction] = None,
    label: str = "discrete-delay operator",
) -> AmnesiaOperator:
    """Build (Tx)(t) = sum_i p_i(t) * x(t - d_i) from (coefficient, delay) pairs.

    Coefficients may be numbers or array functions of t (such as parsed
    expressions) that map an array of times to an array of values, or to a
    plain number; every delay must be positive.  The rate bound b(t) =
    sum_i max(p_i(t), 0.0) is derived automatically, or ``bound_b``
    overrides it.  The criterion covers the operator only where every
    p_i(t) >= 0 and b(t) <= sum_i p_i(t): with a negative coefficient a
    large read drives Tx below zero, so no bound makes a sign-changing
    coefficient admissible.

    The reads at t are t - d_i, term by term.  An evaluation calls each
    coefficient once, on the array of its times, and multiplies the values
    with the history values; the derived bound likewise takes a float or an
    array of times in one call.
    """
    if not terms:
        raise InvalidParameterError("at least one (coefficient, delay) term is required")
    coefs: list[TimeFunction] = []
    delays: list[float] = []
    for coef, delay in terms:
        d = float(delay)
        if d <= 0.0:
            raise InvalidParameterError(f"delays must be positive, got {delay}")
        coefs.append(_as_time_function(coef))
        delays.append(d)
    lags = np.array(delays)

    def coefficients(t: np.ndarray) -> np.ndarray:
        # Entry [..., i] is p_i at each time of t, one call per term; if a
        # call raises, the float loop over the times, then the terms, replays.
        out = np.empty(t.shape + (len(coefs),))
        try:
            for i, c in enumerate(coefs):
                out[..., i] = c(t)
        except Exception:
            out[...] = np.reshape([[c(x) for c in coefs] for x in t.ravel().tolist()], out.shape)
        return out

    def combine(t: np.ndarray, values: np.ndarray) -> np.ndarray:
        return coefficients(t[:, 0]) * values

    def default_bound(t):
        # sum(max(p_i, 0.0) for each term), summed as ``sum`` does
        p = coefficients(np.asarray(t, dtype=float))
        total = _row_sums(np.where(p < 0.0, 0.0, p).reshape(-1, len(coefs))).reshape(np.shape(t))
        return total if isinstance(t, np.ndarray) else float(total)

    return AmnesiaOperator(label, lambda t: t - lags, combine, bound_b if bound_b is not None else default_bound)


def make_distributed_delay(
    kernel: Callable[[np.ndarray, np.ndarray, list[np.ndarray]], np.ndarray],
    s_range: tuple[float, float],
    delay_maps: Sequence[DelayMap],
    *,
    bound_b: TimeFunction,
    label: str = "distributed-delay operator",
) -> AmnesiaOperator:
    """Build (Tx)(t) as the integral over s in [s_lo, s_hi] of a delayed kernel.

    The integral is the composite Simpson rule of :mod:`ddeosc.quadrature`
    with its ``PANELS`` panels.  A rate bound cannot be inferred from an
    arbitrary kernel, so ``bound_b`` is required; use
    :func:`audit_sign_bound` to sanity-check it.

    Everything works on arrays; no delay map or kernel sees a float.  For a
    set of times, ``t`` is a column of those times (shape (times, 1)) and
    ``s`` the array of quadrature nodes.  Each delay map is called once, as
    ``d(t, s)``, and gives a (times, nodes) array of read times (a map that
    ignores ``s`` may return the column).  The read points are the
    (times, nodes * maps) array of d(t, s) for every node s and delay map
    d, node by node and, within a node, in delay-map order.  The combine
    reshapes the history values back to (times, nodes, maps), and
    ``kernel(t, s, xs)`` receives ``xs``, one (times, nodes) array of
    values per delay map, and returns the (times, nodes) integrand, whose
    Simpson-weighted values are the terms of each time's sum.  A kernel
    computes each element from its own time, node and values only, so that
    a time's value does not depend on the other times of the call.
    """
    s_lo, s_hi = float(s_range[0]), float(s_range[1])
    if not s_lo < s_hi:
        raise InvalidParameterError(f"s_range must be increasing, got [{s_lo}, {s_hi}]")
    if not delay_maps:
        raise InvalidParameterError("at least one delay map is required")
    if bound_b is None:
        raise InvalidParameterError("bound_b must be supplied for distributed-delay operators")
    h, nodes, factors = simpson_rule(s_lo, s_hi)
    nodes = np.array(nodes)
    weights = np.array([h / 3.0 * factor for factor in factors])
    maps = list(delay_maps)

    def reads(t: np.ndarray) -> np.ndarray:
        # Entry [i, j * len(maps) + m] is d_m(t_i, s_j).
        times = np.empty((len(t), nodes.size, len(maps)))
        for m, d in enumerate(maps):
            times[:, :, m] = d(t, nodes)
        return times.reshape(len(t), -1)

    def combine(t: np.ndarray, values: np.ndarray) -> np.ndarray:
        values = values.reshape(len(t), nodes.size, len(maps))
        return weights * kernel(t, nodes, [values[:, :, m] for m in range(len(maps))])

    return AmnesiaOperator(label, reads, combine, bound_b)


def sigma_growth_check(op: AmnesiaOperator, t_start: float, t_end: float) -> bool:
    """Spot-check, at 64 times, that the oldest-read map sigma(t) grows without bound.

    The criterion additionally assumes liminf sigma(t) = +infinity, which no
    finite sample can prove; this refutes obvious violations only.  Returns
    False when sigma fails to gain ground over the horizon or trends
    non-positively on its tail.
    """
    if not t_start < t_end:
        raise InvalidParameterError(f"need t_start < t_end, got [{t_start}, {t_end}]")
    ts = np.linspace(t_start, t_end, 64)
    ss = op.sigma(ts)
    if ss[-1] <= ss[0]:
        return False
    slope = float(np.polyfit(ts[32:], ss[32:], 1)[0])
    return slope > 0.0


@dataclass(frozen=True)
class AuditViolation:
    t: float
    trial: int
    sign: int
    operator_value: float
    bound_term: float
    margin: float


@dataclass(frozen=True)
class AuditReport:
    """Result of spot-checking an operator's sign-respecting bound.

    ``margin`` per check is the slack: (Tx)(t) - b(t)*inf x for positive
    histories, b(t)*sup x - (Tx)(t) for negative ones.  Nonnegative slack
    everywhere means the bound held on every sampled pair.
    """

    checked: int
    satisfied: int
    violations: tuple[AuditViolation, ...]
    worst_margin: float

    @property
    def passed(self) -> bool:
        return not self.violations


def audit_sign_bound(
    op: AmnesiaOperator,
    t_samples: Sequence[float],
    *,
    trials: int = 10,
    seed: int = 0,
    amplitude: float = 1.0,
    history_factory: Optional[Callable[[float, int], HistoryFunction]] = None,
) -> AuditReport:
    """Check the sign-respecting bound of ``op`` on sampled (t, history) pairs.

    For each t in ``t_samples`` and each trial, one strictly positive
    history is generated on [sigma(t), t] (a seeded Fourier sum by default;
    pass ``history_factory(t, trial)`` to override), and its negation is the
    strictly negative one.  The history is read twice with ``many``: at the
    operator's read points, and over a dense window grid that includes
    them, where inf x is taken (sup of the negation is -inf x).  One
    ``combine`` call on the rows [read, -read] evaluates both signs.  A
    check fails when its slack drops below ``-1e-6 * max(1, |b(t) *
    inf/sup|)``; the tolerance absorbs the quadrature error of
    integral-backed operators.
    """
    if trials < 1:
        raise InvalidParameterError(f"trials must be >= 1, got {trials}")
    if op.bound_b is None:
        raise InvalidParameterError("operator has no bound_b to audit")

    violations: list[AuditViolation] = []
    checked = 0
    worst = math.inf

    for t in t_samples:
        t = float(t)
        with np.errstate(all="ignore"):
            points = op._reads(np.array([[t]]))
        lo = float(np.min(points))
        if not lo < t:
            raise InvalidParameterError(f"sigma(t) must be below t; sigma({t}) = {lo}")
        if not math.isfinite(lo):
            raise InvalidParameterError(f"sigma(t) must be finite; sigma({t}) = {lo}")
        window = np.concatenate([np.linspace(lo, t, 257), points[(lo <= points) & (points <= t)]])
        b_t = op.bound_b(t)
        for trial in range(trials):
            if history_factory is not None:
                hist = history_factory(t, trial)
            else:
                hist = random_history(seed * 1_000_003 + trial, lo - 1e-6, t, amplitude=amplitude, positive=True)
            with np.errstate(all="ignore"):
                read = hist.many(points)
                values = _row_sums(op.combine(np.array([[t], [t]]), np.vstack([read, -read]))).tolist()
            bound = b_t * min(hist.many(window).tolist())
            for sign, value, bound_term, slack in ((+1, values[0], bound, values[0] - bound),
                                                   (-1, values[1], -bound, -bound - values[1])):
                checked += 1
                worst = min(worst, slack)
                if slack < -1e-6 * max(1.0, abs(bound_term)):
                    violations.append(AuditViolation(t, trial, sign, value, bound_term, slack))

    return AuditReport(
        checked=checked,
        satisfied=checked - len(violations),
        violations=tuple(violations),
        worst_margin=worst,
    )


def _sign_bound_gate(op: AmnesiaOperator, t_range: tuple[float, float], seed: int, subject: str) -> AuditReport:
    """Audit ``op`` at 8 times across ``t_range``, 5 trials from ``seed``; a violation raises, naming ``subject``."""
    audit = audit_sign_bound(op, np.linspace(*t_range, 8), trials=5, seed=seed)
    if not audit.passed:
        raise InvalidParameterError(
            f"{subject} violates the operator's sign bound on {len(audit.violations)} "
            f"of {audit.checked} sampled pairs (worst margin {audit.worst_margin:.3g}); criterion not applicable"
        )
    return audit
