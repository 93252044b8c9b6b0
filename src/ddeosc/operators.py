"""Response operators with limited memory for delay equations x'(t) + (Tx)(t) = 0.

An operator here is causal with *amnesia*: its value at time t depends on
the solution only through a window [sigma(t), tau(t)] strictly in the past
of t.  Two histories that agree on that window produce the same value.
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
from .quadrature import simpson_nodes_weights

TimeFunction = Callable[[float], float]
DelayMap = Callable[[float, float], float]


class HistoryFunction:
    """An evaluable trajectory segment on [domain_start, domain_end].

    Evaluation outside the domain raises :class:`HistoryDomainError`; there
    is no extrapolation.  A small relative slack absorbs floating-point
    noise in delayed-time arithmetic, and in-slack arguments are clamped to
    the domain before the underlying function sees them.  ``many(ts)``
    evaluates a whole array of times; operators and the integrator read
    through it.

    ``HistoryFunction(fn, ...)`` wraps a scalar function of t, and its
    ``many`` calls it once per element.  The histories this module builds
    (``constant``, ``exponential``, :func:`random_history`) are array
    functions instead: ``many`` checks the domain in one pass, clamps and
    evaluates the whole array, and a call ``h(t)`` is its one-element case.
    """

    __slots__ = ("domain_start", "domain_end", "_fn")

    def __init__(self, fn: TimeFunction, domain_start: float, domain_end: float = 0.0):
        if not domain_start <= domain_end:
            raise InvalidParameterError(
                f"empty history domain [{domain_start}, {domain_end}]"
            )
        self.domain_start = float(domain_start)
        self.domain_end = float(domain_end)
        self._fn = fn

    def _outside(self, t: float) -> HistoryDomainError:
        return HistoryDomainError(
            f"history evaluated at t={t}, outside [{self.domain_start}, {self.domain_end}]"
        )

    def __call__(self, t: float) -> float:
        slack = 1e-9 * max(1.0, abs(t))
        if t < self.domain_start - slack or t > self.domain_end + slack:
            raise self._outside(t)
        return float(self._fn(min(max(t, self.domain_start), self.domain_end)))

    def many(self, ts) -> np.ndarray:
        """Evaluate at every time in ``ts``, in order, as one float array."""
        return np.array([self(t) for t in np.asarray(ts, dtype=float).tolist()])

    @classmethod
    def constant(cls, value: float, domain_start: float, domain_end: float = 0.0) -> "HistoryFunction":
        v = _finite("constant history value", value)
        return _ArrayHistory(lambda ts: np.full(ts.shape, v), domain_start, domain_end)

    @classmethod
    def exponential(cls, rate: float, domain_start: float, domain_end: float = 0.0) -> "HistoryFunction":
        """h(t) = exp(rate * t), through ``math.exp`` (numpy's exp differs in the last bit)."""
        r = _finite("exponential history rate", rate)
        return _ArrayHistory(
            lambda ts: np.fromiter(map(math.exp, (r * ts).tolist()), float, ts.size), domain_start, domain_end
        )


def _finite(name: str, value: float) -> float:
    v = float(value)
    if not math.isfinite(v):
        raise InvalidParameterError(f"{name} must be finite, got {v}")
    return v


class _ArrayHistory(HistoryFunction):
    """A history whose function maps an array of in-domain times to values."""

    __slots__ = ()

    def __call__(self, t: float) -> float:
        return float(self.many(np.array([t], dtype=float))[0])

    def many(self, ts) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        slack = 1e-9 * np.maximum(1.0, np.abs(ts))
        outside = (ts < self.domain_start - slack) | (ts > self.domain_end + slack)
        if outside.any():
            raise self._outside(float(ts[outside][0]))
        return self._fn(np.minimum(np.maximum(ts, self.domain_start), self.domain_end))


#: Veltkamp's splitter for doubles, 2**27 + 1.
_SPLIT = 134217729.0


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low halves of each element, of 26 bits or fewer each (Veltkamp)."""
    c = _SPLIT * a
    high = c - (c - a)
    return high, a - high


def _two_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rounded sum s and its error e, with s + e = a + b exactly (Knuth)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _fma_dots(coefs: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``np.dot(coefs[c], values[i, c])`` for every row i and chain c, as a (rows, chains) array.

    ``coefs`` is (chains, terms) and ``values`` (rows, chains, terms).  Each
    dot is a left-to-right chain of fused multiply-adds from +0.0, the form
    OpenBLAS's ``ddot`` takes for short vectors on x86-64 with FMA.  numpy
    has no fma, so each one is emulated exactly (Boldo and Melquiond, IEEE
    Trans. Computers 57(4), 2008): TwoProduct (a Veltkamp split and Dekker's
    product) gives the product as p + pl, TwoSum gives acc + p as th + tl,
    tl + pl is added with rounding to odd, and th plus that sum is rounded
    to nearest once.  TwoProduct is exact only for products far from
    underflow, so a row with a term whose factors are nonzero and whose
    product is below 1e-290 goes to ``np.dot``.
    """
    p = coefs * values
    ah, al = _split(coefs)
    bh, bl = _split(values)
    pl = al * bl - (((p - ah * bh) - al * bh) - ah * bl)
    acc = p[..., 0]  # fma(a, b, +0.0) but for a zero's sign, which the next step's sum washes out
    for m in range(1, p.shape[-1]):
        th, tl = _two_sum(acc, p[..., m])
        v, e = _two_sum(tl, pl[..., m])
        # Round to odd: an inexact sum with an even last bit steps toward the exact one.
        np.nextafter(v, np.copysign(np.inf, e), out=v, where=(v.view(np.int64) & 1) < (e != 0.0))
        acc = th + v
    tiny = ((np.abs(p) < 1e-290) & (coefs != 0.0) & (values != 0.0)).any(axis=(1, 2))
    for i in np.flatnonzero(tiny).tolist():
        acc[i] = [np.dot(c, row) for c, row in zip(coefs, values[i])]
    return acc


def random_history(
    seed: int,
    domain_start: float,
    domain_end: float = 0.0,
    modes: int = 5,
    amplitude: float = 1.0,
    positive: bool = False,
) -> HistoryFunction:
    """Seeded truncated Fourier sum, peak-normalized to ``amplitude``.

    The raw sum at t is ``np.dot(cos_coef, np.cos(phases)) +
    np.dot(sin_coef, np.sin(phases))`` with ``phases = omegas * (t -
    domain_start)``, each dot an emulated fused multiply-add chain (see
    ``_fma_dots``); ``many`` reads a whole array of times at once.  The
    peak is the largest |raw| over 512 grid points.  With ``positive=True``
    the normalized sum is shifted up by 1.1x the amplitude, so the result is
    strictly positive with minimum 0.1x.  Identical seeds produce identical
    histories.
    """
    if not domain_start < domain_end:
        raise InvalidParameterError(f"empty history domain [{domain_start}, {domain_end}]")
    if modes < 1:
        raise InvalidParameterError(f"modes must be >= 1, got {modes}")
    rng = np.random.default_rng(seed)
    cos_coef = rng.uniform(-1.0, 1.0, modes)
    sin_coef = rng.uniform(-1.0, 1.0, modes)
    coefs = np.stack([cos_coef, sin_coef])
    length = domain_end - domain_start
    omegas = np.array([math.pi * (m + 1) / length for m in range(modes)])

    def raw_many(ts: np.ndarray) -> np.ndarray:
        phases = (ts[:, None] - domain_start) * omegas
        dots = _fma_dots(coefs, np.stack([np.cos(phases), np.sin(phases)], axis=1))
        return dots[:, 0] + dots[:, 1]

    peak = float(np.abs(raw_many(np.linspace(domain_start, domain_end, 512))).max())
    scale = amplitude / peak if peak > 1e-12 else 0.0
    shift = 1.1 * amplitude if positive else 0.0

    return _ArrayHistory(lambda ts: scale * raw_many(ts) + shift, domain_start, domain_end)


@dataclass(frozen=True)
class AmnesiaOperator:
    """A causal response (Tx)(t) reading x only on [sigma(t), tau(t)].

    The operator is its array evaluation: ``evaluate_many(ts, history)``
    returns the values at an array of times in one pass, each with the bits
    it has when evaluated alone, and ``evaluate(t, history)`` is its
    one-time case.  ``tau``/``sigma`` are the newest/oldest times it may
    read for a given t (tau(t) <= t).  ``bound_b`` is the rate function of
    the sign-respecting bound described in the module docstring, or None
    when no bound is known.  ``read_points`` optionally lists the exact
    times the operator samples at a given t; the audit folds them into its
    window grid so that bound checks never flag spurious violations from
    grid placement.  ``min_lag`` is the smallest value of t - tau(t) over
    the operating range, used by the integrator's step-size rule when known.
    """

    label: str
    evaluate_many: Callable[[np.ndarray, HistoryFunction], np.ndarray]
    tau: TimeFunction
    sigma: TimeFunction
    bound_b: Optional[TimeFunction] = None
    read_points: Optional[Callable[[float], list[float]]] = None
    min_lag: Optional[float] = None

    def evaluate(self, t: float, history: HistoryFunction) -> float:
        """(Tx)(t); requires [sigma(t), t] inside the history domain."""
        return float(self.evaluate_many(np.array([t], dtype=float), history)[0])


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

    Coefficients may be numbers or callables of t; every delay must be
    positive.  When all coefficients are nonnegative the rate bound
    b(t) = sum_i p_i(t) is derived automatically (negative parts are clipped
    pointwise); pass ``bound_b`` to override, which is necessary for
    sign-changing coefficients if the criterion machinery will be used.

    ``evaluate_many(ts, history)`` makes one ``history.many`` call for all
    reads, time by time and term by term, calls the scalar coefficients once
    per time (numpy's exp and sin differ from ``math`` in the last bit), and
    sums each time's products left to right from +0.0, giving the bits of
    the scalar sum.  ``evaluate(t, history)`` is its one-time case.
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
    d_min, d_max = min(delays), max(delays)
    lags = np.array(delays)

    def evaluate_many(ts, history: HistoryFunction) -> np.ndarray:
        t = np.asarray(ts, dtype=float).ravel()
        with np.errstate(all="ignore"):
            reads = t[:, None] - lags
            values = history.many(reads.ravel()).reshape(reads.shape)
            coef_values = np.array([[c(time) for c in coefs] for time in t.tolist()], dtype=float)
            return _row_sums(coef_values * values)

    def default_bound(t: float) -> float:
        return sum(max(c(t), 0.0) for c in coefs)

    return AmnesiaOperator(
        label=label,
        evaluate_many=evaluate_many,
        tau=lambda t: t - d_min,
        sigma=lambda t: t - d_max,
        bound_b=bound_b if bound_b is not None else default_bound,
        read_points=lambda t: [t - d for d in delays],
        min_lag=d_min,
    )


def make_distributed_delay(
    kernel: Callable[[np.ndarray, np.ndarray, list[np.ndarray]], np.ndarray],
    s_range: tuple[float, float],
    delay_maps: Sequence[DelayMap],
    *,
    bound_b: TimeFunction,
    quadrature_panels: int = 64,
    label: str = "distributed-delay operator",
) -> AmnesiaOperator:
    """Build (Tx)(t) as the integral over s in [s_lo, s_hi] of a delayed kernel.

    The integral is composite Simpson with ``quadrature_panels`` panels
    (even, >= 2).  tau/sigma are the extremes of the delay maps over the
    quadrature grid.  A rate bound cannot be inferred from an arbitrary
    kernel, so ``bound_b`` is required; use :func:`audit_sign_bound` to
    sanity-check it.

    Everything works on arrays.  For a set of times, ``t`` is a column of
    those times (shape (times, 1)) and ``s`` the array of quadrature nodes.
    Each delay map is called once, as ``d(t, s)``, and gives a
    (times, nodes) array of read times (a map that ignores ``s`` may return
    the column).  ``kernel(t, s, xs)`` receives ``xs``, one (times, nodes)
    array of history values per delay map, and returns the (times, nodes)
    integrand.  A kernel must give each element the bits of the scalar
    formula: exactly rounded numpy operations are fine, but library calls
    such as exp, sin and ``**`` go element by element through Python's
    ``math`` module and float power, because numpy's differ in the last bit.

    ``evaluate_many(ts, history)`` makes one ``history.many`` call for all
    reads, ordered time by time, node by node and, within a node, in
    delay-map order, then one kernel call; each time's weighted terms are
    summed left to right from +0.0.  ``evaluate(t, history)`` is its
    one-time case.  Numpy's floating-point warnings are off inside, as
    Python float arithmetic has none.
    """
    s_lo, s_hi = float(s_range[0]), float(s_range[1])
    if not s_lo < s_hi:
        raise InvalidParameterError(f"s_range must be increasing, got [{s_lo}, {s_hi}]")
    if not delay_maps:
        raise InvalidParameterError("at least one delay map is required")
    if bound_b is None:
        raise InvalidParameterError("bound_b must be supplied for distributed-delay operators")
    nodes, weights = simpson_nodes_weights(s_lo, s_hi, quadrature_panels)
    nodes, weights = np.array(nodes), np.array(weights)
    maps = list(delay_maps)

    def read_times(t, rows: int = 1) -> np.ndarray:
        # Entry [i, j, m] is d_m(t_i, s_j), for a column t of ``rows`` times
        # or one float t.
        times = np.empty((rows, nodes.size, len(maps)))
        for m, d in enumerate(maps):
            times[:, :, m] = d(t, nodes)
        return times

    def evaluate_many(ts, history: HistoryFunction) -> np.ndarray:
        t = np.reshape(np.asarray(ts, dtype=float), (-1, 1))
        with np.errstate(all="ignore"):
            times = read_times(t, t.shape[0])
            values = history.many(times.ravel()).reshape(times.shape)
            integrand = kernel(t, nodes, [values[:, :, m] for m in range(len(maps))])
            return _row_sums(weights * integrand)

    def reads(t: float) -> list[float]:
        return read_times(t).ravel().tolist()

    def tau(t: float) -> float:
        return float(read_times(t).max())

    def sigma(t: float) -> float:
        return float(read_times(t).min())

    # Lags are assumed time-invariant for the step-size rule, which holds
    # for delay maps of the form t - g(s).
    min_lag = -tau(0.0) if tau(0.0) < 0.0 else None

    return AmnesiaOperator(
        label=label,
        evaluate_many=evaluate_many,
        tau=tau,
        sigma=sigma,
        bound_b=bound_b,
        read_points=reads,
        min_lag=min_lag,
    )


def sigma_growth_check(op: AmnesiaOperator, t_start: float, t_end: float, samples: int = 64) -> bool:
    """Spot-check that the oldest-read map sigma(t) grows without bound.

    The criterion additionally assumes liminf sigma(t) = +infinity, which no
    finite sample can prove; this refutes obvious violations only.  Returns
    False when sigma fails to gain ground over the horizon or trends
    non-positively on its tail.
    """
    if not t_start < t_end:
        raise InvalidParameterError(f"need t_start < t_end, got [{t_start}, {t_end}]")
    ts = np.linspace(t_start, t_end, samples)
    ss = np.array([op.sigma(float(t)) for t in ts])
    if ss[-1] <= ss[0]:
        return False
    tail = ss[samples // 2 :]
    slope = float(np.polyfit(ts[samples // 2 :], tail, 1)[0])
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
    tol: float = 1e-6,
    history_factory: Optional[Callable[[float, int, int], HistoryFunction]] = None,
) -> AuditReport:
    """Check the sign-respecting bound of ``op`` on sampled (t, history) pairs.

    For each t in ``t_samples`` and each trial, one strictly positive and one
    strictly negative history are generated on [sigma(t), t] (seeded Fourier
    sums by default; pass ``history_factory(t, trial, sign)`` to override) and
    the bound inequality is evaluated with inf/sup taken over a dense window
    grid that includes the operator's own read points.  A check fails when its
    slack drops below ``-tol * max(1, |b(t) * inf/sup|)``; the tolerance
    absorbs the quadrature error of integral-backed operators.  Each history
    is sampled over the window with one ``many`` call; the default negative
    history is the positive one negated, and so are its window samples.
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
        lo = op.sigma(t)
        if not lo < t:
            raise InvalidParameterError(f"sigma(t) must be below t; sigma({t}) = {lo}")
        window = np.linspace(lo, t, 257)
        if op.read_points is not None:
            extra = [p for p in op.read_points(t) if lo <= p <= t]
            window = np.unique(np.concatenate([window, np.array(extra)]))
        b_t = op.bound_b(t)
        for trial in range(trials):
            for sign in (+1, -1):
                if history_factory is not None:
                    hist = history_factory(t, trial, sign)
                elif sign > 0:
                    hist = base = random_history(
                        seed * 1_000_003 + trial, lo - 1e-6, t, amplitude=amplitude, positive=True
                    )
                else:
                    hist = _ArrayHistory(lambda s, f=base._fn: -f(s), lo - 1e-6, t)
                value = op.evaluate(t, hist)
                if history_factory is None and sign < 0:
                    samples = [-v for v in samples]  # the positive trial's, negated exactly
                else:
                    samples = hist.many(window).tolist()
                if sign > 0:
                    bound_term = b_t * min(samples)
                    slack = value - bound_term
                else:
                    bound_term = b_t * max(samples)
                    slack = bound_term - value
                checked += 1
                worst = min(worst, slack)
                if slack < -tol * max(1.0, abs(bound_term)):
                    violations.append(
                        AuditViolation(
                            t=t,
                            trial=trial,
                            sign=sign,
                            operator_value=value,
                            bound_term=bound_term,
                            margin=slack,
                        )
                    )

    return AuditReport(
        checked=checked,
        satisfied=checked - len(violations),
        violations=tuple(violations),
        worst_margin=worst,
    )
