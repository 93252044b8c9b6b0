"""Independent oracles used to freeze expected values in the tests.

Everything here is deliberately primitive (bisection, plain fixed-point
iteration, dense-grid scans) and shares no code with the implementations
under test.
"""

import math

import numpy as np


def bisect_root(f, a, b, iters=200):
    """Bisection; the bracket [a, b] must have a sign change."""
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    assert fa * fb < 0.0, "root not bracketed"
    for _ in range(iters):
        c = 0.5 * (a + b)
        fc = f(c)
        if fc == 0.0:
            return c
        if fa * fc < 0.0:
            b = c
        else:
            a, fa = c, fc
    return 0.5 * (a + b)


def iterate_tower(base, n, start=None):
    """Plain fixed-point iteration t -> base**t, n applications."""
    t = base if start is None else start
    for _ in range(n):
        t = base ** t
    return t


def dense_infimum(f, a, b, points=200_001):
    """Brute-force infimum of f on [a, b] over a dense uniform grid."""
    step = (b - a) / (points - 1)
    return min(f(a + k * step) for k in range(points))


def characteristic_root(p, tau):
    """Real root of lam + p * exp(-lam * tau) = 0 on [-1/tau... 0], by bisection."""
    f = lambda lam: lam + p * math.exp(-lam * tau)
    lo = -1.0
    while f(lo) > 0.0:
        lo *= 2.0
    return bisect_root(f, lo, 0.0)


class _ScalarReader:
    """A history read one time at a time; ``many`` loops over ``__call__``."""

    def __init__(self, read):
        self._read = read

    def __call__(self, t):
        return float(self._read(t))

    def many(self, ts):
        return np.array([self(t) for t in np.asarray(ts, dtype=float).tolist()])


def scalar_integrate(op, initial_history, config):
    """RK4 method of steps with one Python Hermite (or linear) read per delayed time.

    The per-read integrator the vectorised one must match bit for bit:
    returns (values, derivative_values, overflowed), truncated like a
    Trajectory.  Step-rule and coverage checks are left out.
    """
    h = config.step
    n = int(math.floor(config.t_end / h + 1e-9))
    hermite = config.interpolation.value != "linear"
    x = np.zeros(n + 1)
    dx = np.zeros(n + 1)
    frontier = 0

    def read(t):
        if t <= 0.0:
            return initial_history(t)
        assert t <= frontier * h + 1e-9 * max(1.0, t), "read ahead of the computed trajectory"
        j = max(min(int(t / h), frontier - 1), 0)
        theta = (t - j * h) / h
        if not hermite:
            return x[j] * (1.0 - theta) + x[j + 1] * theta
        h00 = (1.0 + 2.0 * theta) * (1.0 - theta) ** 2
        h10 = theta * (1.0 - theta) ** 2
        h01 = theta * theta * (3.0 - 2.0 * theta)
        h11 = theta * theta * (theta - 1.0)
        return x[j] * h00 + h * dx[j] * h10 + x[j + 1] * h01 + h * dx[j + 1] * h11

    reader = _ScalarReader(read)
    x[0] = initial_history(0.0)
    dx[0] = -op.evaluate(0.0, reader)
    last, overflowed, comp = n, False, 0.0
    for k in range(n):
        frontier = k
        t = k * h
        try:
            fmid = -op.evaluate(t + 0.5 * h, reader)
            fend = -op.evaluate(t + h, reader)
        except OverflowError:
            last, overflowed = k, True
            break
        incr = (h / 6.0) * (dx[k] + 4.0 * fmid + fend) - comp
        s = x[k] + incr
        comp = (s - x[k]) - incr
        x[k + 1], dx[k + 1] = s, fend
        if not math.isfinite(s) or abs(s) > config.overflow_guard:
            last, overflowed = k + 1, True
            break
    return x[: last + 1], dx[: last + 1], overflowed
