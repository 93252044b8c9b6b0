"""Independent oracles used to freeze expected values in the tests.

Everything here is deliberately primitive (bisection, plain fixed-point
iteration, dense-grid scans, one scalar operation at a time) and shares no
code with the implementations under test.
"""

import math

import numpy as np

from ddeosc.errors import HistoryDomainError


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


def looped_simpson(f, a, b, panels):
    """Composite Simpson as one loop: f(a) + f(b), then f(a + i*h) * 4 or 2, then * h / 3."""
    h = (b - a) / panels
    total = f(a) + f(b)
    for i in range(1, panels):
        total += f(a + i * h) * (4.0 if i % 2 else 2.0)
    return total * h / 3.0


def simpson_nodes_weights(a, b, panels):
    """Nodes a + i*h and weights h / 3.0 * (1, 4, 2, ..., 4, 1) of composite Simpson."""
    h = (b - a) / panels
    nodes = [a + i * h for i in range(panels + 1)]
    weights = [h / 3.0 * (1.0 if i in (0, panels) else (4.0 if i % 2 else 2.0)) for i in range(panels + 1)]
    return nodes, weights


class ScalarDistributedDelay:
    """A distributed-delay operator evaluated one quadrature node at a time.

    All reads come first, node by node and, within a node, in delay-map
    order; then one kernel call per node with Python floats, and the weighted
    terms summed left to right from 0.0.  ``kernel(t, s, xs)`` and the delay
    maps ``d(t, s)`` take floats.
    """

    def __init__(self, kernel, s_range, delay_maps, panels=64):
        self.kernel = kernel
        self.maps = list(delay_maps)
        self.nodes, self.weights = simpson_nodes_weights(s_range[0], s_range[1], panels)

    def evaluate(self, t, history):
        rows = [[history(d(t, s)) for d in self.maps] for s in self.nodes]
        total = 0.0
        for s, w, xs in zip(self.nodes, self.weights, rows):
            total += w * self.kernel(t, s, xs)
        return total


class ScalarDiscreteDelay:
    """A discrete-delay operator summed term by term: sum(c(t) * history(t - d)).

    Coefficients are numbers or callables of t, each delay a positive number.
    """

    def __init__(self, terms):
        self.terms = [(c if callable(c) else (lambda t, v=float(c): v), float(d)) for c, d in terms]

    def evaluate(self, t, history):
        return sum(c(t) * history(t - d) for c, d in self.terms)


def scalar_app2(a1=1.0, a2=1.0, a3=1.0):
    """exp(max(a1*s, x(t-a2*s)^2)) * x(t-a3*s) over s in [1, 2], one node at a time."""
    return ScalarDistributedDelay(
        lambda t, s, xs: math.exp(max(a1 * s, xs[0] * xs[0])) * xs[1],
        (1.0, 2.0),
        [lambda t, s: t - a2 * s, lambda t, s: t - a3 * s],
    )


def scalar_app3(a=3.0, b=0.1, m=1.0, l=2):
    """(a*s^m + b*s^2*sin(x(t-s-5)^3)^l) * x(t-s-1) over s in [0, 1], one node at a time."""
    return ScalarDistributedDelay(
        lambda t, s, xs: (a * s ** m + b * s * s * math.sin(xs[0] ** 3) ** l) * xs[1],
        (0.0, 1.0),
        [lambda t, s: t - s - 5.0, lambda t, s: t - s - 1.0],
    )


def scalar_random_history(seed, domain_start, domain_end=0.0, modes=5, amplitude=1.0, positive=False):
    """The seeded Fourier history, peak-normalised over all 512 grid points.

    Each read is two 5-term ``np.dot`` calls; there is no domain check or clamp.
    """
    rng = np.random.default_rng(seed)
    cos_coef = rng.uniform(-1.0, 1.0, modes)
    sin_coef = rng.uniform(-1.0, 1.0, modes)
    length = domain_end - domain_start
    omegas = np.array([math.pi * (m + 1) / length for m in range(modes)])

    def raw(t):
        phases = omegas * (t - domain_start)
        return float(np.dot(cos_coef, np.cos(phases)) + np.dot(sin_coef, np.sin(phases)))

    peak = max(abs(raw(float(t))) for t in np.linspace(domain_start, domain_end, 512))
    scale = amplitude / peak if peak > 1e-12 else 0.0
    shift = 1.1 * amplitude if positive else 0.0
    return lambda t: scale * raw(t) + shift


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

    The per-read integrator the vectorised one is checked against: returns
    (values, derivative_values, overflowed), truncated like a Trajectory.
    Step-rule and coverage checks are left out.  It squares the Hermite
    phase with Python's power, and ``scalar_app2`` and ``scalar_app3`` call
    ``math`` and Python's power, where the package multiplies (app3's
    ``sin(...)**l`` too), rounds app3's cube once without ``pow`` and calls
    numpy's exp and sin; those differ in the last bit on some inputs, so
    runs through them are compared within a fraction of the step-halving
    gap, and other runs bit for bit.
    """
    h = config.step
    n = int(math.floor(config.t_end / h + 1e-9))
    hermite = config.interpolation.value != "linear"
    x = np.zeros(n + 1)
    dx = np.zeros(n + 1)
    frontier = 0
    past = {}  # the initial history is a pure function of t, read once per distinct time

    def read(t):
        if t <= 0.0:
            if t not in past:
                past[t] = initial_history(t)
            return past[t]
        if not t / h < frontier:  # int(t/h) + 1 <= frontier: between nodes computed before the step
            raise HistoryDomainError(
                f"delayed read at t={t} is not behind the computed trajectory "
                f"(frontier {frontier * h}); decrease the step"
            )
        j = int(t / h)
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
    last, overflowed, comp = n, False, 0.0
    try:
        dx[0] = -op.evaluate(0.0, reader)
    except OverflowError:
        dx[0], last, overflowed = math.nan, 0, True
    for k in range(last):
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
