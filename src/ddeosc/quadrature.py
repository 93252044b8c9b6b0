"""The composite Simpson rule, the package's one quadrature rule."""

from typing import Callable

import numpy as np

from .errors import InvalidParameterError

#: Simpson panels per integral, for the criterion and the distributed-delay operators.
PANELS = 64


def simpson_rule(a: float, b: float, panels: int = PANELS) -> tuple[float, np.ndarray, np.ndarray]:
    """Step ``h``, nodes ``a + i*h`` and factors 1, 4, 2, ..., 4, 1 of the rule on ``[a, b]``.

    The rule is ``h / 3`` times the factor-weighted sum of the integrand at
    the nodes.  ``panels`` must be even and at least 2; a rule too large for
    memory fails at its first allocation.  Every factor is positive, which
    the operators rely on when turning pointwise kernel bounds into bounds
    on the quadrature sum.
    """
    if panels < 2 or panels % 2 != 0:
        raise InvalidParameterError(f"panels must be even and >= 2, got {panels}")
    h = (b - a) / panels
    factors = np.full(panels + 1, 2.0)
    factors[1::2] = 4.0
    factors[[0, -1]] = 1.0
    return h, a + np.arange(panels + 1) * h, factors


def composite_simpson(f: Callable, a, b, panels: int = PANELS):
    """Integrate ``f`` over ``[a[k], b[k]]`` for every k, with ``panels`` Simpson panels each.

    Fourth-order accurate for smooth integrands and exact for polynomials of
    degree up to three.  Arrays of bounds give the array of the rows'
    integrals; float bounds are one row and give a float.  ``f`` is called
    once, on a (rows, panels + 1) array whose columns are ``a``, ``b`` and
    the interior nodes ``a + i*h``, and returns an array of that shape or a
    plain number.  Row by row, that is the order in which a loop over the
    rule evaluates ``f``, so an integrand that raises at several nodes
    raises its first error in that order.  Each row sums ``f(a) + f(b)``
    (``f`` taken at ``b`` itself, not at the last node), then each interior
    term left to right, then multiplies by ``h / 3``.  A row with
    ``a == b`` is 0.0 without evaluating ``f``.  Numpy's floating-point
    warnings are off inside, as Python float arithmetic prints none.
    """
    factors = simpson_rule(0.0, 1.0, panels)[2]  # checks panels too
    one = np.ndim(a) == 0 and np.ndim(b) == 0
    a = np.asarray(a, dtype=float).reshape(-1, 1)
    b = np.asarray(b, dtype=float).reshape(-1, 1)
    out_of_order = np.flatnonzero(a > b)
    if out_of_order.size:
        k = int(out_of_order[0])
        raise InvalidParameterError(f"integration bounds out of order: [{float(a[k, 0])}, {float(b[k, 0])}]")
    totals = np.zeros(len(a))
    live = (a != b)[:, 0]
    if live.any():
        a, b = a[live], b[live]
        with np.errstate(all="ignore"):
            h = (b - a) / panels
            nodes = np.empty((len(a), panels + 1))
            nodes[:, :1], nodes[:, 1:2] = a, b
            nodes[:, 2:] = a + np.arange(1, panels) * h
            values = np.broadcast_to(f(nodes), nodes.shape)
            terms = values[:, 1:] * factors[:-1]
            terms[:, 0] = values[:, 0] + values[:, 1]
            totals[live] = np.add.accumulate(terms, axis=1)[:, -1] * h[:, 0] / 3.0
    return float(totals[0]) if one else totals
