"""The composite Simpson rule, the package's one quadrature rule."""

from typing import Callable

from .errors import InvalidParameterError

#: Simpson panels per integral, for the criterion and the distributed-delay operators.
PANELS = 64


def simpson_rule(a: float, b: float, panels: int = PANELS) -> tuple[float, list[float], list[float]]:
    """Step ``h``, nodes ``a + i*h`` and factors 1, 4, 2, ..., 4, 1 of the rule on ``[a, b]``.

    The rule is ``h / 3`` times the factor-weighted sum of the integrand at
    the nodes.  ``panels`` must be even and at least 2.  Every factor is
    positive, which the operators rely on when turning pointwise kernel
    bounds into bounds on the quadrature sum.
    """
    if panels < 2 or panels % 2 != 0:
        raise InvalidParameterError(f"panels must be even and >= 2, got {panels}")
    h = (b - a) / panels
    nodes = [a + i * h for i in range(panels + 1)]
    factors = [1.0] + [4.0, 2.0] * (panels // 2 - 1) + [4.0, 1.0]
    return h, nodes, factors


def composite_simpson(f: Callable[[float], float], a: float, b: float, panels: int = PANELS) -> float:
    """Integrate ``f`` over ``[a, b]`` with ``panels`` Simpson panels.

    Fourth-order accurate for smooth integrands and exact for polynomials of
    degree up to three.  The sum is ``f(a) + f(b)`` (``f`` taken at ``b``
    itself, not at the last node), then each interior term left to right.
    """
    h, nodes, factors = simpson_rule(a, b, panels)
    if a > b:
        raise InvalidParameterError(f"integration bounds out of order: [{a}, {b}]")
    if a == b:
        return 0.0
    total = f(a) + f(b)
    for s, factor in zip(nodes[1:-1], factors[1:-1]):
        total += f(s) * factor
    return total * h / 3.0
