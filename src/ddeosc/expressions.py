"""A small arithmetic grammar for coefficient and bound expressions.

Allowed: numbers, the variable t, + - * / **, unary minus, parentheses,
the functions exp, log, sin, cos, min, max, and the constants e and pi.
Anything else is rejected with an :class:`ExpressionError` naming the
offending construct.
"""

import ast
import math
from typing import Callable

from .errors import DomainError, ExpressionError

_FUNCTIONS = {
    "exp": math.exp,
    "log": math.log,
    "sin": math.sin,
    "cos": math.cos,
    "min": min,
    "max": max,
}
_CONSTANTS = {"e": math.e, "pi": math.pi}

_ALLOWED_NODES = (
    ast.Expression,
    ast.BinOp,
    ast.UnaryOp,
    ast.Call,
    ast.Name,
    ast.Constant,
    ast.Load,
    ast.Add,
    ast.Sub,
    ast.Mult,
    ast.Div,
    ast.Pow,
    ast.USub,
    ast.UAdd,
)


def parse_expression(source: str) -> Callable[[float], float]:
    """Compile ``source`` into a float-valued function of t.

    The returned callable carries the original text in its ``source``
    attribute so specs can round-trip exactly.  It raises
    :class:`~ddeosc.errors.DomainError` where the expression has no real
    value, such as ``(t-10)**0.5`` at t < 10.
    """
    if not isinstance(source, str) or not source.strip():
        raise ExpressionError(f"expression must be a nonempty string, got {source!r}")
    try:
        tree = ast.parse(source, mode="eval")
    except SyntaxError as exc:
        raise ExpressionError(f"cannot parse expression {source!r}: {exc.msg}") from exc

    call_names = set()
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_NODES):
            raise ExpressionError(
                f"construct {type(node).__name__!r} not allowed in expression {source!r}"
            )
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCTIONS:
                raise ExpressionError(f"unknown function call in expression {source!r}")
            if node.keywords:
                raise ExpressionError(f"keyword arguments not allowed in expression {source!r}")
            call_names.add(id(node.func))
        elif isinstance(node, ast.Constant):
            if not isinstance(node.value, (int, float)) or isinstance(node.value, bool):
                raise ExpressionError(f"non-numeric literal {node.value!r} in expression {source!r}")
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            if node.id in _FUNCTIONS:
                if id(node) not in call_names:
                    raise ExpressionError(
                        f"function name {node.id!r} used as a value in expression {source!r}"
                    )
            elif node.id != "t" and node.id not in _CONSTANTS:
                raise ExpressionError(f"unknown name {node.id!r} in expression {source!r}")

    # Integer literals become floats so powers go through float arithmetic
    # (an int 9**9**9 would otherwise build an astronomically large bigint).
    class _Floats(ast.NodeTransformer):
        def visit_Constant(self, node):
            return ast.copy_location(ast.Constant(float(node.value)), node)

    tree = ast.fix_missing_locations(_Floats().visit(tree))
    code = compile(tree, "<expression>", "eval")
    env = {"__builtins__": {}}
    env.update(_FUNCTIONS)
    env.update(_CONSTANTS)

    def fn(t: float) -> float:
        try:
            return float(eval(code, env, {"t": t}))
        except TypeError as exc:  # a complex value, e.g. a negative base to a fractional power
            raise DomainError(
                f"expression {source!r} does not evaluate to a real number at t={t!r}: {exc}"
            ) from None

    fn.source = source  # type: ignore[attr-defined]
    return fn
