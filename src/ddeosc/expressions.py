"""A small arithmetic grammar for coefficient and bound expressions.

Allowed: numbers, the variable t, + - * / **, unary minus, parentheses,
the functions exp, log, sin and cos (one argument each) and min and max
(two or more), and the constants e and pi.  Anything else, a call with the
wrong number of arguments included, is rejected with an
:class:`ExpressionError` naming the offending construct.

A parsed expression evaluates a float t with Python float arithmetic, or a
whole numpy array of times in one call, with the same bits element by
element.  The array form computes ``+ - * /`` and unary minus in numpy,
which rounds them exactly as Python does; ``exp log sin cos`` and ``**``
map ``math``'s functions and Python's ``pow`` over the elements, as
numpy's own differ from libm in the last bit; ``min`` and ``max`` select
with ``np.where`` in Python's order (the first of tied or NaN arguments
stays).  One rule covers failure: an array call returns the array pass
when that pass raises nothing and every value is finite; otherwise it
replays the float form on every element, in the array's order, so it
has the float bits or raises the error a loop over the times meets first.
"""

import ast
import math
from typing import Callable

import numpy as np

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
# The array form's exactly rounded operators; ``/`` and ``**`` need more care.
_UFUNCS = {ast.Add: np.add, ast.Sub: np.subtract, ast.Mult: np.multiply}

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


def parse_expression(source: str) -> Callable:
    """Compile ``source`` into a function of t: a float, or a numpy array of times.

    An array of times gives a float array of its shape, each element with
    the bits (or the error) of the float call at that time.  The returned
    callable carries the original text in its ``source``
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
            variadic = node.func.id in ("min", "max")
            if len(node.args) < 2 if variadic else len(node.args) != 1:
                expected = "at least two arguments" if variadic else "exactly one argument"
                raise ExpressionError(
                    f"{node.func.id}() takes {expected}, got {len(node.args)}, in expression {source!r}"
                )
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

    def scalar(t: float) -> float:
        try:
            return float(eval(code, env, {"t": t}))
        except TypeError as exc:  # a complex value, e.g. a negative base to a fractional power
            raise DomainError(
                f"expression {source!r} does not evaluate to a real number at t={t!r}: {exc}"
            ) from None

    array_form = _array_form(tree.body)

    def fn(t):
        if not isinstance(t, np.ndarray):
            return scalar(t)
        ts = t.astype(float, copy=False)
        out = np.empty(ts.shape)
        try:
            with np.errstate(all="ignore"):
                out[...] = array_form(ts)
            if np.isfinite(out).all():
                return out
        except _Replay:
            pass
        return np.array([scalar(x) for x in ts.ravel().tolist()], dtype=float).reshape(ts.shape)

    fn.source = source  # type: ignore[attr-defined]
    return fn


class _Replay(Exception):
    """The array pass met an element where a Python operation raises."""


def _mapped(f, *args):
    """``f`` over the broadcast elements of ``args``; raises :class:`_Replay` where it raises or gives a complex."""
    arrays = np.broadcast_arrays(*args)
    columns = [a.ravel().tolist() for a in arrays]
    try:
        return np.fromiter(map(f, *columns), float, len(columns[0])).reshape(arrays[0].shape)
    except (ArithmeticError, ValueError, TypeError):
        raise _Replay from None


def _array_form(node: ast.AST):
    """The checked expression ``node`` as a function of an array of times.

    The value broadcasts to the shape of the times (a plain number stays a
    number).  It raises :class:`_Replay` where a Python operation would
    raise.
    """
    if isinstance(node, ast.Constant):
        value = node.value
        return lambda ts: value
    if isinstance(node, ast.Name):
        if node.id == "t":
            return lambda ts: ts
        value = _CONSTANTS[node.id]
        return lambda ts: value
    if isinstance(node, ast.UnaryOp):
        operand = _array_form(node.operand)
        if isinstance(node.op, ast.UAdd):
            return operand
        return lambda ts: np.negative(operand(ts))
    if isinstance(node, ast.BinOp):
        left, right = _array_form(node.left), _array_form(node.right)
        op = type(node.op)

        def binary(ts):
            a, b = left(ts), right(ts)
            if op is ast.Pow:
                return _mapped(pow, a, b)
            if op is ast.Div:
                if (np.asarray(b) == 0.0).any():
                    raise _Replay
                return np.divide(a, b)
            return _UFUNCS[op](a, b)

        return binary
    # A call: the parse checks leave no other node here.
    name = node.func.id
    args = [_array_form(arg) for arg in node.args]
    if name in ("min", "max"):
        better = np.less if name == "min" else np.greater

        def extreme(ts):
            current = args[0](ts)
            for arg in args[1:]:
                v = arg(ts)
                current = np.where(better(v, current), v, current)
            return current

        return extreme
    f = _FUNCTIONS[name]
    return lambda ts: _mapped(f, args[0](ts))
