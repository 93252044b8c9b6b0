"""A small arithmetic grammar for coefficient and bound expressions.

Allowed: numbers, the variable t, + - * / **, unary minus, parentheses,
the functions exp, log, sin and cos (one argument each) and min and max
(two or more), and the constants e and pi.  Anything else, a call with the
wrong number of arguments included, is rejected with an
:class:`ExpressionError` naming the offending construct.

One walker checks and builds: it visits each node before its operands,
and the operands left to right, and either rejects the node's construct
(so the first fault in that order is the one named) or builds the node's
evaluator from an arithmetic table, which maps each operator and function
to an operation.  Numbers become floats.  The float table holds Python's
operators, ``math``'s functions, ``pow``, ``min`` and ``max``, so a float
t gets the bits and errors of Python evaluating the text.  The array
table evaluates a whole numpy array of times in one call with the same
bits element by element: ``+ - * /`` and unary minus run in numpy, which
rounds them exactly as Python does; ``exp log sin cos`` and ``**`` map
``math``'s functions and Python's ``pow`` over the elements, as numpy's
own differ from libm in the last bit; ``min`` and ``max`` select with
``np.where`` in Python's order (the first of tied or NaN arguments stays).
One rule covers failure: an array call returns the array pass when that
pass raises nothing and every value is finite; otherwise it replays the
float call on every element, in the array's order, so it has the float
bits or raises the error a loop over the times meets first.
"""

import ast
import math
import operator
from typing import Callable

import numpy as np

from .errors import DomainError, ExpressionError, clipped

_CONSTANTS = {"e": math.e, "pi": math.pi}
_VARIADIC = ("min", "max")
_FUNCTIONS = ("exp", "log", "sin", "cos") + _VARIADIC


def parse_expression(source: str) -> Callable:
    """Parse ``source`` into a function of t: a float, or a numpy array of times.

    An array of times gives a float array of its shape, each element with
    the bits (or the error) of the float call at that time.  The returned
    callable carries the original text in its ``source``
    attribute so specs can round-trip exactly.  It raises
    :class:`~ddeosc.errors.DomainError` where the expression has no real
    value, such as ``(t-10)**0.5`` at t < 10, an ``OverflowError`` naming
    the expression and t where a value overflows, and a ``ValueError`` or
    ``ZeroDivisionError`` naming them where an operation is undefined, such
    as ``log(t - 1000)`` at t <= 1000 or ``1/(t - 50)`` at t = 50.
    """
    if not isinstance(source, str) or not source.strip():
        raise ExpressionError(f"expression must be a nonempty string, got {clipped(source)}")
    try:
        tree = ast.parse(source, mode="eval")
    except SyntaxError as exc:
        raise ExpressionError(f"cannot parse expression {clipped(source)}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # a null byte on some versions, a lone surrogate, deep nesting
        raise ExpressionError(f"cannot parse expression {clipped(source)}: {exc}") from exc
    build = _walk(tree.body, source, 0)
    evaluate, array_pass = build(_FLOAT), build(_ARRAY)

    def scalar(t: float) -> float:
        t = float(t)  # a numpy scalar would follow numpy's arithmetic, not Python's
        try:
            return float(evaluate(t))
        except TypeError as exc:  # a complex value, e.g. a negative base to a fractional power
            raise DomainError(
                f"expression {clipped(source)} does not evaluate to a real number at t={t!r}: {exc}"
            ) from None
        except OverflowError as exc:  # pow's errno pair (34, text) or math's text
            raise OverflowError(f"expression {clipped(source)} overflows at t={t!r}: {exc.args[-1]}") from None
        except (ValueError, ZeroDivisionError) as exc:  # log of a nonpositive number, a zero divisor
            raise type(exc)(f"expression {clipped(source)} is undefined at t={t!r}: {exc}") from None

    def fn(t):
        if not isinstance(t, np.ndarray):
            return scalar(t)
        ts = t.astype(float, copy=False)
        out = np.empty(ts.shape)
        try:
            with np.errstate(all="ignore"):
                out[...] = array_pass(ts)
            if np.isfinite(out).all():
                return out
        except _Replay:
            pass
        return np.array([scalar(x) for x in ts.ravel().tolist()], dtype=float).reshape(ts.shape)

    fn.source = source  # type: ignore[attr-defined]
    return fn


# The deepest node the walker accepts; the root is at depth 0, so a sum of
# 201 terms is the longest.  Building and evaluating recurse once per level,
# and an evaluation may already run some frames deep, under ``integrate``
# or the criterion's float replay, so the cap leaves most of Python's
# default recursion limit of 1000 frames to them.
_MAX_DEPTH = 200


def _walk(node: ast.AST, source: str, depth: int) -> Callable:
    """Check ``node`` at ``depth``; return its builder, which maps an arithmetic table to the node's evaluator.

    An evaluator takes the time argument x (a float, or an array of times)
    to the node's value; its operands are evaluated left to right before
    the node's own operation.
    """
    if depth > _MAX_DEPTH:
        raise ExpressionError(f"nesting deeper than {_MAX_DEPTH} levels in expression {clipped(source)}")
    if isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)) or isinstance(node.value, bool):
            raise ExpressionError(f"non-numeric literal {clipped(node.value)} in expression {clipped(source)}")
        return _literal(node.value)
    if isinstance(node, ast.Name):
        if node.id == "t":
            return lambda table: lambda x: x
        if node.id in _CONSTANTS:
            return _literal(_CONSTANTS[node.id])
        if node.id in _FUNCTIONS:
            raise ExpressionError(f"function name {clipped(node.id)} used as a value in expression {clipped(source)}")
        raise ExpressionError(f"unknown name {clipped(node.id)} in expression {clipped(source)}")
    if isinstance(node, ast.UnaryOp) and type(node.op) in _FLOAT:
        return _operation(type(node.op), [_walk(node.operand, source, depth + 1)])
    if isinstance(node, ast.BinOp) and type(node.op) in _FLOAT:
        return _operation(type(node.op), [_walk(node.left, source, depth + 1), _walk(node.right, source, depth + 1)])
    if isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCTIONS:
            raise ExpressionError(f"unknown function call in expression {clipped(source)}")
        if node.keywords:
            raise ExpressionError(f"keyword arguments not allowed in expression {clipped(source)}")
        name = node.func.id
        if len(node.args) < 2 if name in _VARIADIC else len(node.args) != 1:
            expected = "at least two arguments" if name in _VARIADIC else "exactly one argument"
            raise ExpressionError(f"{name}() takes {expected}, got {len(node.args)}, in expression {clipped(source)}")
        return _operation(name, [_walk(arg, source, depth + 1) for arg in node.args])
    construct = node.op if isinstance(node, (ast.UnaryOp, ast.BinOp)) else node
    raise ExpressionError(f"construct {type(construct).__name__!r} not allowed in expression {clipped(source)}")


def _literal(value) -> Callable:
    """The builder of a number as a float.

    An int 9**9**9 would build an astronomically large bigint.  The float
    is made at the build, after the walk, so an integer too large for a
    float raises its ``OverflowError`` only where nothing else is wrong.
    """

    def build(table):
        v = float(value)
        return lambda x: v

    return build


def _operation(key, operands: list) -> Callable:
    """The builder of ``table[key]`` applied to the values of ``operands``' builders."""

    def build(table):
        f = table[key]
        evaluators = [operand(table) for operand in operands]
        # One or two operands get closures of their own: a float call, once
        # per element in a replay, runs about three times faster through them.
        if len(evaluators) == 1:
            (a,) = evaluators
            return lambda x: f(a(x))
        if len(evaluators) == 2:
            a, b = evaluators
            return lambda x: f(a(x), b(x))
        return lambda x: f(*[e(x) for e in evaluators])

    return build


# The operations Python runs for the expression's text, so the same bits and errors.
_FLOAT = {
    ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul, ast.Div: operator.truediv,
    ast.Pow: pow, ast.USub: operator.neg, ast.UAdd: operator.pos,
    "exp": math.exp, "log": math.log, "sin": math.sin, "cos": math.cos, "min": min, "max": max,
}


class _Replay(Exception):
    """The array pass met an element where a Python operation raises."""


def _mapped(f: Callable) -> Callable:
    """``f`` over the broadcast elements of its arguments; raises :class:`_Replay` where it raises or gives a complex."""

    def apply(*args):
        arrays = np.broadcast_arrays(*args)
        columns = [a.ravel().tolist() for a in arrays]
        try:
            return np.fromiter(map(f, *columns), float, len(columns[0])).reshape(arrays[0].shape)
        except (ArithmeticError, ValueError, TypeError):
            raise _Replay from None

    return apply


def _divide(a, b):
    """``/`` in numpy; a zero divisor, where Python raises, signals :class:`_Replay`."""
    if (np.asarray(b) == 0.0).any():
        raise _Replay
    return np.divide(a, b)


def _selected(better: Callable) -> Callable:
    """``min`` or ``max`` in Python's order: a later argument replaces the current one only where it is better."""

    def select(current, *rest):
        for v in rest:
            current = np.where(better(v, current), v, current)
        return current

    return select


# Values broadcast to the shape of the times; a plain number stays a number.
_ARRAY = {
    ast.Add: np.add, ast.Sub: np.subtract, ast.Mult: np.multiply, ast.Div: _divide,
    ast.Pow: _mapped(pow), ast.USub: np.negative, ast.UAdd: lambda a: a,
    "exp": _mapped(math.exp), "log": _mapped(math.log), "sin": _mapped(math.sin), "cos": _mapped(math.cos),
    "min": _selected(np.less), "max": _selected(np.greater),
}
