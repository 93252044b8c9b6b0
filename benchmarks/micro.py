"""Per-call microbenchmarks for costs that the workload spans hide.

Inputs are fixed, not seeded: these numbers describe one call of a layer and
do not depend on the workload.  Each figure is the median over repeats of a
timed batch, in microseconds per call.
"""

import math
from statistics import median
from time import perf_counter
from typing import Callable, Optional

REPEATS = 5


def _us_per_call(call: Callable, inputs: list, repeats: int = REPEATS) -> float:
    samples = []
    for _ in range(repeats):
        start = perf_counter()
        for x in inputs:
            call(x)
        samples.append((perf_counter() - start) / len(inputs))
    return median(samples) * 1e6


# A spec of each operator kind; the discrete one is app1 with q = 10.
OPERATOR_SPECS = {
    "discrete": {
        "schema": 1,
        "kind": "discrete_delay",
        "terms": [
            {"coef_expr": "1/(10.0*(t+6))", "delay": 6.0},
            {"coef_expr": "(t+5)/(10.0*(t+6))", "delay": 8.0},
        ],
        "bound_expr": "1/10.0",
    },
    "app2": {"schema": 1, "kind": "distributed_delay", "kernel": "app2", "parameters": {}},
    "app3": {"schema": 1, "kind": "distributed_delay", "kernel": "app3", "parameters": {}},
}

EXPRESSIONS = (
    "1/(10.0*(t+6))",
    "(t+5)/(10.0*(t+6))",
    "0.1*(1 + 0.3*sin(0.7*t + 1.1))",
    "0.1*(1 + 0.2*cos(0.7*t + 1.1)*exp(0.5*sin(0.7*t + 1.1)))",
    "t - 4.5",
)


def run(find: Callable[[str], Optional[Callable]]) -> tuple[dict[str, float], list[str]]:
    """Microbenchmark metrics, and the names of layers that could not be found."""
    metrics: dict[str, float] = {}
    names = (
        "lambert_w0", "tower_limit", "random_history", "parse_expression",
        "parse_spec", "build_operator", "HistoryFunction",
    )
    found = {name: find(name) for name in names}
    missing = [name for name, obj in found.items() if obj is None]

    lambert_w0 = found["lambert_w0"]
    if lambert_w0 is not None:
        xs = [-1.0 / math.e + (1.0 + 1.0 / math.e) * i / 499 for i in range(500)]
        xs += [10.0 ** (3.0 * i / 499) for i in range(500)]
        metrics["special_functions.lambert_w0.us_per_call"] = _us_per_call(lambert_w0, xs)

    tower_limit = found["tower_limit"]
    if tower_limit is not None:
        edge = math.exp(1.0 / math.e)
        bases = {
            "inside": [0.2 + 1.2 * i / 24 for i in range(25)],
            "outside": [1.5 + 1.5 * i / 24 for i in range(25)],
            # Within 1e-6 of e^(1/e) on both sides: runs to the iteration cap.
            "near_edge": [edge * (1.0 + s * 10.0 ** -k) for k in (6, 7, 8) for s in (-1.0, 1.0)],
        }
        for region, values in bases.items():
            # The criterion's settings for the tower replay.
            metrics[f"special_functions.tower_limit.us_per_call.{region}"] = _us_per_call(
                lambda a: tower_limit(a, tol=1e-9, max_iter=10_000), values
            )

    random_history = found["random_history"]
    if random_history is not None:
        metrics["operators.random_history.us_per_call"] = _us_per_call(
            lambda seed: random_history(seed, -8.000008, 0.0), list(range(20))
        )

    parse_expression = found["parse_expression"]
    if parse_expression is not None:
        metrics["expressions.parse_expression.us_per_call"] = _us_per_call(
            parse_expression, list(EXPRESSIONS) * 20
        )
        parsed = [parse_expression(e) for e in EXPRESSIONS]
        ts = [10.0 + 0.37 * i for i in range(200)]
        metrics["expressions.evaluate.us_per_call"] = median(
            _us_per_call(fn, ts) for fn in parsed
        )

    if None not in (found["parse_spec"], found["build_operator"], found["HistoryFunction"]):
        metrics.update(_operator_metrics(found["parse_spec"], found["build_operator"], found["HistoryFunction"]))
    return metrics, missing


def _operator_metrics(parse_spec, build_operator, history_cls) -> dict[str, float]:
    """One ``op.evaluate`` per operator kind on a fixed smooth history."""

    class CountingHistory(history_cls):
        __slots__ = ("reads",)

        def __call__(self, t):
            self.reads += 1
            return super().__call__(t)

    t = 20.0

    def shape(s):
        return 0.3 + 0.2 * math.sin(1.3 * s)

    metrics = {}
    for kind, doc in OPERATOR_SPECS.items():
        op = build_operator(parse_spec(doc))
        plain = history_cls(shape, t - 10.0, t)
        calls = 200 if kind == "discrete" else 20
        metrics[f"operators.evaluate.us_per_call.{kind}"] = _us_per_call(
            lambda _: op.evaluate(t, plain), [None] * calls
        )
        counting = CountingHistory(shape, t - 10.0, t)
        counting.reads = 0
        op.evaluate(t, counting)
        metrics[f"operators.evaluate.reads_per_call.{kind}"] = counting.reads
    return metrics
