"""Spans around calls into ddeosc's public functions, recorded from outside.

A layer is named ``<module>.<function>`` after the module that defined the
function when this benchmark was written; the names stay fixed so that runs
of different commits compare.  Each layer is resolved by its public function
name in every loaded ``ddeosc`` module, and while tracing every module
attribute that holds the function is replaced by a recording wrapper, so
calls through another module's import and internal calls through module
globals are both seen.  When code moves to another module the span
survives.  A name that resolves nowhere is a missing layer: its metrics are
left out and reported by name, never as zero.

Spans are kept in memory as ``(name, start, end, parent index)`` and turned
into per-layer numbers at the end of each traced pass.  A layer's self time
is its span time minus the time covered by its child spans.
"""

import inspect
import os
import sys
from collections import Counter
from contextlib import contextmanager
from functools import wraps
from time import perf_counter
from typing import Callable, Optional

LAYERS = (
    "simulator.integrate",
    "simulator.classify",
    "simulator.concordance_experiment",
    "operators.audit_sign_bound",
    "operators.random_history",
    "operators.sigma_growth_check",
    "criterion.estimate_liminf_w",
    "criterion.tetration_proof_trace",
    "quadrature.composite_simpson",
    "special_functions.tower_limit",
    "special_functions.lambert_w0",
    "expressions.parse_expression",
    "specfile.load_spec",
    "specfile.build_operator",
    "cli.write_trajectory_csv",
    "cli.analyze_spec",
)
#: The span the benchmark opens around each CLI command; its self time is
#: the CLI's own work (argument parsing, report building, JSON writes).
ROOT_SPAN = "cli.command"
#: Scenario tags with their own integrate cost per step.
SCENARIOS = ("app1", "app2", "app3")

_INTEGRAND_EVALS = "criterion.estimate_liminf_w.integrand_evals"
#: Counters that a layer's hook keeps, beyond its calls and times.
COUNTERS = {
    "simulator.integrate": ("simulator.integrate.steps", "operators.evaluate.calls"),
    "operators.audit_sign_bound": ("operators.audit_sign_bound.checked",),
    "criterion.estimate_liminf_w": (_INTEGRAND_EVALS,),
    "special_functions.tower_limit": ("special_functions.tower_limit.iterations",),
    "cli.write_trajectory_csv": ("cli.write_trajectory_csv.bytes",),
}


def _ddeosc_modules():
    return [m for n, m in sorted(sys.modules.items()) if n == "ddeosc" or n.startswith("ddeosc.")]


def _defined_in_ddeosc(obj) -> bool:
    return callable(obj) and str(getattr(obj, "__module__", "")).startswith("ddeosc")


def find_public(name: str) -> Optional[Callable]:
    """The ddeosc function or class of this public name, wherever it lives."""
    for module in _ddeosc_modules():
        obj = vars(module).get(name)
        if _defined_in_ddeosc(obj):
            return obj
    return None


def _sites(name: str) -> list[tuple[object, object]]:
    """Every (module, function) pair where a ddeosc module holds ``name``."""
    return [
        (module, vars(module)[name])
        for module in _ddeosc_modules()
        if _defined_in_ddeosc(vars(module).get(name)) and inspect.isfunction(vars(module)[name])
    ]


class Tracer:
    """Records spans and counters for the layers in :data:`LAYERS`."""

    def __init__(self):
        self.spans: list = []
        self.counters: Counter = Counter()
        self.tag = ""
        self._stack: list[int] = []
        self.missing: list[str] = []
        self.layers: list[str] = []
        self._plan: list[tuple[object, str, Callable, Callable]] = []
        made: dict[int, Callable] = {}
        for layer in LAYERS:
            name = layer.rsplit(".", 1)[1]
            sites = _sites(name)
            if not sites:
                self.missing.append(layer)
                continue
            self.layers.append(layer)
            for module, original in sites:
                if id(original) not in made:
                    made[id(original)] = self._wrap(layer, original)
                self._plan.append((module, name, original, made[id(original)]))

    def install(self) -> None:
        """Replace every resolved function by its recording wrapper."""
        for module, name, _, wrapper in self._plan:
            setattr(module, name, wrapper)

    def uninstall(self) -> None:
        """Put the original functions back."""
        for module, name, original, _ in self._plan:
            setattr(module, name, original)

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent)

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack
        before, after = self._hooks(layer, fn)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (layer, start, end, parent)
            if after is not None:
                try:
                    after(args, kwargs, result, end - start)
                except (AttributeError, KeyError, TypeError, OSError):
                    # The layer's result or signature changed shape: its
                    # counters are reported missing instead of wrong.
                    self.missing.extend(c for c in COUNTERS[layer] if c not in self.missing)
            return result

        return wrapper

    def _hooks(self, layer: str, fn: Callable):
        """Optional (before, after) callbacks that count a layer's work."""
        sig = inspect.signature(fn)
        counters = self.counters

        if layer == "criterion.estimate_liminf_w":
            if "b" not in sig.parameters:
                self.missing.append(_INTEGRAND_EVALS)
                return None, None

            def count_integrand(args, kwargs):
                bound = sig.bind(*args, **kwargs)
                b = bound.arguments["b"]

                def counted(t):
                    counters[_INTEGRAND_EVALS] += 1
                    return b(t)

                bound.arguments["b"] = counted
                return bound.args, bound.kwargs

            return count_integrand, None

        if layer == "simulator.integrate":

            def count_steps(args, kwargs, traj, seconds):
                steps = len(traj.times) - 1
                counters["simulator.integrate.steps"] += steps
                counters[f"simulator.integrate.steps.{self.tag}"] += steps
                counters[f"simulator.integrate.busy_s.{self.tag}"] += seconds
                # Computed, not counted: one evaluation at t = 0 and two per step.
                counters["operators.evaluate.calls"] += 2 * steps + 1

            return None, count_steps

        if layer == "special_functions.tower_limit":

            def count_iterations(args, kwargs, result, seconds):
                counters["special_functions.tower_limit.iterations"] += result.iterations_used

            return None, count_iterations

        if layer == "operators.audit_sign_bound":

            def count_checks(args, kwargs, report, seconds):
                counters["operators.audit_sign_bound.checked"] += report.checked

            return None, count_checks

        if layer == "cli.write_trajectory_csv":

            def count_bytes(args, kwargs, result, seconds):
                path = sig.bind(*args, **kwargs).arguments["path"]
                counters["cli.write_trajectory_csv.bytes"] += os.path.getsize(path)

            return None, count_bytes

        return None, None

    # -- aggregation -------------------------------------------------------

    def collect(self) -> dict[str, float]:
        """Per-layer metrics of the spans and counters recorded since the last call."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        calls: Counter = Counter()
        busy: Counter = Counter()
        own: Counter = Counter()
        for i, (name, start, end, parent) in enumerate(spans):
            calls[name] += 1
            busy[name] += end - start
            own[name] += end - start - covered[i]
        total_self = sum(own.values())

        metrics: dict[str, float] = {}
        for layer in [ROOT_SPAN, *self.layers]:
            metrics[f"{layer}.calls"] = calls[layer]
            metrics[f"{layer}.busy_s"] = busy[layer]
            metrics[f"{layer}.self_s"] = own[layer]
        c = self.counters
        for layer in self.layers:
            for counter in COUNTERS.get(layer, ()):
                if counter not in self.missing:
                    metrics[counter] = c[counter]
        if "simulator.integrate.steps" in metrics:
            metrics["simulator.integrate.us_per_step"] = _per(
                busy["simulator.integrate"], c["simulator.integrate.steps"]
            )
            for tag in SCENARIOS:
                metrics[f"simulator.integrate.us_per_step.{tag}"] = _per(
                    c[f"simulator.integrate.busy_s.{tag}"], c[f"simulator.integrate.steps.{tag}"]
                )
        if "simulator.integrate" in self.layers:
            metrics["simulator.integrate.self_share"] = own["simulator.integrate"] / total_self
        metrics["trace.self_sum_s"] = total_self
        metrics["trace.spans"] = len(spans)

        self.spans.clear()
        self.counters.clear()
        return metrics


def _per(seconds: float, count: float) -> float:
    """Microseconds per unit; 0 when the workload did none of this work."""
    return seconds / count * 1e6 if count else 0.0
