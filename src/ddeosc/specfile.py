"""Equation-spec JSON documents, the built-in kernel catalog and the benchmark scenarios.

Schema (version 1).  Discrete delays:

    {"schema": 1, "kind": "discrete_delay", "label": "...",
     "terms": [{"coef_expr": "1/(10*(t+6))", "delay": 6.0}, ...],
     "bound_expr": "0.1"}               # optional override

Distributed delays select a kernel from the named catalog:

    {"schema": 1, "kind": "distributed_delay", "label": "...",
     "kernel": "app2",                   # or "app3"
     "parameters": {"a1": 1.0, "a2": 1.0, "a3": 1.0},
     "bound_expr": "..."}                # optional; catalog supplies a default

Coefficient and bound expressions use the grammar of
:mod:`ddeosc.expressions`.  Parsing, serializing and re-parsing a spec is
the identity.
"""

import json
import math
from dataclasses import dataclass, field, replace
from itertools import repeat
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .errors import InvalidParameterError, SpecFormatError
from .expressions import parse_expression
from .operators import AmnesiaOperator, make_discrete_delay, make_distributed_delay
from .quadrature import simpson_nodes_weights
from .simulator import SimulationConfig

SCHEMA_VERSION = 1
KINDS = ("discrete_delay", "distributed_delay")


@dataclass(frozen=True)
class EquationSpec:
    kind: str
    label: str = ""
    terms: tuple[tuple[str, float], ...] = ()
    kernel: str = ""
    parameters: dict = field(default_factory=dict)
    bound_expr: Optional[str] = None
    tau_expr: Optional[str] = None

    def to_dict(self) -> dict:
        doc: dict = {"schema": SCHEMA_VERSION, "kind": self.kind, "label": self.label}
        if self.kind == "discrete_delay":
            doc["terms"] = [{"coef_expr": c, "delay": d} for c, d in self.terms]
        else:
            doc["kernel"] = self.kernel
            doc["parameters"] = dict(self.parameters)
        if self.bound_expr is not None:
            doc["bound_expr"] = self.bound_expr
        if self.tau_expr is not None:
            doc["tau_expr"] = self.tau_expr
        return doc

    def to_json(self) -> str:
        return strict_json(self.to_dict())


def strict_json(doc) -> str:
    """The form of every JSON document the package writes: indented, sorted, finite."""
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)


def parse_spec(doc: dict) -> EquationSpec:
    """Validate a parsed JSON document; error messages name the bad field."""
    if not isinstance(doc, dict):
        raise SpecFormatError("equation spec must be a JSON object")
    if doc.get("schema") != SCHEMA_VERSION:
        raise SpecFormatError(f"field 'schema': expected {SCHEMA_VERSION}, got {doc.get('schema')!r}")
    kind = doc.get("kind")
    if kind not in KINDS:
        raise SpecFormatError(f"field 'kind': expected one of {KINDS}, got {kind!r}")
    label = doc.get("label", "")
    if not isinstance(label, str):
        raise SpecFormatError(f"field 'label': expected string, got {label!r}")

    bound_expr = doc.get("bound_expr")
    if bound_expr is not None:
        parse_expression(_expect_str(bound_expr, "bound_expr"))
    tau_expr = doc.get("tau_expr")
    if tau_expr is not None:
        parse_expression(_expect_str(tau_expr, "tau_expr"))

    if kind == "discrete_delay":
        raw_terms = doc.get("terms")
        if not isinstance(raw_terms, list) or not raw_terms:
            raise SpecFormatError("field 'terms': expected a nonempty list")
        terms = []
        for i, item in enumerate(raw_terms):
            if not isinstance(item, dict):
                raise SpecFormatError(f"field 'terms[{i}]': expected an object")
            coef = _expect_str(item.get("coef_expr"), f"terms[{i}].coef_expr")
            parse_expression(coef)
            delay = item.get("delay")
            if not isinstance(delay, (int, float)) or not 0 < delay < math.inf:
                raise SpecFormatError(
                    f"field 'terms[{i}].delay': expected a finite positive number, got {delay!r}"
                )
            terms.append((coef, float(delay)))
        return EquationSpec(kind=kind, label=label, terms=tuple(terms), bound_expr=bound_expr, tau_expr=tau_expr)

    kernel = doc.get("kernel")
    if kernel not in KERNEL_CATALOG:
        raise SpecFormatError(
            f"field 'kernel': expected one of {sorted(KERNEL_CATALOG)}, got {kernel!r}"
        )
    parameters = doc.get("parameters", {})
    if not isinstance(parameters, dict):
        raise SpecFormatError(f"field 'parameters': expected an object, got {parameters!r}")
    for key, value in parameters.items():
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise SpecFormatError(f"field 'parameters.{key}': expected a finite number, got {value!r}")
    KERNEL_CATALOG[kernel].validate(parameters)
    return EquationSpec(
        kind=kind,
        label=label,
        kernel=kernel,
        parameters=dict(parameters),
        bound_expr=bound_expr,
        tau_expr=tau_expr,
    )


def _expect_str(value, name: str) -> str:
    if not isinstance(value, str):
        raise SpecFormatError(f"field '{name}': expected string, got {value!r}")
    return value


def load_spec(path) -> EquationSpec:
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecFormatError(f"invalid JSON in {path}: {exc}") from exc
    return parse_spec(doc)


def save_spec(spec: EquationSpec, path) -> None:
    Path(path).write_text(spec.to_json() + "\n")


def build_operator(spec: EquationSpec) -> AmnesiaOperator:
    """Construct the response operator an :class:`EquationSpec` describes."""
    if spec.kind == "discrete_delay":
        terms = [(parse_expression(coef), delay) for coef, delay in spec.terms]
        bound = parse_expression(spec.bound_expr) if spec.bound_expr else None
        return make_discrete_delay(terms, bound_b=bound, label=spec.label or "discrete-delay operator")
    entry = KERNEL_CATALOG[spec.kernel]
    op = entry.build(spec.parameters, label=spec.label or entry.description)
    if spec.bound_expr:
        op = replace(op, bound_b=parse_expression(spec.bound_expr))
    return op


class KernelEntry:
    """A named distributed kernel: builder, parameter defaults, validation."""

    def __init__(self, name, description, defaults, builder, validator=None):
        self.name = name
        self.description = description
        self.defaults = dict(defaults)
        self._builder = builder
        self._validator = validator

    def merged(self, parameters: dict) -> dict:
        merged = dict(self.defaults)
        merged.update(parameters)
        return merged

    def validate(self, parameters: dict) -> None:
        unknown = set(parameters) - set(self.defaults)
        if unknown:
            raise SpecFormatError(
                f"field 'parameters': unknown parameter(s) {sorted(unknown)} for kernel {self.name!r}"
            )
        if self._validator is not None:
            self._validator(self.merged(parameters))

    def build(self, parameters: dict, label: str = "") -> AmnesiaOperator:
        self.validate(parameters)
        return self._builder(self.merged(parameters), label or self.description)


def _validate_app2(p: dict) -> None:
    if p["a2"] <= 0 or p["a3"] <= 0:
        raise SpecFormatError("field 'parameters': a2 and a3 must be positive")
    if p["a1"] == 0:
        raise SpecFormatError("field 'parameters': a1 must be nonzero")


# The catalog kernels are array forms of scalar formulas with the same bits
# (see make_distributed_delay): exp, sin and ** run element by element in
# Python, and Python's max(a, b) is np.where(b > a, b, a).  app3 computes its
# per-node coefficients once, on the nodes of its own panel count.
_APP_PANELS = 64


def _elementwise(values, like: np.ndarray) -> np.ndarray:
    """An array shaped like ``like`` from an iterator over its elements."""
    return np.fromiter(values, float, like.size).reshape(like.shape)


def _build_app2(p: dict, label: str) -> AmnesiaOperator:
    a1, a2, a3 = float(p["a1"]), float(p["a2"]), float(p["a3"])

    def kernel(t, s, xs):
        # exp(max(a1*s, x(t-a2*s)^2)) * x(t-a3*s)
        v_sq, v_lin = xs
        lin, sq = a1 * s, v_sq * v_sq
        arg = np.where(sq > lin, sq, lin)
        return _elementwise(map(math.exp, arg.ravel().tolist()), arg) * v_lin

    b_value = math.exp(a1) * (math.exp(a1) - 1.0) / a1
    return make_distributed_delay(
        kernel,
        (1.0, 2.0),
        [lambda t, s: t - a2 * s, lambda t, s: t - a3 * s],
        bound_b=lambda t: b_value,
        label=label,
    )


def _validate_app3(p: dict) -> None:
    if p["a"] <= 0 or p["b"] <= 0 or p["m"] <= 0:
        raise SpecFormatError("field 'parameters': a, b and m must be positive")
    l = p["l"]
    if l != int(l) or l < 1:
        raise SpecFormatError("field 'parameters': l must be a positive integer")


def _build_app3(p: dict, label: str) -> AmnesiaOperator:
    a, b, m, l = float(p["a"]), float(p["b"]), float(p["m"]), int(p["l"])
    s_range = (0.0, 1.0)
    nodes = simpson_nodes_weights(*s_range, _APP_PANELS)[0]
    poly = np.array([a * s ** m for s in nodes])
    modulation = np.array([b * s * s for s in nodes])

    def kernel(t, s, xs):
        # (a*s**m + b*s*s * sin(x(t-s-5)**3)**l) * x(t-s-1)
        v_arg, v_lin = xs
        cubes = map(pow, v_arg.ravel().tolist(), repeat(3.0))
        sines = _elementwise(map(pow, map(math.sin, cubes), repeat(float(l))), v_arg)
        return (poly + modulation * sines) * v_lin

    b_value = app3_derived_bound(a, b, m, l)
    return make_distributed_delay(
        kernel,
        s_range,
        [lambda t, s: t - s - 5.0, lambda t, s: t - s - 1.0],
        bound_b=lambda t: b_value,
        quadrature_panels=_APP_PANELS,
        label=label,
    )


def app3_derived_bound(a: float, b: float, m: float, l: int) -> float:
    """Integral lower bound of the app3 kernel coefficient over s in [0, 1].

    The oscillating factor sin(...)^l is bounded below by 0 for even l and
    by -1 for odd l, so the coefficient a*s^m + b*s^2*sin(...)^l is bounded
    below by a*s^m (even) or a*s^m - b*s^2 (odd); integrating gives
    a/(m+1) and a/(m+1) - b/3 respectively.
    """
    low = a / (m + 1.0)
    return low - b / 3.0 if l % 2 else low


def app3_stated_bound(a: float, b: float, m: float, l: int) -> float:
    """The bound value this scenario is usually quoted with: a/m - b (odd l) or a/m.

    It does not match the kernel's integral (see :func:`app3_derived_bound`);
    it is kept so the discrepancy can be displayed and audited.
    """
    return a / m - b if l % 2 else a / m


KERNEL_CATALOG: dict[str, KernelEntry] = {
    "app2": KernelEntry(
        name="app2",
        description="exp(max(a1*s, x(t-a2*s)^2)) * x(t-a3*s) integrated over s in [1, 2]",
        defaults={"a1": 1.0, "a2": 1.0, "a3": 1.0},
        builder=_build_app2,
        validator=_validate_app2,
    ),
    "app3": KernelEntry(
        name="app3",
        description="(a*s^m + b*s^2*sin(x(t-s-5)^3)^l) * x(t-s-1) integrated over s in [0, 1]",
        defaults={"a": 3.0, "b": 0.1, "m": 1.0, "l": 2},
        builder=_build_app3,
        validator=_validate_app3,
    ),
}


# ---------------------------------------------------------------------------
# The three benchmark scenarios that ``ddeosc reproduce`` rebuilds


@dataclass(frozen=True)
class Scenario:
    """A benchmark scenario with concrete parameters, ready to analyze and simulate."""

    app_id: int
    name: str
    spec: EquationSpec
    crit_t_start: float
    crit_t_end: float
    sim: SimulationConfig
    history_amplitude: float
    stated_condition: str
    stated_condition_holds: bool
    discrepancy: Optional[str]


@dataclass(frozen=True)
class ScenarioEntry:
    """One benchmark scenario: default parameter sets, checks, builder, run settings.

    ``build`` maps validated parameters to the parameter-dependent
    :class:`Scenario` fields: name, spec, stated condition and discrepancy.
    """

    app_id: int
    parameter_sets: tuple[dict, ...]
    validate: Callable[[dict], None]
    build: Callable[..., dict]
    crit_t_start: float
    crit_t_end: float
    sim: SimulationConfig
    history_amplitude: float

    def scenario(self, parameters: dict) -> Scenario:
        self.validate(parameters)
        return Scenario(
            app_id=self.app_id, crit_t_start=self.crit_t_start, crit_t_end=self.crit_t_end, sim=self.sim,
            history_amplitude=self.history_amplitude, **self.build(**parameters),
        )


def _validate_app1(p: dict) -> None:
    if p["q"] <= 0:
        raise InvalidParameterError(f"q must be positive, got {p['q']}")


def _scenario_app1(q: float) -> dict:
    # Time-shifted by 6 so the run starts at 0 with bounded coefficients:
    # coefficients 1/(q t) and (t-1)/(q t) at original time t = t' + 6.
    six_e = 6.0 * math.e
    return dict(
        name=f"app1_q={q:g}",
        spec=EquationSpec(
            kind="discrete_delay",
            label=f"scenario 1: two discrete delays, q={q:g} (time axis shifted by 6)",
            terms=(
                (f"1/({q!r}*(t+6))", 6.0),
                (f"(t+5)/({q!r}*(t+6))", 8.0),
            ),
            bound_expr=f"1/{q!r}",
        ),
        stated_condition=f"q > 6e (6e = {six_e:.6g})",
        stated_condition_holds=q > six_e,
        discrepancy=(
            "the stated condition 'q > 6e' points the wrong way: the criterion "
            "quantity is w = 6/q, and w > 1/e holds exactly when q < 6e. "
            "The verdict shown follows the computed w."
        ),
    )


def _scenario_app2(a1: float, a2: float, a3: float) -> dict:
    condition_value = min(a2, a3) * math.exp(1.0 + a1) * (math.exp(a1) - 1.0) / a1
    return dict(
        name=f"app2_a1={a1:g}_a2={a2:g}_a3={a3:g}",
        spec=EquationSpec(
            kind="distributed_delay",
            label=f"scenario 2: exp(max(a1*s, x^2)) kernel, a1={a1:g}, a2={a2:g}, a3={a3:g}",
            kernel="app2",
            parameters={"a1": a1, "a2": a2, "a3": a3},
        ),
        stated_condition=f"min(a2,a3)*e^(1+a1)*(e^a1 - 1)/a1 > 1 (value = {condition_value:.6g})",
        stated_condition_holds=condition_value > 1.0,
        discrepancy=None,
    )


def _scenario_app3(a: float, b: float, m: float, l: int) -> dict:
    l = int(l)
    if l % 2:
        condition = f"(a - m*b)*e > m (value = {(a - m * b) * math.e:.6g} vs {m:g})"
        holds = (a - m * b) * math.e > m
    else:
        condition = f"a*e > m (value = {a * math.e:.6g} vs {m:g})"
        holds = a * math.e > m
    return dict(
        name=f"app3_a={a:g}_b={b:g}_m={m:g}_l={l}",
        spec=EquationSpec(
            kind="distributed_delay",
            label=f"scenario 3: polynomial kernel with sin^l modulation, a={a:g}, b={b:g}, m={m:g}, l={l}",
            kernel="app3",
            parameters={"a": a, "b": b, "m": m, "l": l},
        ),
        stated_condition=condition,
        stated_condition_holds=holds,
        discrepancy=(
            f"the stated bound value {app3_stated_bound(a, b, m, l):g} (a/m{' - b' if l % 2 else ''}) "
            f"does not match the kernel's integral; integrating the pointwise lower bound over s in "
            f"[0,1] gives {app3_derived_bound(a, b, m, l):g} (a/(m+1){' - b/3' if l % 2 else ''}), "
            f"which is what the criterion uses here."
        ),
    )


_APP2, _APP3 = KERNEL_CATALOG["app2"], KERNEL_CATALOG["app3"]

SCENARIO_CATALOG: dict[int, ScenarioEntry] = {
    1: ScenarioEntry(
        app_id=1, parameter_sets=({"q": 10.0}, {"q": 20.0}), validate=_validate_app1, build=_scenario_app1,
        crit_t_start=16.0, crit_t_end=256.0, sim=SimulationConfig(t_end=240.0, step=0.05), history_amplitude=1.0,
    ),
    2: ScenarioEntry(
        app_id=2, parameter_sets=(_APP2.defaults,), validate=_APP2.validate, build=_scenario_app2,
        crit_t_start=4.0, crit_t_end=16.0, sim=SimulationConfig(t_end=12.0, step=0.01), history_amplitude=1e-5,
    ),
    3: ScenarioEntry(
        app_id=3, parameter_sets=(_APP3.defaults, _APP3.merged({"l": 3})), validate=_APP3.validate,
        build=_scenario_app3, crit_t_start=12.0, crit_t_end=52.0, sim=SimulationConfig(t_end=40.0, step=0.05),
        history_amplitude=0.5,
    ),
}


def make_scenarios(app_id: int, overrides: Optional[dict] = None) -> list[Scenario]:
    """The scenarios of one app: its default parameter sets, or the first with overrides."""
    if app_id not in SCENARIO_CATALOG:
        raise InvalidParameterError(f"unknown scenario id {app_id}; choose 1, 2 or 3")
    entry = SCENARIO_CATALOG[app_id]
    param_sets = entry.parameter_sets
    if overrides:
        valid = list(param_sets[0])
        unknown = set(overrides) - set(valid)
        if unknown:
            raise InvalidParameterError(
                f"unknown parameter(s) {sorted(unknown)} for scenario {app_id}; valid: {valid}"
            )
        for name, value in overrides.items():
            if not math.isfinite(value):
                raise InvalidParameterError(f"parameter {name} must be finite, got {value}")
        param_sets = ({**param_sets[0], **overrides},)
    return [entry.scenario(params) for params in param_sets]
