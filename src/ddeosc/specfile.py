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
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .errors import InvalidParameterError, SpecFormatError, clipped
from .expressions import parse_expression
from .operators import AmnesiaOperator, make_discrete_delay, make_distributed_delay
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
    """Validate a parsed JSON document; error messages name the bad field.

    A field the schema does not name, a boolean where a number belongs, an
    integer beyond the float range and text that is not valid Unicode are
    all rejected.  Parameter values are kept as given: an int stays an int.
    """
    if not isinstance(doc, dict):
        raise SpecFormatError("equation spec must be a JSON object")
    schema = doc.get("schema")
    if schema != SCHEMA_VERSION or isinstance(schema, bool):
        raise SpecFormatError(f"field 'schema': expected {SCHEMA_VERSION}, got {clipped(schema)}")
    kind = doc.get("kind")
    if kind not in KINDS:
        raise SpecFormatError(f"field 'kind': expected one of {KINDS}, got {clipped(kind)}")
    fields = ("terms",) if kind == "discrete_delay" else ("kernel", "parameters")
    _known_fields(doc, ("schema", "kind", "label", "bound_expr", "tau_expr", *fields), "", f"a {kind} spec")
    label = _expect_str(doc.get("label", ""), "label")

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
            _known_fields(item, ("coef_expr", "delay"), f"terms[{i}].", "a term")
            coef = _expect_str(item.get("coef_expr"), f"terms[{i}].coef_expr")
            parse_expression(coef)
            delay = item.get("delay")
            if not (_finite(delay) and delay > 0):
                raise SpecFormatError(
                    f"field 'terms[{i}].delay': expected a finite positive number, got {clipped(delay)}"
                )
            terms.append((coef, float(delay)))
        return EquationSpec(kind=kind, label=label, terms=tuple(terms), bound_expr=bound_expr, tau_expr=tau_expr)

    kernel = doc.get("kernel")
    if not isinstance(kernel, str) or kernel not in KERNEL_CATALOG:
        raise SpecFormatError(
            f"field 'kernel': expected one of {sorted(KERNEL_CATALOG)}, got {clipped(kernel)}"
        )
    parameters = doc.get("parameters", {})
    if not isinstance(parameters, dict):
        raise SpecFormatError(f"field 'parameters': expected an object, got {clipped(parameters)}")
    for key, value in parameters.items():
        if not _finite(value):
            name = f"parameters.{key}"
            raise SpecFormatError(f"field {clipped(name)}: expected a finite number, got {clipped(value)}")
    KERNEL_CATALOG[kernel].validate(parameters)
    return EquationSpec(
        kind=kind,
        label=label,
        kernel=kernel,
        parameters=dict(parameters),
        bound_expr=bound_expr,
        tau_expr=tau_expr,
    )


def _known_fields(doc: dict, allowed: tuple, prefix: str, what: str) -> None:
    for key in doc:
        if key not in allowed:
            name = f"{prefix}{key}"
            raise SpecFormatError(f"field {clipped(name)}: unknown field; {what} has fields {sorted(allowed)}")


def _expect_str(value, name: str) -> str:
    if not isinstance(value, str):
        raise SpecFormatError(f"field '{name}': expected string, got {clipped(value)}")
    try:
        value.encode()
    except UnicodeEncodeError:  # a lone surrogate, such as JSON's "\ud800"
        raise SpecFormatError(f"field '{name}': expected valid Unicode text, got {clipped(value)}") from None
    return value


def _finite(value) -> bool:
    """Whether ``value`` is a number, not a boolean, with a finite float value."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def load_spec(path) -> EquationSpec:
    """Read a spec file: UTF-8 JSON that Python's decoder can hold, checked by :func:`parse_spec`."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, an int past the digit limit, deep nesting
        raise SpecFormatError(f"invalid JSON in {path}: {exc}") from exc
    return parse_spec(doc)


def save_spec(spec: EquationSpec, path) -> None:
    Path(path).write_text(spec.to_json() + "\n")


def build_operator(spec: EquationSpec) -> AmnesiaOperator:
    """Construct the response operator an :class:`EquationSpec` describes."""
    if spec.kind == "discrete_delay":
        terms = [(parse_expression(coef), delay) for coef, delay in spec.terms]
        op = make_discrete_delay(terms, label=spec.label or "discrete-delay operator")
    else:
        op = KERNEL_CATALOG[spec.kernel].build(spec.parameters, label=spec.label)
    if spec.bound_expr:
        op = replace(op, bound_b=parse_expression(spec.bound_expr))
    return op


@dataclass(frozen=True)
class KernelEntry:
    """A named distributed kernel: builder, parameter defaults, validation."""

    name: str
    description: str
    defaults: dict
    builder: Callable[[dict, str], AmnesiaOperator]
    validator: Callable[[dict], None]

    def validate(self, parameters: dict) -> dict:
        """The defaults updated with ``parameters``, once the kernel's checks pass them."""
        unknown = set(parameters) - set(self.defaults)
        if unknown:
            raise SpecFormatError(
                f"field 'parameters': unknown parameter(s) {clipped(sorted(unknown))} for kernel {self.name!r}"
            )
        merged = {**self.defaults, **parameters}
        self.validator(merged)
        return merged

    def build(self, parameters: dict, label: str = "") -> AmnesiaOperator:
        return self.builder(self.validate(parameters), label or self.description)


def _validate_app2(p: dict) -> None:
    if p["a2"] <= 0 or p["a3"] <= 0:
        raise SpecFormatError("field 'parameters': a2 and a3 must be positive")
    if p["a1"] == 0:
        raise SpecFormatError("field 'parameters': a1 must be nonzero")


def _overflow_raises(ufunc, *args) -> np.ndarray:
    """``ufunc(*args)``; a finite input that overflows raises OverflowError, as in ``math``, and flags the run."""
    try:
        with np.errstate(over="raise"):
            return ufunc(*args)
    except FloatingPointError:
        raise OverflowError("math range error") from None


def _int_power(v: np.ndarray, n: int) -> np.ndarray:
    """``v**n`` for an integer ``n >= 1`` by square-and-multiply, in at most 2*log2(n) rounded products.

    ``n = 2`` gives ``v*v`` and ``n = 3`` gives ``(v*v)*v``; unlike ``np.power``
    the bits do not depend on numpy's dispatch, and a huge ``n`` stays cheap.
    """
    result = v
    for bit in bin(n)[3:]:
        result = result * result
        if bit == "1":
            result = result * v
    return result


def _cube(v: np.ndarray) -> np.ndarray:
    """``v**3`` rounded once, to the float nearest the exact cube where that is a normal float.

    ``(v*v)*v`` rounds twice, and ``sin`` of a cube near 1e9 amplifies that
    extra ulp past the trajectory tolerance.  Here ``v = hi + lo`` with
    ``hi`` the top 17 bits of ``v`` (Veltkamp's split), so ``hi**3`` is
    exact, and the remainder, at most about 2**-16 of the cube, carries a
    rounding error of about 2**-67 of the cube; the sum misses the nearest
    float only when the exact cube lies that close to a tie.  Where the sum
    is not finite, ``(v*v)*v`` takes its place: a finite ``v`` whose cube
    overflows raises OverflowError, as Python's power does, and an infinite
    one passes through.
    """
    with np.errstate(all="ignore"):
        c = 68719476737.0 * v  # 2**36 + 1
        hi = c - (c - v)
        lo = v - hi
        hi_sq = hi * hi
        cube = hi_sq * hi + lo * (3.0 * hi_sq + lo * (3.0 * hi + lo))
    if not np.isfinite(cube).all():
        cube = np.where(np.isfinite(cube), cube, _overflow_raises(_int_power, v, 3))
    return cube


def _exp(x: float) -> float:
    """``math.exp``, whose bits the reports hold, or inf where it overflows."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _build_app2(p: dict, label: str) -> AmnesiaOperator:
    a1, a2, a3 = float(p["a1"]), float(p["a2"]), float(p["a3"])

    def kernel(t, s, xs):
        # exp(max(a1*s, x(t-a2*s)^2)) * x(t-a3*s), with Python's max(a, b)
        # as np.where(b > a, b, a)
        v_sq, v_lin = xs
        lin, sq = a1 * s, v_sq * v_sq
        return _overflow_raises(np.exp, np.where(sq > lin, sq, lin)) * v_lin

    b_value = _exp(a1) * (_exp(a1) - 1.0) / a1
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

    def kernel(t, s, xs):
        # (a*s**m + b*s*s * sin(x(t-s-5)**3)**l) * x(t-s-1)
        v_arg, v_lin = xs
        return (a * s**m + b * s * s * _int_power(np.sin(_cube(v_arg)), l)) * v_lin

    b_value = app3_derived_bound(a, b, m, l)
    return make_distributed_delay(
        kernel,
        (0.0, 1.0),
        [lambda t, s: t - s - 5.0, lambda t, s: t - s - 1.0],
        bound_b=lambda t: b_value,
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

    name: str
    spec: EquationSpec
    crit_t_start: float
    crit_t_end: float
    sim: SimulationConfig
    history_amplitude: float
    stated_condition: str
    stated_condition_holds: bool
    discrepancy: Optional[str]


def _scenario_app1(q: float) -> Scenario:
    if q <= 0:
        raise InvalidParameterError(f"q must be positive, got {q}")
    # Time-shifted by 6 so the run starts at 0 with bounded coefficients:
    # coefficients 1/(q t) and (t-1)/(q t) at original time t = t' + 6.
    six_e = 6.0 * math.e
    return Scenario(
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
        crit_t_start=16.0, crit_t_end=256.0, sim=SimulationConfig(t_end=240.0, step=0.05), history_amplitude=1.0,
        stated_condition=f"q > 6e (6e = {six_e:.6g})",
        stated_condition_holds=q > six_e,
        discrepancy=(
            "the stated condition 'q > 6e' points the wrong way: the criterion "
            "quantity is w = 6/q, and w > 1/e holds exactly when q < 6e. "
            "The verdict shown follows the computed w."
        ),
    )


def _scenario_app2(**parameters) -> Scenario:
    p = KERNEL_CATALOG["app2"].validate(parameters)
    a1, a2, a3 = p["a1"], p["a2"], p["a3"]
    condition_value = min(a2, a3) * _exp(1.0 + a1) * (_exp(a1) - 1.0) / a1
    return Scenario(
        name=f"app2_a1={a1:g}_a2={a2:g}_a3={a3:g}",
        spec=EquationSpec(
            kind="distributed_delay",
            label=f"scenario 2: exp(max(a1*s, x^2)) kernel, a1={a1:g}, a2={a2:g}, a3={a3:g}",
            kernel="app2",
            parameters=p,
        ),
        crit_t_start=4.0, crit_t_end=16.0, sim=SimulationConfig(t_end=12.0, step=0.01), history_amplitude=1e-5,
        stated_condition=f"min(a2,a3)*e^(1+a1)*(e^a1 - 1)/a1 > 1 (value = {condition_value:.6g})",
        stated_condition_holds=condition_value > 1.0,
        discrepancy=None,
    )


def _scenario_app3(**parameters) -> Scenario:
    p = KERNEL_CATALOG["app3"].validate(parameters)
    a, b, m, l = p["a"], p["b"], p["m"], int(p["l"])
    if l % 2:
        condition = f"(a - m*b)*e > m (value = {(a - m * b) * math.e:.6g} vs {m:g})"
        holds = (a - m * b) * math.e > m
    else:
        condition = f"a*e > m (value = {a * math.e:.6g} vs {m:g})"
        holds = a * math.e > m
    return Scenario(
        name=f"app3_a={a:g}_b={b:g}_m={m:g}_l={l:g}",
        spec=EquationSpec(
            kind="distributed_delay",
            label=f"scenario 3: polynomial kernel with sin^l modulation, a={a:g}, b={b:g}, m={m:g}, l={l:g}",
            kernel="app3",
            parameters={"a": a, "b": b, "m": m, "l": l},
        ),
        crit_t_start=12.0, crit_t_end=52.0, sim=SimulationConfig(t_end=40.0, step=0.05), history_amplitude=0.5,
        stated_condition=condition,
        stated_condition_holds=holds,
        discrepancy=(
            f"the stated bound value {app3_stated_bound(a, b, m, l):g} (a/m{' - b' if l % 2 else ''}) "
            f"does not match the kernel's integral; integrating the pointwise lower bound over s in "
            f"[0,1] gives {app3_derived_bound(a, b, m, l):g} (a/(m+1){' - b/3' if l % 2 else ''}), "
            f"which is what the criterion uses here."
        ),
    )


# Per app: its default parameter sets and the builder that checks them and makes the scenario.
SCENARIO_CATALOG: dict[int, tuple[tuple[dict, ...], Callable[..., Scenario]]] = {
    1: (({"q": 10.0}, {"q": 20.0}), _scenario_app1),
    2: ((KERNEL_CATALOG["app2"].defaults,), _scenario_app2),
    3: ((KERNEL_CATALOG["app3"].defaults, {**KERNEL_CATALOG["app3"].defaults, "l": 3}), _scenario_app3),
}


def make_scenarios(app_id: int, overrides: Optional[dict] = None) -> list[Scenario]:
    """The scenarios of one app: its default parameter sets, or the first with overrides."""
    if app_id not in SCENARIO_CATALOG:
        raise InvalidParameterError(f"unknown scenario id {app_id}; choose 1, 2 or 3")
    param_sets, build = SCENARIO_CATALOG[app_id]
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
    return [build(**params) for params in param_sets]
