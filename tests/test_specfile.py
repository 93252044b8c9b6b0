import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddeosc import ExpressionError, HistoryFunction, InvalidParameterError, SpecFormatError
from ddeosc.expressions import parse_expression
from ddeosc.specfile import (
    KERNEL_CATALOG,
    KINDS,
    SCENARIO_CATALOG,
    Scenario,
    app3_derived_bound,
    app3_stated_bound,
    EquationSpec,
    build_operator,
    load_spec,
    make_scenarios,
    parse_spec,
    save_spec,
)
from ddeosc.specfile import _cube, _int_power

DISCRETE_DOC = {
    "schema": 1,
    "kind": "discrete_delay",
    "label": "demo",
    "terms": [
        {"coef_expr": "1/(10*(t+6))", "delay": 6.0},
        {"coef_expr": "(t+5)/(10*(t+6))", "delay": 8.0},
    ],
    "bound_expr": "1/10",
}

DISTRIBUTED_DOC = {
    "schema": 1,
    "kind": "distributed_delay",
    "label": "demo distributed",
    "kernel": "app2",
    "parameters": {"a1": 1.0, "a2": 1.0, "a3": 1.0},
}


def test_parse_and_round_trip_discrete():
    spec = parse_spec(DISCRETE_DOC)
    again = parse_spec(json.loads(spec.to_json()))
    assert spec == again


def test_parse_and_round_trip_distributed():
    spec = parse_spec(DISTRIBUTED_DOC)
    again = parse_spec(json.loads(spec.to_json()))
    assert spec == again


def test_parse_and_round_trip_tau_expr():
    spec = parse_spec({**DISCRETE_DOC, "tau_expr": "t - 2"})
    assert spec.tau_expr == "t - 2"
    again = parse_spec(json.loads(spec.to_json()))
    assert spec == again


def test_to_json_rejects_non_finite_numbers():
    spec = EquationSpec(kind="distributed_delay", kernel="app2", parameters={"a1": math.inf})
    with pytest.raises(ValueError, match="not JSON compliant"):
        spec.to_json()


def test_save_and_load(tmp_path):
    spec = parse_spec(DISCRETE_DOC)
    path = tmp_path / "eq.json"
    save_spec(spec, path)
    assert load_spec(path) == spec


def test_error_messages_name_fields():
    with pytest.raises(SpecFormatError, match="schema"):
        parse_spec({"kind": "discrete_delay"})
    with pytest.raises(SpecFormatError, match="kind"):
        parse_spec({"schema": 1, "kind": "other"})
    with pytest.raises(SpecFormatError, match="terms"):
        parse_spec({"schema": 1, "kind": "discrete_delay", "terms": []})
    with pytest.raises(SpecFormatError, match=r"terms\[0\].delay"):
        parse_spec({"schema": 1, "kind": "discrete_delay", "terms": [{"coef_expr": "1", "delay": -1}]})
    for delay in (math.nan, math.inf):
        with pytest.raises(SpecFormatError, match=r"terms\[0\].delay': expected a finite positive number"):
            parse_spec({"schema": 1, "kind": "discrete_delay", "terms": [{"coef_expr": "1", "delay": delay}]})
    with pytest.raises(SpecFormatError, match=r"parameters.a1': expected a finite number, got nan"):
        parse_spec({"schema": 1, "kind": "distributed_delay", "kernel": "app2", "parameters": {"a1": math.nan}})
    with pytest.raises(SpecFormatError, match="kernel"):
        parse_spec({"schema": 1, "kind": "distributed_delay", "kernel": "nope"})
    with pytest.raises(SpecFormatError, match="parameters"):
        parse_spec({"schema": 1, "kind": "distributed_delay", "kernel": "app2", "parameters": {"bogus": 1}})


def test_invalid_json_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(SpecFormatError):
        load_spec(path)


def test_catalog_parameter_validation():
    with pytest.raises(SpecFormatError):
        KERNEL_CATALOG["app2"].validate({"a2": -1.0})
    with pytest.raises(SpecFormatError):
        KERNEL_CATALOG["app2"].validate({"a1": 0.0})
    with pytest.raises(SpecFormatError):
        KERNEL_CATALOG["app3"].validate({"l": 1.5})


def test_build_discrete_operator():
    op = build_operator(parse_spec(DISCRETE_DOC))
    h = HistoryFunction.constant(1.0, 0.0, 10.0)
    # coefficient sum is 1/10 for all t >= 0 in shifted time
    assert op.evaluate(10.0, h) == pytest.approx(0.1, abs=1e-12)
    assert op.bound_b(25.0) == pytest.approx(0.1, abs=1e-15)
    assert op.min_lag == 6.0


def test_build_distributed_operator_with_default_bound():
    op = build_operator(parse_spec(DISTRIBUTED_DOC))
    assert op.bound_b(5.0) == pytest.approx(math.e * (math.e - 1.0), abs=1e-12)


def test_bound_expr_overrides_catalog_bound():
    doc = dict(DISTRIBUTED_DOC)
    doc["bound_expr"] = "2.5"
    op = build_operator(parse_spec(doc))
    assert op.bound_b(5.0) == 2.5


_EVERY_OPERATION_TERMS = (
    ("0.4 + 0.1*sin(0.5*t)*cos(t)", 1.0),
    ("min(0.2, max(0.1, exp(-t/50)))", 2.0),
    ("log(2 + t**0.5)/10", 1.5),
)


@pytest.mark.parametrize(
    "terms",
    [
        make_scenarios(1)[0].spec.terms,
        _EVERY_OPERATION_TERMS,
        (("0*(t-300)", 1.0), ("-0.25", 2.5), ("0", 0.5)),  # -0.0, a negative constant, +0.0
    ],
    ids=["app1", "every-operation", "zero-and-negative"],
)
def test_a_discrete_operator_combines_unit_reads_into_its_coefficients(terms):
    op = build_operator(EquationSpec(kind="discrete_delay", terms=terms))
    ts = np.linspace(0.0, 200.0, 401)
    t = ts[:, None]
    coefficients = op.combine(t, np.ones_like(op.read_points(t)))
    assert coefficients.shape == (ts.size, len(terms))
    for i, (coef, _) in enumerate(terms):
        # bit for bit, so that the sign of a zero counts
        assert coefficients[:, i].tobytes() == np.broadcast_to(parse_expression(coef)(ts), ts.shape).tobytes()
    assert (-op.read_points(np.zeros((1, 1)))[0]).tolist() == [delay for _, delay in terms]


def test_app3_bound_formulas():
    assert app3_derived_bound(3.0, 0.1, 1.0, 2) == pytest.approx(1.5)
    assert app3_derived_bound(3.0, 0.1, 1.0, 3) == pytest.approx(1.5 - 0.1 / 3.0)
    assert app3_stated_bound(3.0, 0.1, 1.0, 2) == pytest.approx(3.0)
    assert app3_stated_bound(3.0, 0.1, 1.0, 3) == pytest.approx(2.9)


def test_unknown_spec_type():
    with pytest.raises(SpecFormatError):
        parse_spec(["not", "an", "object"])


def test_app3_odd_l_stated_condition():
    scenario = make_scenarios(3)[1]
    assert scenario.stated_condition == "(a - m*b)*e > m (value = 7.88302 vs 1)"
    assert scenario.stated_condition_holds


_TERM = {"coef_expr": "0.5", "delay": 1.0}


def _discrete(**fields):
    return {"schema": 1, "kind": "discrete_delay", "terms": [_TERM], **fields}


def _distributed(kernel="app2", **fields):
    return {"schema": 1, "kind": "distributed_delay", "kernel": kernel, **fields}


@pytest.mark.parametrize(
    "doc, message",
    [
        (_discrete(bound_exp="0.1"), "field 'bound_exp': unknown field; a discrete_delay spec has fields "
                                     "['bound_expr', 'kind', 'label', 'schema', 'tau_expr', 'terms']"),
        (_discrete(kernel="app2"), "field 'kernel': unknown field; a discrete_delay spec has fields"),
        (_distributed(terms=[_TERM]), "field 'terms': unknown field; a distributed_delay spec has fields "
                                      "['bound_expr', 'kernel', 'kind', 'label', 'parameters', 'schema', 'tau_expr']"),
        (_discrete(terms=[_TERM, {**_TERM, "dealy": 2.0}]),
         "field 'terms[1].dealy': unknown field; a term has fields ['coef_expr', 'delay']"),
        (_discrete(**{"\ud800": 1}), "field '\\ud800': unknown field"),
        ({**_discrete(), "schema": True}, "field 'schema': expected 1, got True"),
        (_discrete(terms=[{**_TERM, "delay": True}]), "field 'terms[0].delay': expected a finite positive number, got True"),
        (_distributed("app3", parameters={"l": True}), "field 'parameters.l': expected a finite number, got True"),
        (_discrete(terms=[{**_TERM, "delay": 10**400}]),
         "field 'terms[0].delay': expected a finite positive number, got 1" + "0" * 99 + "... (401 characters)"),
        (_distributed(parameters={"a1": -(10**400)}),
         "field 'parameters.a1': expected a finite number, got -1" + "0" * 98 + "... (402 characters)"),
        (_distributed(parameters={"\ud800": math.nan}), "field 'parameters.\\ud800': expected a finite number, got nan"),
        (_discrete(terms=[{**_TERM, "coef_expr": "0.5\ud800"}]),
         "field 'terms[0].coef_expr': expected valid Unicode text, got '0.5\\ud800'"),
        (_discrete(label="x\udfff"), "field 'label': expected valid Unicode text, got 'x\\udfff'"),
        (_discrete(bound_expr="\ud800"), "field 'bound_expr': expected valid Unicode text, got '\\ud800'"),
        (_discrete(label=5), "field 'label': expected string, got 5"),
        (_discrete(terms=[_TERM, "0.5"]), "field 'terms[1]': expected an object"),
        (_discrete(terms=[{"delay": 1.0}]), "field 'terms[0].coef_expr': expected string, got None"),
        (_distributed(parameters=[1.0]), "field 'parameters': expected an object, got [1.0]"),
        (_distributed(["app2"]), "field 'kernel': expected one of ['app2', 'app3'], got ['app2']"),
    ],
    ids=["misspelled-bound", "kernel-on-discrete", "terms-on-distributed", "misspelled-delay", "surrogate-field",
         "bool-schema", "bool-delay", "bool-l", "huge-delay", "huge-parameter", "surrogate-parameter",
         "surrogate-coef", "surrogate-label", "surrogate-bound", "label-not-text", "term-not-object",
         "coef-missing", "parameters-not-object", "kernel-unhashable"],
)
def test_malformed_documents_name_the_field(doc, message):
    with pytest.raises(SpecFormatError) as caught:
        parse_spec(doc)
    assert str(caught.value).startswith(message)
    str(caught.value).encode()  # printable: no lone surrogate of the input survives into the message


def test_parameter_values_are_kept_as_given():
    spec = parse_spec(_distributed("app3", parameters={"l": 3, "m": 2}))
    assert spec.parameters == {"l": 3, "m": 2}
    assert type(spec.parameters["l"]) is int
    assert json.loads(spec.to_json())["parameters"] == {"l": 3, "m": 2}


@pytest.mark.parametrize(
    "data, message",
    [
        ("{\"label\": \"caf\u00e9\"}".encode("latin-1"), "'utf-8' codec can't decode byte 0xe9"),
        (b'{"delay": 1' + b"0" * 5000 + b"}", "Exceeds the limit (4300 digits)"),
        (b"[" * 100_000 + b"]" * 100_000, "maximum recursion depth exceeded"),
        (b"{not json", "Expecting property name"),
    ],
    ids=["not-utf8", "digit-limit", "deep-nesting", "syntax"],
)
def test_load_spec_rejects_what_it_cannot_read(data, message, tmp_path):
    path = tmp_path / "spec.json"
    path.write_bytes(data)
    with pytest.raises(SpecFormatError) as caught:
        load_spec(path)
    assert str(caught.value).startswith(f"invalid JSON in {path}: ")
    assert message in str(caught.value)


# Well-formed, malformed and deeply nested expression texts.
_EXPRESSIONS = st.sampled_from(
    ["0.5", "t", "1/(10*(t+6))", "exp(-t)", "min(t, 1)", "log(", "x + 1", "min(t)", "0.5\x00", "0.5\ud800",
     "+".join(["0.001"] * 201), "+".join(["0.001"] * 600), "-" * 300 + "t", ""]
)
_NUMBERS = st.one_of(
    st.booleans(),
    st.integers(min_value=-(10**400), max_value=10**400),
    st.sampled_from([10**309, -(10**309), 10**400]),
    st.floats(allow_nan=True, allow_infinity=True),
)
_TEXTS = st.one_of(st.text(max_size=8), st.sampled_from(["\ud800", "a\udfff", "app2", "app3"]))
_SCALARS = st.one_of(st.none(), _NUMBERS, _TEXTS, _EXPRESSIONS)
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(_TEXTS, inner, max_size=3)),
    max_leaves=6,
)
_VALUES = st.one_of(st.floats(0.01, 10.0), st.integers(1, 4), _NUMBERS)
_TERM_DOCS = st.one_of(
    st.fixed_dictionaries({"coef_expr": _EXPRESSIONS, "delay": _VALUES}),
    st.dictionaries(st.sampled_from(["coef_expr", "delay", "dealy"]), st.one_of(_EXPRESSIONS, _JSON), max_size=3),
)
_PARAMETERS = st.dictionaries(st.sampled_from(["a1", "a2", "a3", "a", "b", "m", "l", "q", "\ud800"]), _VALUES, max_size=4)
# Any JSON value, or a likely one, for each field a spec may hold, and one misspelling.
_FIELDS = {
    "schema": st.one_of(st.just(1), _JSON),
    "kind": st.one_of(st.sampled_from(KINDS), _JSON),
    "label": st.one_of(_TEXTS, _JSON),
    "terms": st.one_of(st.lists(_TERM_DOCS, max_size=3), _JSON),
    "kernel": st.one_of(st.sampled_from(["app2", "app3"]), _JSON),
    "parameters": st.one_of(_PARAMETERS, _JSON),
    "bound_expr": st.one_of(_EXPRESSIONS, _JSON),
    "tau_expr": st.one_of(_EXPRESSIONS, _JSON),
    "bound_exp": _JSON,
}


@st.composite
def _documents(draw):
    """A spec of a drawn kind, with likely values, and then up to two fields redrawn from ``_FIELDS``."""
    kind = draw(st.sampled_from(KINDS))
    doc = {"schema": 1, "kind": kind, "label": draw(st.text(max_size=8))}
    if kind == "discrete_delay":
        doc["terms"] = draw(st.lists(_TERM_DOCS, min_size=1, max_size=3))
    else:
        doc["kernel"] = draw(st.sampled_from(["app2", "app3"]))
        doc["parameters"] = draw(_PARAMETERS)
    for name in draw(st.lists(st.sampled_from(sorted(_FIELDS)), max_size=2)):
        doc[name] = draw(_FIELDS[name])
    return doc


@settings(max_examples=500, deadline=None)
@given(_documents() | _JSON)
def test_parse_spec_returns_a_spec_or_raises_a_package_error(doc):
    try:
        spec = parse_spec(doc)
    except (SpecFormatError, ExpressionError, InvalidParameterError) as exc:
        str(exc).encode()  # printable: no lone surrogate of the input survives into the message
        return
    assert isinstance(spec, EquationSpec)
    assert parse_spec(json.loads(spec.to_json())) == spec


def test_each_scenario_builder_returns_a_scenario():
    for app_id, (parameter_sets, build) in SCENARIO_CATALOG.items():
        scenarios = [build(**parameters) for parameters in parameter_sets]
        assert all(isinstance(sc, Scenario) for sc in scenarios)
        assert scenarios == make_scenarios(app_id)


def test_kernel_validate_returns_the_merged_parameters():
    assert KERNEL_CATALOG["app3"].validate({"l": 3}) == {"a": 3.0, "b": 0.1, "m": 1.0, "l": 3}
    assert KERNEL_CATALOG["app2"].validate({}) == KERNEL_CATALOG["app2"].defaults


@pytest.mark.parametrize(
    "app_id, overrides, error, message",
    [
        (1, {"q": -1.0}, InvalidParameterError, "q must be positive, got -1.0"),
        (1, {"q": 0.0}, InvalidParameterError, "q must be positive, got 0.0"),
        (2, {"a1": 0.0}, SpecFormatError, "field 'parameters': a1 must be nonzero"),  # checked before dividing by a1
        (3, {"l": 1.5}, SpecFormatError, "field 'parameters': l must be a positive integer"),
        (4, None, InvalidParameterError, "unknown scenario id 4; choose 1, 2 or 3"),
    ],
)
def test_scenario_parameters_are_checked_before_use(app_id, overrides, error, message):
    with pytest.raises(error) as caught:
        make_scenarios(app_id, overrides)
    assert str(caught.value) == message


class TestIntPower:
    """App3's ``sin(...)**l`` is square-and-multiply, one rounding per product."""

    V = np.concatenate([
        np.random.default_rng(0).uniform(-2.0, 2.0, 500),
        np.random.default_rng(1).standard_normal(500) * 1e3,
        [0.0, -0.0, 1.0, -1.0, 5e-324, math.inf, -math.inf],
    ])

    @staticmethod
    def _bits(a):
        return np.asarray(a, dtype=np.float64).view(np.uint64)

    def test_low_powers_are_the_products(self):
        v = self.V
        assert np.array_equal(self._bits(_int_power(v, 1)), self._bits(v))
        assert np.array_equal(self._bits(_int_power(v, 2)), self._bits(v**2))
        assert np.array_equal(self._bits(_int_power(v, 3)), self._bits((v * v) * v))
        cube = (v * v) * v
        assert np.array_equal(self._bits(_int_power(v, 7)), self._bits((cube * cube) * v))

    def test_a_huge_power_is_cheap_and_settles(self):
        v = np.array([0.999999, -0.5, 1e-300, 0.0, -0.0, 1.0, -1.0])
        assert _int_power(v, int(1e300)).tolist() == [0.0] * 5 + [1.0, 1.0]


class TestCube:
    """App3's cube is rounded once, to the float nearest the exact cube."""

    def test_matches_the_exactly_rounded_cube(self):
        rng = np.random.default_rng(2)
        magnitudes = 10.0 ** rng.uniform(-90.0, math.log10(5.6e102), 2000) * rng.choice([-1.0, 1.0], 2000)
        v = np.concatenate([TestIntPower.V[np.isfinite(TestIntPower.V)], magnitudes])
        exact = [float(Fraction(x) ** 3) for x in v.tolist()]
        assert _cube(v).tolist() == exact
        # the product cube rounds twice and misses on a share of these
        assert ((v * v) * v).tolist() != exact

    def test_non_finite_values_pass_through(self):
        v = np.array([math.inf, -math.inf, math.nan])
        bits = TestIntPower._bits
        assert np.array_equal(bits(_cube(v)), bits(np.power(v, 3)))

    def test_only_a_cube_beyond_the_float_range_overflows(self):
        top = 5.643803094122361e102  # the largest float whose cube is finite
        cube = float(Fraction(top) ** 3)
        assert cube != (top * top) * top
        assert _cube(np.array([top, -top])).tolist() == [cube, -cube]
        # the last product overflows first at 1e103, the square at 1e155
        for x in (np.nextafter(top, math.inf), 1e103, -1e155, 1e300):
            with pytest.raises(OverflowError):
                _cube(np.array([0.5, x]))
