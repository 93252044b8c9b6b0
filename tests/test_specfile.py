import json
import math

import pytest

from ddeosc import HistoryFunction, SpecFormatError
from ddeosc.specfile import (
    KERNEL_CATALOG,
    app3_derived_bound,
    app3_stated_bound,
    EquationSpec,
    build_operator,
    load_spec,
    make_scenarios,
    parse_spec,
    save_spec,
)

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
