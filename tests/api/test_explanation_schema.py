"""``Explanation.to_json()`` is pinned by ``docs/explanation.schema.json``.

Downstream tooling consumes the JSON form, so its shape is a contract: every
explanation the engine can produce must validate against the checked-in
schema, and the output must be pure JSON (round-trips through ``json``).

Validation runs through :mod:`jsonschema` when it is installed; a minimal
built-in validator covering the subset of keywords the schema uses (type,
enum, required, properties, additionalProperties, items, anyOf, minimum)
keeps the contract enforced when it is not.
"""

import json

import pytest

from pathlib import Path

from repro import connect

SCHEMA_PATH = Path(__file__).resolve().parents[2] / "docs" / "explanation.schema.json"

VIEWS = """
v_rs(A, B) :- r(A, C), s(C, B).
v_r(A, B) :- r(A, B).
v_s(A, B) :- s(A, B).
"""
DATA = "r(1, 2). r(3, 4). s(2, 5). s(4, 6)."
QUERY = "q(X, Z) :- r(X, Y), s(Y, Z)."

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "integer": int,
    "number": (int, float),
    "boolean": bool,
    "null": type(None),
}


def _check_type(value, expected, path):
    expected_types = expected if isinstance(expected, list) else [expected]
    for name in expected_types:
        python_type = _TYPES[name]
        if isinstance(value, python_type):
            # bool is an int subclass; don't let True pass as an integer.
            if name in ("integer", "number") and isinstance(value, bool):
                continue
            return
    raise AssertionError(f"{path}: {value!r} is not of type {expected}")


def mini_validate(value, schema, path="$"):
    """Validate the subset of JSON Schema draft-07 this contract uses."""
    if "anyOf" in schema:
        errors = []
        for option in schema["anyOf"]:
            try:
                mini_validate(value, option, path)
                break
            except AssertionError as error:
                errors.append(str(error))
        else:
            raise AssertionError(f"{path}: no anyOf branch matched ({errors})")
        return
    if "type" in schema:
        _check_type(value, schema["type"], path)
    if "enum" in schema and value not in schema["enum"]:
        raise AssertionError(f"{path}: {value!r} not in {schema['enum']}")
    if "minimum" in schema and isinstance(value, (int, float)):
        assert value >= schema["minimum"], f"{path}: {value} < {schema['minimum']}"
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            assert key in value, f"{path}: missing required key {key!r}"
        properties = schema.get("properties", {})
        if schema.get("additionalProperties") is False:
            extra = set(value) - set(properties)
            assert not extra, f"{path}: unexpected keys {sorted(extra)}"
        for key, subschema in properties.items():
            if key in value:
                mini_validate(value[key], subschema, f"{path}.{key}")
    if isinstance(value, list) and "items" in schema:
        for index, item in enumerate(value):
            mini_validate(item, schema["items"], f"{path}[{index}]")


def validate(payload, schema):
    mini_validate(payload, schema)
    jsonschema = pytest.importorskip("jsonschema", reason="jsonschema not installed")
    jsonschema.validate(payload, schema)


@pytest.fixture(scope="module")
def schema():
    return json.loads(SCHEMA_PATH.read_text())


def explanation_json(query=QUERY, **kwargs):
    options = {"views": VIEWS, "data": DATA}
    options.update(kwargs)
    engine = connect(**options)
    return engine.query(query).explain().to_json()


class TestSchemaContract:
    def test_schema_file_is_valid_json_schema(self, schema):
        assert schema["type"] == "object"
        assert schema["additionalProperties"] is False

    def test_equivalent_rewriting_explanation_validates(self, schema):
        validate(explanation_json(), schema)

    def test_no_rewriting_explanation_validates(self, schema):
        validate(explanation_json(views="v_t(A) :- t(A)."), schema)

    def test_no_database_explanation_validates(self, schema):
        validate(explanation_json(data=None), schema)

    def test_union_rewriting_explanation_validates(self, schema):
        validate(
            explanation_json(
                views="v_r(A, B) :- r(A, B).\nv_q(A) :- r(A, A).",
                data="r(1, 2). r(3, 3).",
                mode="maximally-contained",
                query="q(X) :- r(X, Y).",
            ),
            schema,
        )

    def test_comparison_filter_explanation_validates(self, schema):
        validate(
            explanation_json(
                views="v_big(A, B) :- r(A, B), B > 1.",
                data="r(1, 2). r(3, 0).",
                query="q(X, Y) :- r(X, Y), Y > 1.",
            ),
            schema,
        )

    def test_semi_join_explanation_validates(self, schema):
        payload = explanation_json(views="v_t(A) :- t(A).", query="q(X) :- r(X, Y), s(Y, Z).")
        steps = payload["evaluation"]["plans"][0]["steps"]
        assert [step["operator"] for step in steps] == ["scan", "semi_join"]
        assert steps[1]["columns_kept"] == 1 and steps[1]["distinct"] is True
        validate(payload, schema)
        steps[1]["operator"] = "anti_join"
        with pytest.raises(AssertionError):
            mini_validate(payload, schema)
        del steps[0]["columns_kept"]
        steps[1]["operator"] = "semi_join"
        with pytest.raises(AssertionError):
            mini_validate(payload, schema)

    def test_output_is_pure_json(self, schema):
        payload = explanation_json()
        assert json.loads(json.dumps(payload)) == payload

    def test_mini_validator_rejects_drift(self, schema):
        # Guard the guard: a payload violating the contract must fail.
        payload = explanation_json()
        payload["evaluation"]["target"] = "warp-drive"
        with pytest.raises(AssertionError):
            mini_validate(payload, schema)
        payload = explanation_json()
        del payload["rewriting"]
        with pytest.raises(AssertionError):
            mini_validate(payload, schema)
        payload = explanation_json()
        payload["unexpected"] = 1
        with pytest.raises(AssertionError):
            mini_validate(payload, schema)
