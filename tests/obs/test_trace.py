"""Tracer behaviour, and ``Trace.to_json()`` pinned by ``docs/trace.schema.json``.

The server echoes trace trees to clients, so the JSON form is a contract,
validated the same way as ``docs/explanation.schema.json``: through
:mod:`jsonschema` when installed, otherwise through a minimal built-in
validator covering the keywords the schema uses (type, required, properties,
additionalProperties, items, minimum, and ``$ref`` into ``definitions`` —
the span tree is recursive).
"""

import json
import os
import re
import threading
from pathlib import Path

import pytest

from repro import connect
from repro.obs.trace import Tracer

SCHEMA_PATH = Path(__file__).resolve().parents[2] / "docs" / "trace.schema.json"

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
        if isinstance(value, _TYPES[name]):
            # bool is an int subclass; don't let True pass as a number.
            if name in ("integer", "number") and isinstance(value, bool):
                continue
            return
    raise AssertionError(f"{path}: {value!r} is not of type {expected}")


def _resolve_ref(ref, root):
    assert ref.startswith("#/"), f"only local refs supported, got {ref!r}"
    node = root
    for part in ref[2:].split("/"):
        node = node[part]
    return node


def mini_validate(value, schema, root, path="$"):
    """Validate the subset of JSON Schema draft-07 this contract uses."""
    if "$ref" in schema:
        mini_validate(value, _resolve_ref(schema["$ref"], root), root, path)
        return
    if "type" in schema:
        _check_type(value, schema["type"], path)
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
                mini_validate(value[key], subschema, root, f"{path}.{key}")
    if isinstance(value, list) and "items" in schema:
        for index, item in enumerate(value):
            mini_validate(item, schema["items"], root, f"{path}[{index}]")


def validate(payload, schema):
    mini_validate(payload, schema, schema)
    try:
        import jsonschema
    except ImportError:
        return
    jsonschema.validate(payload, schema)


@pytest.fixture(scope="module")
def schema():
    return json.loads(SCHEMA_PATH.read_text())


class TestTracer:
    def test_trace_records_nested_spans(self):
        tracer = Tracer()
        with tracer.trace("answers") as trace:
            with tracer.span("rewrite", cache="miss"):
                with tracer.span("search"):
                    pass
            with tracer.span("execute"):
                pass
        root = trace.root
        assert [span.name for span in root.children] == ["rewrite", "execute"]
        assert root.children[0].annotations == {"cache": "miss"}
        assert root.children[0].children[0].name == "search"
        assert trace.duration is not None and trace.duration >= 0

    def test_nested_trace_joins_the_enclosing_tree(self):
        tracer = Tracer()
        with tracer.trace("explain") as outer:
            with tracer.trace("rewrite") as inner:
                assert inner is outer
        assert [span.name for span in outer.root.children] == ["rewrite"]
        assert tracer.last() is outer

    def test_disabled_tracer_is_a_noop(self):
        tracer = Tracer(enabled=False)
        with tracer.trace("answers") as trace:
            with tracer.span("rewrite") as span:
                assert span is None
        assert trace is None
        assert tracer.last() is None

    def test_span_without_active_trace_is_a_noop(self):
        tracer = Tracer()
        with tracer.span("orphan") as span:
            assert span is None

    def test_finished_ring_is_bounded(self):
        tracer = Tracer(keep=2)
        for index in range(4):
            with tracer.trace(f"t{index}"):
                pass
        names = [trace.name for trace in tracer.recent(10)]
        assert names == ["t2", "t3"]

    def test_find_by_trace_id_and_clear(self):
        tracer = Tracer()
        with tracer.trace("answers") as trace:
            pass
        assert tracer.find(trace.trace_id) is trace
        assert tracer.find("no-such-id") is None
        tracer.clear()
        assert tracer.last() is None

    def test_trace_ids_are_unique(self):
        tracer = Tracer()
        ids = set()
        for _ in range(32):
            with tracer.trace("t") as trace:
                ids.add(trace.trace_id)
        assert len(ids) == 32

    def test_trace_ids_keep_their_format(self):
        with Tracer().trace("t") as trace:
            assert re.fullmatch(r"[0-9a-f]{8}-\d{6,}", trace.trace_id)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_draws_its_own_prefix(self):
        with Tracer().trace("t") as trace:
            parent_prefix = trace.trace_id.split("-")[0]
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:  # the child: report the prefix of an id made here
            with Tracer().trace("t") as child_trace:
                os.write(write_end, child_trace.trace_id.split("-")[0].encode())
            os._exit(0)
        os.close(write_end)
        child_prefix = os.read(read_end, 64).decode()
        os.close(read_end)
        os.waitpid(pid, 0)
        assert re.fullmatch(r"[0-9a-f]{8}", child_prefix)
        assert child_prefix != parent_prefix
        with Tracer().trace("t") as trace:  # and the parent keeps its own
            assert trace.trace_id.split("-")[0] == parent_prefix

    def test_threads_do_not_share_the_active_stack(self):
        tracer = Tracer()
        barrier = threading.Barrier(2)
        failures = []

        def work(name):
            try:
                with tracer.trace(name) as trace:
                    barrier.wait(timeout=5)
                    with tracer.span(f"{name}-child"):
                        barrier.wait(timeout=5)
                    assert trace.name == name
                    assert [s.name for s in trace.root.children] == [f"{name}-child"]
            except Exception as error:  # pragma: no cover - failure reporting
                failures.append(error)

        threads = [threading.Thread(target=work, args=(n,)) for n in ("a", "b")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not failures


class TestTraceJsonContract:
    def test_schema_file_is_valid_json_schema(self, schema):
        assert schema["type"] == "object"
        assert schema["additionalProperties"] is False
        assert "span" in schema["definitions"]

    def test_handmade_trace_validates(self, schema):
        tracer = Tracer()
        with tracer.trace("answers", query="q1"):
            with tracer.span("rewrite"):
                with tracer.span("search", candidates=3):
                    pass
        payload = tracer.last().to_json()
        validate(payload, schema)
        # Pure JSON: round-trips through the json module unchanged.
        assert json.loads(json.dumps(payload)) == payload

    def test_engine_answer_trace_validates(self, schema):
        engine = connect(views=VIEWS, data=DATA)
        engine.query(QUERY).answers()
        payload = engine.trace().to_json()
        validate(payload, schema)
        assert payload["name"] == "query"
        # The instrumented stages appear as child spans of the verb.
        child_names = {span["name"] for span in payload["root"]["children"]}
        assert child_names  # at least one instrumented stage ran

    def test_engine_explain_trace_validates(self, schema):
        engine = connect(views=VIEWS, data=DATA)
        engine.query(QUERY).explain()
        validate(engine.trace().to_json(), schema)

    def test_engine_delta_trace_validates(self, schema):
        engine = connect(views=VIEWS, data=DATA)
        engine.apply("+ r(9, 2).")
        payload = engine.trace().to_json()
        validate(payload, schema)
        assert payload["name"] == "apply"
