"""What observability costs a served request, pinned by structure, not time.

A warm hit records into series bound on first use and into a flat trace
record; the :class:`~repro.obs.trace.Span` tree and :class:`~repro.obs.Trace` are
built only when read.  These tests count what a hit constructs, check that
the metrics and the trace it leaves read as before, and cover the trace
records themselves: the ring bound, late reads, nesting, and stages that
raise.
"""

import sys
import threading
import time

import pytest

from repro import connect
from repro.errors import ParseError
from repro.obs import Instrumentation, Trace
from repro.obs.metrics import MetricFamily
from repro.obs.trace import Span
from repro.obs.trace import DEFAULT_KEEP

VIEWS = """
v_rs(A, B) :- r(A, C), s(C, B).
v_r(A, B) :- r(A, B).
v_s(A, B) :- s(A, B).
v_one(B) :- r(1, B).
"""
DATA = "r(1, 2). r(3, 4). s(2, 5). s(4, 6)."
#: Served from a bound form: the text's skeleton is recorded after one answer.
FORM_QUERY = "q(X, Z) :- r(X, Y), s(Y, Z)."
#: Served the long way: its literal is a view constant, so no form is kept.
PINNED_QUERY = "q(Z) :- r(1, Y), s(Y, Z)."


def _series(engine, sample):
    """The value of one sample line of the Prometheus exposition."""
    for line in engine.metrics().splitlines():
        if line.startswith(sample + " "):
            return float(line.split()[-1])
    return 0.0


def _untimed(payload):
    """A trace's JSON without what differs between two runs of it."""
    if isinstance(payload, dict):
        return {
            key: _untimed(value) for key, value in payload.items()
            if key not in ("trace_id", "started_at", "start_ms", "duration_ms")
        }
    if isinstance(payload, list):
        return [_untimed(item) for item in payload]
    return payload


@pytest.fixture()
def construction_counts(monkeypatch):
    """Counts of Span/Trace constructions and MetricFamily.labels calls."""
    counts = {"Span": 0, "Trace": 0, "labels": 0}

    def counting(owner, name, key):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counting(Span, "__init__", "Span")
    counting(Trace, "__init__", "Trace")
    counting(MetricFamily, "labels", "labels")
    return counts


class TestWarmHit:
    @pytest.mark.parametrize("query", [FORM_QUERY, PINNED_QUERY])
    def test_builds_no_tree_and_binds_no_series(self, query, construction_counts):
        engine = connect(views=VIEWS, data=DATA)
        engine.query(query).answers()  # cold: evaluated, series bound
        engine.query(query).answers()  # warm
        for key in construction_counts:
            construction_counts[key] = 0
        answer = engine.query(query).answers()
        assert answer.provenance.answered_from_cache
        assert construction_counts == {"Span": 0, "Trace": 0, "labels": 0}

    @pytest.mark.parametrize("query", [FORM_QUERY, PINNED_QUERY])
    def test_metrics_and_trace_read_as_before(self, query):
        engine = connect(views=VIEWS, data=DATA)
        for _ in range(3):
            engine.query(query).answers()
        assert _series(engine, 'repro_requests_total{verb="query",outcome="ok"}') == 3
        assert _series(engine, 'repro_cache_events_total{cache="rewrite",outcome="miss"}') == 1
        assert _series(engine, 'repro_cache_events_total{cache="rewrite",outcome="hit"}') == 2
        assert _series(engine, 'repro_cache_events_total{cache="answer",outcome="miss"}') == 1
        assert _series(engine, 'repro_cache_events_total{cache="answer",outcome="hit"}') == 2
        assert _series(engine, 'repro_stage_seconds_count{stage="rewrite_hit"}') == 2
        assert _series(engine, 'repro_stage_seconds_count{stage="execute"}') == 1
        fingerprint = engine.query(query).answers().provenance.fingerprint
        trace = engine.trace()
        assert engine.trace(trace.trace_id) is trace
        assert _untimed(trace.to_json()) == {
            "name": "query",
            "root": {
                "name": "query",
                "annotations": {},
                "children": [{
                    "name": "rewrite_hit",
                    "annotations": {"fingerprint": fingerprint},
                    "children": [],
                }],
            },
        }


class TestTraceRecords:
    def test_the_ring_keeps_the_last_default_keep_traces(self):
        engine = connect(views=VIEWS, data=DATA)
        ids = []
        for _ in range(DEFAULT_KEEP + 1):
            engine.query(FORM_QUERY).answers()
            ids.append(engine.observability.tracer.last_id())
        assert len(set(ids)) == DEFAULT_KEEP + 1
        assert engine.trace(ids[0]) is None
        assert engine.trace(ids[1]).trace_id == ids[1]
        assert engine.trace().trace_id == ids[-1]

    def test_a_late_read_equals_an_immediate_one(self):
        early, late = (connect(views=VIEWS, data=DATA) for _ in range(2))
        early.query(FORM_QUERY).answers()
        late.query(FORM_QUERY).answers()
        immediate = early.trace().to_json()
        trace_id = late.observability.tracer.last_id()
        for index in range(10):
            late.query(f"q(Z) :- r({index + 100}, Y), s(Y, Z).").answers()
        read_late = late.trace(trace_id).to_json()
        assert read_late["trace_id"] == trace_id
        assert _untimed(read_late) == _untimed(immediate)
        assert [c["name"] for c in read_late["root"]["children"]] == ["rewrite_cold", "execute"]

    def test_nested_verbs_make_one_tree(self):
        obs = Instrumentation()
        with obs.request("explain"):
            with obs.request("rewrite"):
                obs.stage("rewrite_hit", 0.0, fingerprint="f")
            obs.stage("execute", 0.0)
        trace = obs.tracer.last()
        assert len(obs.tracer.recent()) == 1
        assert trace.name == "explain"
        (rewrite, execute) = trace.root.children
        assert (rewrite.name, execute.name) == ("rewrite", "execute")
        assert [(s.name, s.annotations) for s in rewrite.children] == [
            ("rewrite_hit", {"fingerprint": "f"})
        ]
        assert rewrite.started <= rewrite.children[0].ended <= rewrite.ended
        requests = obs.snapshot()["repro_requests_total"]["series"]
        assert [s["labels"]["verb"] for s in requests] == ["rewrite", "explain"]

    def test_explain_traces_its_rewrite_in_its_own_tree(self):
        engine = connect(views=VIEWS, data=DATA)
        engine.query(FORM_QUERY).explain()
        payload = engine.trace().to_json()
        assert payload["name"] == "explain"
        assert [c["name"] for c in payload["root"]["children"]] == ["rewrite_cold"]


class TestStagesThatRaise:
    def test_a_failed_execute_is_timed_and_traced(self, monkeypatch):
        engine = connect(views=VIEWS, data=DATA)

        def failing(*args, **kwargs):
            raise ValueError("boom")

        monkeypatch.setattr(type(engine), "_evaluate_plan", failing)
        with pytest.raises(ValueError, match="boom"):
            engine.query(FORM_QUERY).answers()
        assert _series(engine, 'repro_stage_seconds_count{stage="execute"}') == 1
        assert _series(engine, 'repro_requests_total{verb="query",outcome="error"}') == 1
        trace = engine.trace()
        assert [span.name for span in trace.root.children] == ["rewrite_cold", "execute"]
        assert trace.root.children[-1].ended is not None

    def test_a_failed_parse_is_timed(self):
        engine = connect(views=VIEWS, data=DATA)
        with pytest.raises(ParseError):
            engine.query("q(X) :- r(X,")
        assert _series(engine, 'repro_stage_seconds_count{stage="parse"}') == 1


class TestThreads:
    def test_concurrent_verbs_lose_no_count_and_splice_no_trace(self):
        obs = Instrumentation()
        threads, rounds = 8, 2000
        failures = []

        def work(tag):
            try:
                for _ in range(rounds):
                    with obs.request("query"):
                        obs.stage("rewrite_hit", time.perf_counter(), thread=tag)
                        obs.cache_event("answer", "hit")
            except Exception as error:  # pragma: no cover - failure reporting
                failures.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work, args=(tag,)) for tag in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not failures and not any(worker.is_alive() for worker in workers)
        snapshot = obs.snapshot()
        total = threads * rounds
        assert snapshot["repro_requests_total"]["series"][0]["value"] == total
        assert snapshot["repro_stage_seconds"]["series"][0]["count"] == total
        assert snapshot["repro_cache_events_total"]["series"][0]["value"] == total
        traces = obs.tracer.recent(DEFAULT_KEEP)
        assert len(traces) == DEFAULT_KEEP
        for trace in traces:  # one stage each, never another thread's
            assert [span.name for span in trace.root.children] == ["rewrite_hit"]
