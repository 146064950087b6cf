"""The warm reply path: same bytes, same counters, less work.

A warm ``/query`` is served from the engine's text memo, the session's two
caches and rows encoded once per cache entry.  None of that may show in a
reply or a counter, so this file compares replies over a churn scenario with
the slow construction on a fresh engine, and pins what each hit must still
count.
"""

import http.client
import json
import re
import sys
import threading
import time

import pytest

from repro import connect
from repro.datalog.parser import parse_query
from repro.engine.evaluate import evaluate
from repro.server import ReproServer
from repro.workloads.updates import chain_update_workload, update_stream

FULL = "q(X0, X4) :- r1(X0, X1), r2(X1, X2), r3(X2, X3), r4(X3, X4)."
#: Isomorphic to FULL (renamed, subgoals reordered): shares its cache entries.
RENAMED = "q(A, E) :- r2(B, C), r1(A, B), r4(D, E), r3(C, D)."
#: Depends on r1 and r2 only: a delta on r3/r4 touches none of its predicates.
SHORT = "q(X0, X2) :- r1(X0, X1), r2(X1, X2)."
FILTERED = "q(X0, X2) :- r1(X0, X1), r2(X1, X2), X0 != 3."
TEXTS = (FULL, RENAMED, SHORT, FILTERED)

PER_REQUEST = ("elapsed", "trace_id", "coalesced")
HIT_FLAGS = ("cache_hit", "answered_from_cache")


class Exchange:
    """One keep-alive connection to a server."""

    def __init__(self, server):
        self.connection = http.client.HTTPConnection(server.host, server.port, timeout=30)

    def close(self):
        self.connection.close()

    def call(self, method, path, payload=None):
        body = None if payload is None else json.dumps(payload)
        self.connection.request(method, path, body)
        response = self.connection.getresponse()
        raw = response.read()
        assert response.status == 200, raw
        return raw

    def query(self, text):
        return json.loads(self.call("POST", "/query", {"query": text}))


def stable(payload):
    """A ``/query`` reply (or ``Answer.to_json()``) minus what varies per request."""
    payload = {k: v for k, v in payload.items() if k not in PER_REQUEST}
    payload["provenance"] = {
        k: v for k, v in payload["provenance"].items() if k not in HIT_FLAGS
    }
    return payload


def cache_entry(server, text):
    """The answer-cache entry ``text`` is served from (None when not cached)."""
    fp = server.engine.query(text)._fingerprint.text
    return server.engine.session._answer_cache.peek((fp, "minicon", "equivalent"))


@pytest.fixture()
def scenario():
    workload = chain_update_workload(
        length=4, tuples_per_relation=60, domain_size=20, steps=0, seed=3
    )
    # Two independent streams over disjoint relations, so any interleaving of
    # them is valid against the evolving state.
    left = update_stream(workload.database, steps=4, churn=0.03, relations=["r1", "r2"],
                         domain_size=20, seed=5)
    right = update_stream(workload.database, steps=4, churn=0.03, relations=["r3", "r4"],
                          domain_size=20, seed=6)
    return workload, left, right


@pytest.fixture()
def served(scenario):
    workload, _, _ = scenario
    engine = connect(views=workload.views, data=workload.database.copy())
    with ReproServer(engine) as server:
        exchange = Exchange(server)
        yield server, exchange
        exchange.close()


class TestRepliesEqualTheSlowConstruction:
    def check_all(self, exchange, views, state, passes=3):
        """Every text, ``passes`` times over (miss, first hit, later hits),
        against ``to_json()`` of a fresh engine over a copy of ``state``."""
        expected = {}
        for text in TEXTS:
            fresh = connect(views=views, data=state.copy())
            expected[text] = stable(fresh.query(text).answers().to_json())
        for _ in range(passes):
            for text in TEXTS:
                assert stable(exchange.query(text)) == expected[text]

    def test_over_a_churn_scenario(self, scenario, served):
        workload, left, right = scenario
        server, exchange = served
        state = workload.database.copy()
        self.check_all(exchange, workload.views, state)
        session = server.engine.session
        for step in range(4):
            # r3/r4 only: SHORT and FILTERED keep their entries (and bytes).
            kept = cache_entry(server, SHORT)
            assert kept is not None and kept.encoded is not None
            exchange.call("POST", "/apply-delta", {"delta": right[step].to_text()})
            state.apply_delta(right[step])
            assert cache_entry(server, SHORT) is kept
            self.check_all(exchange, workload.views, state)
            # r1/r2: every text's predicates are touched.
            exchange.call("POST", "/apply-delta", {"delta": left[step].to_text()})
            state.apply_delta(left[step])
            assert len(session._answer_cache) == 0
            self.check_all(exchange, workload.views, state)
        assert session.delta_retained > 0 and session.delta_evictions > 0

    def test_after_an_out_of_band_mutation(self, scenario, served):
        workload, left, _ = scenario
        server, exchange = served
        state = workload.database.copy()
        self.check_all(exchange, workload.views, state)
        invalidations = server.engine.session.invalidations
        with server._engine_lock:  # behind the session's back: the coarse flush
            server.engine.database.apply_delta(left[0])
        state.apply_delta(left[0])
        self.check_all(exchange, workload.views, state)
        assert server.engine.session.invalidations == invalidations + 1

    def test_reply_is_byte_for_byte_the_slow_encoding(self, served):
        server, exchange = served
        for _ in range(3):
            raw = exchange.call("POST", "/query", {"query": FULL, "trace": True})
            assert raw == json.dumps(json.loads(raw), default=str).encode("utf-8")
            assert list(json.loads(raw)) == [
                "query", "rows", "count", "provenance", "elapsed", "trace_id", "trace",
                "coalesced",
            ]

    def test_answer_json_text_is_to_json_dumped(self, scenario):
        workload, _, _ = scenario
        engine = connect(views=workload.views, data=workload.database.copy())
        for _ in range(3):
            for text in TEXTS:
                answer = engine.query(text).answers()
                assert answer._json_text() == json.dumps(answer.to_json(), default=str)


class TestEncodedRowsLiveOnTheCacheEntry:
    def test_attached_on_the_first_hit_never_on_a_miss(self, served):
        server, exchange = served
        exchange.query(FULL)
        assert cache_entry(server, FULL).encoded is None
        first_hit = exchange.query(FULL)
        encoded = cache_entry(server, FULL).encoded
        assert json.loads(encoded) == first_hit["rows"]
        exchange.query(FULL)
        assert cache_entry(server, FULL).encoded is encoded

    def test_renamed_text_shares_the_entry_and_its_bytes(self, served):
        server, exchange = served
        exchange.query(FULL)
        renamed = exchange.query(RENAMED)  # a hit on FULL's entry
        assert renamed["provenance"]["answered_from_cache"] is True
        assert renamed["query"] == RENAMED
        assert cache_entry(server, RENAMED) is cache_entry(server, FULL)
        assert cache_entry(server, FULL).encoded is not None

    def test_evicted_with_the_rows(self, scenario, served):
        _, left, _ = scenario
        server, exchange = served
        exchange.query(FULL), exchange.query(FULL)
        stale = cache_entry(server, FULL)
        exchange.call("POST", "/apply-delta", {"delta": left[0].to_text()})
        assert cache_entry(server, FULL) is None
        exchange.query(FULL)
        assert cache_entry(server, FULL) is not stale
        assert cache_entry(server, FULL).encoded is None


METRIC_NAMES = {
    "repro_cache_entries", "repro_cache_events_total", "repro_containment_memo_hit_rate",
    "repro_deltas_total", "repro_http_request_seconds_bucket",
    "repro_http_request_seconds_count", "repro_http_request_seconds_sum",
    "repro_http_requests_total", "repro_requests_total", "repro_server_coalesced_total",
    "repro_server_queue_depth", "repro_server_rejected_total",
    "repro_stage_seconds_bucket", "repro_stage_seconds_count", "repro_stage_seconds_sum",
}
STATS_KEYS = {"catalog", "deltas_applied", "queries_served", "session", "storage"}
SESSION_KEYS = {
    "algorithm", "answer_cache", "bound_forms", "database_version",
    "delta_evictions", "delta_retained", "deltas_applied", "executor",
    "global.containment_memo", "invalidations", "materialized", "metrics", "mode",
    "requests", "rewrite_cache", "storage", "store", "view_index",
    "views", "views_token",
}


def sample(metrics_text, series):
    match = re.search(rf"^{re.escape(series)} (\S+)$", metrics_text, re.MULTILINE)
    return float(match.group(1)) if match else 0.0


class TestAHitStillCountsWhatItCounted:
    WATCHED = (
        'repro_requests_total{verb="query",outcome="ok"}',
        'repro_cache_events_total{cache="answer",outcome="hit"}',
        'repro_cache_events_total{cache="rewrite",outcome="hit"}',
        'repro_stage_seconds_count{stage="rewrite_hit"}',
        'repro_stage_seconds_count{stage="parse"}',
        'repro_cache_events_total{cache="answer",outcome="miss"}',
        'repro_cache_events_total{cache="rewrite",outcome="miss"}',
    )

    def snapshot(self, exchange):
        text = exchange.call("GET", "/metrics").decode()
        stats = json.loads(exchange.call("GET", "/stats"))
        return text, stats

    def test_series_names_are_todays(self, scenario, served):
        _, left, _ = scenario
        _, exchange = served
        exchange.query(FULL), exchange.query(FULL)
        exchange.call("POST", "/apply-delta", {"delta": left[0].to_text()})
        exchange.call("POST", "/explain", {"query": FULL})
        text, stats = self.snapshot(exchange)
        names = {
            line.split("{")[0].split(" ")[0]
            for line in text.splitlines() if not line.startswith("#")
        }
        assert names == METRIC_NAMES
        assert set(stats) == STATS_KEYS
        assert set(stats["session"]) == SESSION_KEYS

    def test_counters_move_by_one_per_hit(self, served):
        server, exchange = served
        exchange.query(FULL), exchange.query(FULL)  # miss, then the first hit
        before_text, before = self.snapshot(exchange)
        reply = exchange.query(FULL)
        after_text, after = self.snapshot(exchange)
        moved = {
            series: sample(after_text, series) - sample(before_text, series)
            for series in self.WATCHED
        }
        assert moved == dict(zip(self.WATCHED, (1, 1, 1, 1, 0, 0, 0)))
        assert after["queries_served"] == before["queries_served"] + 1
        for cache in ("answer_cache", "rewrite_cache"):
            assert after["session"][cache]["hits"] == before["session"][cache]["hits"] + 1
            assert after["session"][cache]["misses"] == before["session"][cache]["misses"]
        assert after["session"]["requests"] == before["session"]["requests"] + 1
        assert reply["provenance"]["cache_hit"] and reply["provenance"]["answered_from_cache"]
        trace = server.engine.trace(reply["trace_id"])  # the trace ring entry
        assert trace is not None and trace.name == "query"
        assert [child.name for child in trace.root.children] == ["rewrite_hit"]

    def test_a_new_text_is_parsed_exactly_once(self, served):
        _, exchange = served
        parse = 'repro_stage_seconds_count{stage="parse"}'
        before = sample(self.snapshot(exchange)[0], parse)
        exchange.query(FULL)
        assert sample(self.snapshot(exchange)[0], parse) == before + 1
        exchange.query(FULL)
        assert sample(self.snapshot(exchange)[0], parse) == before + 1


class TestAFirstSeenConstantOfAKnownShape:
    """The rewrite cache is keyed by shape: a new constant instantiates the
    shape's template (a rewrite hit) and is evaluated (an answer miss)."""

    SHAPE = "q(X0, X2) :- r1(X0, X1), r2(X1, X2), X1 != %d."
    WATCHED = (
        'repro_cache_events_total{cache="rewrite",outcome="hit"}',
        'repro_cache_events_total{cache="rewrite",outcome="miss"}',
        'repro_cache_events_total{cache="answer",outcome="hit"}',
        'repro_cache_events_total{cache="answer",outcome="miss"}',
        'repro_stage_seconds_count{stage="rewrite_hit"}',
        'repro_stage_seconds_count{stage="rewrite_cold"}',
        'repro_stage_seconds_count{stage="execute"}',
    )

    def moved(self, exchange, text):
        """The reply to ``text`` and what it moved: watched series, session stats."""
        def snapshot():
            metrics = exchange.call("GET", "/metrics").decode()
            return metrics, json.loads(exchange.call("GET", "/stats"))["session"]

        (metrics, stats), reply = snapshot(), exchange.query(text)
        metrics_after, stats_after = snapshot()
        series = tuple(
            int(sample(metrics_after, name) - sample(metrics, name)) for name in self.WATCHED
        )
        caches = {
            cache: (stats_after[cache]["hits"] - stats[cache]["hits"],
                    stats_after[cache]["misses"] - stats[cache]["misses"])
            for cache in ("rewrite_cache", "answer_cache")
        }
        return reply, series, caches

    def flags(self, reply):
        return tuple(reply["provenance"][flag] for flag in HIT_FLAGS)

    def test_hit_flags_rows_and_counters(self, scenario, served):
        workload, _, _ = scenario
        server, exchange = served

        def expected_rows(text):
            rows = evaluate(parse_query(text), workload.database, executor="interpreted")
            return sorted(list(row) for row in rows)

        first, second = self.SHAPE % 3, self.SHAPE % 11
        # First of its shape: the algorithm runs.
        reply, series, caches = self.moved(exchange, first)
        assert self.flags(reply) == (False, False)
        assert series == (0, 1, 0, 1, 0, 1, 1)
        assert caches["rewrite_cache"] == (0, 1)
        # A first-seen constant of that shape and skeleton: a bound-form hit,
        # nothing instantiated, evaluated.
        reply, series, caches = self.moved(exchange, second)
        assert self.flags(reply) == (True, False)
        assert sorted(reply["rows"]) == expected_rows(second) != expected_rows(first)
        assert "X1 != 11" in reply["provenance"]["rewriting"]
        assert series == (1, 0, 0, 1, 1, 0, 1)
        assert caches == {"rewrite_cache": (1, 0), "answer_cache": (0, 1)}
        # The same text again: nothing is instantiated, nothing evaluated.
        reply, series, caches = self.moved(exchange, second)
        assert self.flags(reply) == (True, True)
        assert sorted(reply["rows"]) == expected_rows(second)
        assert series == (1, 0, 1, 0, 1, 0, 0)
        assert caches == {"rewrite_cache": (1, 0), "answer_cache": (1, 0)}

    def test_answers_are_cached_and_evicted_per_constant(self, scenario, served):
        _, left, right = scenario
        server, exchange = served
        texts = [self.SHAPE % constant for constant in (3, 11, 12)]
        for text in texts:
            exchange.query(text)
        session = server.engine.session
        assert len(session._rewrite_cache) == 1 and len(session._answer_cache) == 3
        entries = [cache_entry(server, text) for text in texts]
        assert len({id(entry) for entry in entries}) == 3
        exchange.call("POST", "/apply-delta", {"delta": right[0].to_text()})  # r3/r4
        assert [cache_entry(server, text) for text in texts] == entries
        exchange.call("POST", "/apply-delta", {"delta": left[0].to_text()})   # r1/r2
        assert [cache_entry(server, text) for text in texts] == [None] * 3
        assert len(session._rewrite_cache) == 1  # rewritings do not depend on data
        assert self.flags(exchange.query(texts[1])) == (True, False)
        assert [cache_entry(server, text) is not None for text in texts] == [False, True, False]


class TestConcurrentConnections:
    def test_stress_more_connections_than_cores(self, scenario):
        """Eight keep-alive connections hammer a server whose text memo (8
        entries) is smaller than the working set, under a short switch
        interval: every reply is right and no count is lost."""
        workload, _, _ = scenario
        engine = connect(views=workload.views, data=workload.database.copy(), cache_size=8)
        texts = list(TEXTS) + [
            f"q(X0, X2) :- r1(X0, X1), r2(X1, X2), X0 != {n}." for n in range(12)
        ]
        expected = {
            text: stable(connect(views=workload.views, data=workload.database.copy())
                         .query(text).answers().to_json())
            for text in texts
        }
        per_thread, failures = 60, []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ReproServer(engine, queue_limit=64) as server:
                def client(offset):
                    exchange = Exchange(server)
                    try:
                        for index in range(per_thread):
                            text = texts[(offset * 7 + index) % len(texts)]
                            reply = exchange.query(text)
                            # A follower gets its leader's reply, and the
                            # leader may be a renamed copy: rows are the same.
                            same = (
                                reply["rows"] == expected[text]["rows"]
                                if reply["coalesced"]
                                else stable(reply) == expected[text]
                            )
                            if not same:
                                failures.append(text)
                    except Exception as error:  # reported by the main thread
                        failures.append(repr(error))
                    finally:
                        exchange.close()

                threads = [threading.Thread(target=client, args=(n,)) for n in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                assert not any(thread.is_alive() for thread in threads)
                assert not failures
                assert server._pending == 0 and not server._inflight
                assert len(engine._prepared) <= 8
                registry = server._obs.registry
                served = registry.get("repro_http_requests_total").labels("/query", "ok")
                coalesced = registry.get("repro_server_coalesced_total")
                deadline = time.monotonic() + 10  # counted after the reply is written
                while served.value < 8 * per_thread and time.monotonic() < deadline:
                    time.sleep(0.005)
                assert served.value == 8 * per_thread
                assert engine.queries_served + coalesced.value == 8 * per_thread
        finally:
            sys.setswitchinterval(interval)

    def test_query_reads_the_memos_without_the_lock(self, scenario):
        """``Engine.query`` of 2 000 constants of one skeleton, lock-free, while
        another thread applies deltas and the texts' verbs (under the lock, as
        a front end holds it) fill, evict and count both memos: every reply is
        the fresh engine's and every text is counted exactly once."""
        workload, left, right = scenario
        engine = connect(views=workload.views, data=workload.database.copy(),
                         executor="compiled", cache_size=16)
        lock, failures, done = threading.Lock(), [], threading.Event()
        shape = "q(X0, X2) :- r1(X0, X1), r2(X1, X2), X1 != %d."

        def writer():
            try:
                for delta in [d for pair in zip(left, right) for d in pair]:
                    with lock:
                        engine.apply(delta)
                    time.sleep(0.002)
            except Exception as error:  # reported by the main thread
                failures.append(repr(error))
            finally:
                done.set()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            thread = threading.Thread(target=writer)
            thread.start()
            for constant in range(1000, 3000):
                prepared = engine.query(shape % constant)  # no lock
                with lock:
                    answer = prepared.answers()
                    # Judged against the state this reply was computed on.
                    rows = evaluate(prepared.query, engine.database, executor="interpreted")
                if answer.rows != rows or answer.query != shape % constant:
                    failures.append(constant)
            thread.join(timeout=60)
            assert done.is_set() and not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert not failures
        forms = engine.stats()["session"]["bound_forms"]
        assert (forms["hits"], forms["misses"], forms["size"]) == (1999, 1, 1)
        assert engine.stats()["session"]["rewrite_cache"]["misses"] == 1
        assert len(engine._prepared) == 16


class TestEncodingHoldsNoLock:
    def test_rows_are_encoded_after_the_engine_lock_is_released(self, served, monkeypatch):
        from repro.api.results import Answer

        server, exchange = served
        owned, encode = [], Answer._json_text

        def watched(answer):
            owned.append(server._engine_lock._is_owned())
            return encode(answer)

        monkeypatch.setattr(Answer, "_json_text", watched)
        for text in (FULL, FULL, FILTERED):
            raw = exchange.call("POST", "/query", {"query": text, "trace": True})
            assert raw == json.dumps(json.loads(raw), default=str).encode("utf-8")
        assert owned == [False] * 3
        assert cache_entry(server, FULL).encoded is not None  # still kept on the entry
