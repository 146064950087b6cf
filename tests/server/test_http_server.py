"""Behavioural tests for the HTTP serving layer (:mod:`repro.server`).

Every test runs a real :class:`ReproServer` on a loopback port and talks to
it with :mod:`http.client` — the contract under test is the wire contract.
Concurrency tests make the timing deterministic by holding the server's
engine lock from the test thread: workers block at a known point, so
coalescing and backpressure can be observed without sleeps-and-hope.
"""

import http.client
import json
import threading
import time

import pytest

from repro import connect
from repro.errors import ReproError
from repro.server import METRICS_CONTENT_TYPE, ReproServer, serve_http

VIEWS = """
v_rs(A, B) :- r(A, C), s(C, B).
v_r(A, B) :- r(A, B).
v_s(A, B) :- s(A, B).
"""
DATA = "r(1, 2). r(3, 4). s(2, 5). s(4, 6)."
QUERY = "q(X, Z) :- r(X, Y), s(Y, Z)."
OTHER_QUERY = "q2(A, B) :- r(A, B)."


def request(server, method, path, body=None, raw=None):
    """One HTTP exchange; returns (status, decoded payload, headers)."""
    conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        if raw is None:
            data = None if body is None else json.dumps(body).encode("utf-8")
        else:
            data = raw
        headers = {"Content-Type": "application/json"} if data is not None else {}
        conn.request(method, path, data, headers)
        response = conn.getresponse()
        content = response.read()
        response_headers = dict(response.getheaders())
        try:
            payload = json.loads(content)
        except (ValueError, UnicodeDecodeError):
            payload = content.decode("utf-8", "replace")
        return response.status, payload, response_headers
    finally:
        conn.close()


def wait_until(condition, timeout=10.0, message="condition not met"):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, message
        time.sleep(0.005)


@pytest.fixture()
def server():
    engine = connect(views=VIEWS, data=DATA)
    with ReproServer(engine) as running:
        yield running


class TestLifecycle:
    def test_uninstrumented_engine_is_rejected(self):
        engine = connect(views=VIEWS, data=DATA, observability=False)
        with pytest.raises(ReproError, match="observability"):
            ReproServer(engine)

    def test_workers_is_not_a_parameter(self, server):
        engine = connect(views=VIEWS, data=DATA)
        with pytest.raises(TypeError):
            ReproServer(engine, workers=2)
        assert not hasattr(server, "workers")

    def test_port_zero_picks_a_free_port(self, server):
        assert server.port != 0
        assert server.address == f"http://{server.host}:{server.port}"

    def test_double_start_raises(self, server):
        with pytest.raises(RuntimeError, match="already started"):
            server.start()

    def test_shutdown_is_idempotent(self):
        engine = connect(views=VIEWS, data=DATA)
        running = ReproServer(engine).start()
        running.shutdown()
        assert running.draining
        running.shutdown()  # second call is a no-op, not an error

    def test_serve_http_starts_in_the_background(self):
        engine = connect(views=VIEWS, data=DATA)
        running = serve_http(engine)
        try:
            status, payload, _ = request(running, "GET", "/healthz")
            assert status == 200 and payload["status"] == "ok"
        finally:
            running.shutdown()


class TestGetEndpoints:
    def test_healthz(self, server):
        status, payload, _ = request(server, "GET", "/healthz")
        assert status == 200
        assert payload == {"status": "ok", "inflight": 0}

    def test_stats_mirrors_engine_stats(self, server):
        status, payload, _ = request(server, "GET", "/stats")
        assert status == 200
        assert "session" in payload
        assert "catalog" in payload
        assert "global.containment_memo" in payload["session"]
        assert payload["session"]["metrics"] is not None

    def test_metrics_exposition(self, server):
        status, payload, _ = request(server, "POST", "/query", {"query": QUERY})
        assert status == 200
        # The server counts a request after writing its response (the latency
        # histogram includes the write), so a scrape on a fresh connection can
        # get ahead of the count: poll until the /query request shows.
        counted = 'repro_http_requests_total{endpoint="/query",outcome="ok"} 1'
        wait_until(
            lambda: counted in request(server, "GET", "/metrics")[1],
            message="/query request never counted",
        )
        status, text, headers = request(server, "GET", "/metrics")
        assert status == 200
        assert headers["Content-Type"] == METRICS_CONTENT_TYPE
        assert "# TYPE repro_http_requests_total counter" in text
        assert "# TYPE repro_http_request_seconds histogram" in text
        assert "# TYPE repro_requests_total counter" in text  # the engine's series

    def test_unknown_get_route_is_404(self, server):
        status, payload, _ = request(server, "GET", "/nope")
        assert status == 404
        assert payload["error"]["type"] == "NotFound"


class TestQueryEndpoint:
    def test_answers_with_trace_id(self, server):
        status, payload, headers = request(server, "POST", "/query", {"query": QUERY})
        assert status == 200
        assert sorted(payload["rows"]) == [[1, 5], [3, 6]]
        assert payload["coalesced"] is False
        assert payload["trace_id"]
        assert headers["X-Repro-Trace-Id"] == payload["trace_id"]

    def test_trace_id_addresses_the_engine_trace(self, server):
        _, payload, _ = request(server, "POST", "/query", {"query": QUERY})
        trace = server.engine.trace(payload["trace_id"])
        assert trace is not None
        assert trace.name == "query"

    def test_inline_trace_on_request(self, server):
        _, payload, _ = request(
            server, "POST", "/query", {"query": QUERY, "trace": True}
        )
        assert payload["trace"]["trace_id"] == payload["trace_id"]
        assert payload["trace"]["root"]["name"] == "query"

    def test_rewriting_only_engine_returns_the_rewriting(self):
        engine = connect(views=VIEWS)  # no database
        with ReproServer(engine) as running:
            status, payload, _ = request(running, "POST", "/query", {"query": QUERY})
        assert status == 200
        assert payload["rows"] is None
        assert "v_rs" in payload["rewriting"]
        assert payload["kind"] == "equivalent"

    def test_malformed_json_body_is_400(self, server):
        status, payload, _ = request(server, "POST", "/query", raw=b"{not json")
        assert status == 400
        assert payload["error"]["type"] == "BadRequest"
        assert payload["trace_id"]

    def test_missing_query_field_is_400(self, server):
        status, payload, _ = request(server, "POST", "/query", {"q": QUERY})
        assert status == 400
        assert "'query'" in payload["error"]["message"]

    def test_engine_errors_map_to_400_with_type(self, server):
        status, payload, _ = request(
            server, "POST", "/query", {"query": "q(X :- broken"}
        )
        assert status == 400
        assert payload["error"]["type"] == "ParseError"

    def test_unknown_post_route_is_404(self, server):
        status, payload, _ = request(server, "POST", "/nope", {"query": QUERY})
        assert status == 404
        assert payload["error"]["type"] == "NotFound"


class TestExplainAndDelta:
    def test_explain_returns_the_decision_tree(self, server):
        status, payload, _ = request(server, "POST", "/explain", {"query": QUERY})
        assert status == 200
        assert payload["explanation"]["rewriting"]["chosen"] is not None

    def test_apply_delta_returns_the_changelog(self, server):
        status, payload, _ = request(
            server, "POST", "/apply-delta", {"delta": "+ r(7, 2)."}
        )
        assert status == 200
        assert "changelog" in payload
        status, payload, _ = request(server, "POST", "/query", {"query": QUERY})
        assert [7, 5] in payload["rows"]

    def test_delta_requires_the_delta_field(self, server):
        status, payload, _ = request(server, "POST", "/apply-delta", {"query": QUERY})
        assert status == 400
        assert "'delta'" in payload["error"]["message"]


def _post_in_thread(server, path, body, results):
    def work():
        results.append(request(server, "POST", path, body))

    thread = threading.Thread(target=work, daemon=True)
    thread.start()
    return thread


class TestCoalescing:
    def test_identical_inflight_queries_share_one_execution(self, server):
        followers = 3
        results = []
        renamed = "q(U, W) :- r(U, V), s(V, W)."  # same fingerprint as QUERY
        with server._engine_lock:  # workers block here at a known point
            threads = [_post_in_thread(server, "/query", {"query": QUERY}, results)]
            wait_until(lambda: server._inflight, message="leader never admitted")
            coalesced = server._obs.registry.get("repro_server_coalesced_total")
            for _ in range(followers):
                threads.append(
                    _post_in_thread(server, "/query", {"query": renamed}, results)
                )
            wait_until(
                lambda: coalesced.value >= followers,
                message="followers never coalesced",
            )
        for thread in threads:
            thread.join(timeout=30)
        assert len(results) == followers + 1
        assert all(status == 200 for status, _, _ in results)
        rows = [sorted(payload["rows"]) for _, payload, _ in results]
        assert rows == [[[1, 5], [3, 6]]] * (followers + 1)
        flags = sorted(payload["coalesced"] for _, payload, _ in results)
        assert flags == [False] + [True] * followers
        assert coalesced.value == followers

    def test_coalesced_followers_get_their_own_trace_ids(self, server):
        results = []
        with server._engine_lock:
            threads = [_post_in_thread(server, "/query", {"query": QUERY}, results)]
            wait_until(lambda: server._inflight, message="leader never admitted")
            coalesced = server._obs.registry.get("repro_server_coalesced_total")
            threads.append(_post_in_thread(server, "/query", {"query": QUERY}, results))
            wait_until(lambda: coalesced.value >= 1, message="follower never coalesced")
        for thread in threads:
            thread.join(timeout=30)
        trace_ids = {payload["trace_id"] for _, payload, _ in results}
        assert len(trace_ids) == 2  # leader's engine trace vs follower's HTTP id
        for _, payload, headers in results:
            assert headers["X-Repro-Trace-Id"] == payload["trace_id"]
            # Only the leader's id names a trace the engine recorded.
            recorded = server.engine.trace(payload["trace_id"]) is not None
            assert recorded is not payload["coalesced"]

    def test_different_queries_do_not_coalesce(self, server):
        results = []
        with server._engine_lock:
            threads = [
                _post_in_thread(server, "/query", {"query": QUERY}, results),
                _post_in_thread(server, "/query", {"query": OTHER_QUERY}, results),
            ]
            wait_until(
                lambda: len(server._inflight) == 2,
                message="second query never admitted separately",
            )
        for thread in threads:
            thread.join(timeout=30)
        assert all(payload["coalesced"] is False for _, payload, _ in results)


class TestExecutorInvariance:
    def test_concurrent_coalesced_results_are_executor_invariant(self):
        """HTTP query results are identical when concurrent identical
        requests coalesce onto one run."""
        engine = connect(views=VIEWS, data=DATA)
        followers = 2
        results = []
        renamed = "q(U, W) :- r(U, V), s(V, W)."  # same fingerprint as QUERY
        with ReproServer(engine) as server:
            with server._engine_lock:  # workers block here at a known point
                threads = [_post_in_thread(server, "/query", {"query": QUERY}, results)]
                wait_until(lambda: server._inflight, message="leader never admitted")
                coalesced = server._obs.registry.get("repro_server_coalesced_total")
                for _ in range(followers):
                    threads.append(
                        _post_in_thread(server, "/query", {"query": renamed}, results)
                    )
                wait_until(
                    lambda: coalesced.value >= followers,
                    message="followers never coalesced",
                )
            for thread in threads:
                thread.join(timeout=30)
        assert all(status == 200 for status, _, _ in results)
        # The invariant across the executor parametrization: every response
        # (leader and coalesced followers alike) carries exactly these rows.
        assert [sorted(payload["rows"]) for _, payload, _ in results] == [
            [[1, 5], [3, 6]]
        ] * (followers + 1)
        assert sorted(payload["coalesced"] for _, payload, _ in results) == [
            False,
            True,
            True,
        ]


class TestBackpressure:
    def test_admission_above_queue_limit_is_503(self):
        engine = connect(views=VIEWS, data=DATA)
        results = []
        with ReproServer(engine, queue_limit=1) as running:
            with running._engine_lock:  # the one admitted worker blocks here
                thread = _post_in_thread(running, "/query", {"query": QUERY}, results)
                wait_until(lambda: running._inflight, message="first never admitted")
                status, payload, headers = request(
                    running, "POST", "/query", {"query": OTHER_QUERY}
                )
                assert status == 503
                assert payload["error"]["type"] == "Overloaded"
                assert headers["Retry-After"] == "1"
            thread.join(timeout=30)
        # The admitted request still completed normally after the lock freed.
        assert results[0][0] == 200
        rejected = running._obs.registry.get("repro_server_rejected_total")
        assert rejected.value == 1

    def test_queue_depth_gauge_returns_to_zero(self, server):
        request(server, "POST", "/query", {"query": QUERY})
        depth = server._obs.registry.get("repro_server_queue_depth")
        assert depth.value == 0
