"""A threaded HTTP/JSON front end over one :class:`repro.api.Engine`.

Stdlib only (:mod:`socketserver` under a hand-written HTTP/1.1 keep-alive
loop): the container bakes in no web framework, and the engine's work is
CPU-bound Python anyway — what a front end must add is *discipline*, not
parallel compute:

* **Bounded concurrency.**  Every connection has a thread and its POSTs run
  on it start to finish — no pool, no hand-off.  The admission count (POSTs
  admitted, not yet finished) is capped by ``queue_limit`` and exported as
  the ``repro_server_queue_depth`` gauge.  A request arriving above the cap
  is rejected immediately with **503** and a ``Retry-After`` hint — the
  server sheds load instead of queueing unboundedly.
* **In-flight coalescing.**  Identical queries are recognized by their
  canonical fingerprint (:mod:`repro.service.fingerprint` — renaming- and
  subgoal-order-invariant).  While one is being computed, followers wait on
  its future instead of doing duplicate work; ``repro_server_coalesced_total``
  counts the collapsed requests and each follower's response carries
  ``"coalesced": true``.
* **Serialized engine access.**  The engine's caches are not thread-safe, so
  one lock guards every engine verb.  Outside it runs only what touches no
  engine state: framing the request, ``Engine.query`` (a read of the text
  memo, or a pure parse of a first-seen text — so a leader is admitted, and
  found by its followers, while the engine is busy), admission, the write.
  For warm traffic the critical section is two cache lookups and a splice of
  rows encoded when they were first served from the cache.
* **Tracing.**  Every request gets a trace id, echoed in the
  ``X-Repro-Trace-Id`` header and the JSON body.  Requests that reach the
  engine reuse the engine trace's id, so ``engine.trace(trace_id)`` (and
  ``POST /query`` with ``"trace": true``) can return the full span tree.
* **Graceful drain.**  :meth:`ReproServer.shutdown` stops accepting, lets
  admitted work finish, then closes the socket; the CLI wires SIGINT/SIGTERM
  to it so ``repro serve --http`` exits 0 under supervision.

The wire is HTTP/1.1, keep-alive and pipelining, ``Content-Length`` bodies
only, ``Expect: 100-continue`` honoured, one ``sendall`` per reply; a request
that cannot be framed (:func:`_read_request`) gets one 4xx/5xx reply and a close.

Endpoints (all JSON unless noted):

=======================  =====================================================
``POST /query``          ``{"query": str, "trace"?: bool}`` → rows +
                         provenance (rewriting-only when the engine has no
                         base data)
``POST /explain``        ``{"query": str}`` → the explanation tree
                         (``docs/explanation.schema.json``)
``POST /apply-delta``    ``{"delta": str}`` → the change log
``GET /stats``           the full ``engine.stats()`` snapshot
``GET /metrics``         Prometheus text exposition (``text/plain``)
``GET /healthz``         liveness + drain state
=======================  =====================================================
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading
import time
from concurrent.futures import Future
from email.utils import formatdate
from http import HTTPStatus
from typing import Any, BinaryIO, Dict, Optional, Tuple

from repro.errors import ReproError
from repro.api.engine import Engine, PreparedQuery
from repro.obs.trace import _new_trace_id

__all__ = ["ReproServer", "serve_http"]

#: Content type of the Prometheus text exposition format.
METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Seconds a coalesced follower waits on its leader before giving up (500).
DEFAULT_RESULT_TIMEOUT = 120.0

#: Framing limits: bytes per request/header line, header lines, body bytes.
_MAX_LINE = 64 * 1024
_MAX_HEADERS = 100
_MAX_BODY = 16 * 1024 * 1024

#: A POST's work returns the reply object's JSON text short of its closing
#: brace, the engine trace's id and the members to follow ``trace_id``.
_Reply = Tuple[str, Optional[str], str]


class _Overloaded(Exception):
    """Raised when admission control rejects a request (mapped to 503)."""


class _ProtocolError(Exception):
    """``(status, message)``: a request that cannot be framed; one reply, then close."""


class _Listener(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class ReproServer:
    """The HTTP serving layer over one engine; see the module docs.

    Parameters
    ----------
    engine:
        An :class:`repro.api.Engine` opened with observability (the default);
        the server declares its own metric series on the engine's registry so
        one scrape covers both layers.
    host / port:
        Bind address; port 0 picks a free port (read :attr:`port` afterwards).
    queue_limit:
        Maximum admitted-but-unfinished POST requests before 503s.
    """

    def __init__(
        self,
        engine: Engine,
        host: str = "127.0.0.1",
        port: int = 0,
        queue_limit: int = 32,
        result_timeout: float = DEFAULT_RESULT_TIMEOUT,
    ):
        obs = engine.observability
        if obs is None:
            raise ReproError(
                "the HTTP server needs an instrumented engine; open it with "
                "observability=True (the repro.connect default)"
            )
        self._engine = engine
        self._obs = obs
        self.queue_limit = max(1, int(queue_limit))
        self.result_timeout = result_timeout
        self._engine_lock = threading.RLock()
        #: Guards the admission count and the in-flight table; notified when
        #: the count returns to zero (what a drain waits for).
        self._admission = threading.Condition()
        self._pending = 0
        self._inflight: Dict[str, "Future[_Reply]"] = {}
        self._draining = threading.Event()
        self._serve_thread: Optional[threading.Thread] = None
        self._routes = {
            "GET": {
                "/healthz": self._get_healthz,
                "/stats": self._get_stats,
                "/metrics": self._get_metrics,
            },
            "POST": {
                "/query": self._work_query,
                "/explain": self._work_explain,
                "/apply-delta": self._work_apply_delta,
            },
        }
        #: The ``Date`` header, rendered once per second.
        self._date: Tuple[int, str] = (0, "")

        registry = obs.registry
        self._http_requests = registry.counter(
            "repro_http_requests_total",
            "HTTP requests served, by endpoint and outcome.",
            labels=("endpoint", "outcome"),
        ).bound()
        self._http_seconds = registry.histogram(
            "repro_http_request_seconds",
            "Wall-clock seconds from request receipt to response, by endpoint.",
            labels=("endpoint",),
        ).bound()
        self._queue_depth = registry.gauge(
            "repro_server_queue_depth",
            "POST requests admitted and not yet finished.",
        ).labels()
        self._coalesced = registry.counter(
            "repro_server_coalesced_total",
            "Requests that shared an identical in-flight query's result "
            "instead of submitting duplicate work.",
        )
        self._rejections = registry.counter(
            "repro_server_rejected_total",
            "Requests rejected by admission control (queue full or draining).",
        )

        server = self

        class Connection(socketserver.StreamRequestHandler):
            # Keep-alive + Nagle + delayed ACK = ~40ms stalls on small
            # responses; a serving layer measured in milliseconds must not
            # batch segments.
            disable_nagle_algorithm = True

            def handle(self) -> None:
                try:  # this connection's requests, in order, until either side closes
                    while server._serve_request(self.rfile, self.connection):
                        pass
                except OSError:  # reset, or gone before the reply was written
                    pass

        self._httpd = _Listener((host, port), Connection)

    # -- lifecycle -----------------------------------------------------------------
    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def engine(self) -> Engine:
        return self._engine

    def start(self) -> "ReproServer":
        """Serve in a background thread (returns immediately)."""
        if self._serve_thread is not None:
            raise RuntimeError("server already started")
        self._serve_thread = threading.Thread(
            target=self.serve_forever, name="repro-http-accept", daemon=True
        )
        self._serve_thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve until :meth:`shutdown` (blocking)."""
        self._httpd.serve_forever(poll_interval=0.1)

    def shutdown(self) -> None:
        """Graceful drain: stop accepting, finish admitted work, close.
        Idempotent; safe to call from a signal handler thread."""
        if self._draining.is_set():
            return
        self._draining.set()
        self._httpd.shutdown()
        with self._admission:
            while self._pending:
                self._admission.wait()
        self._httpd.server_close()

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def __enter__(self) -> "ReproServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()

    # -- the connection loop -------------------------------------------------------
    def _serve_request(self, rfile: BinaryIO, sock: socket.socket) -> bool:
        """Read one request and reply; False ends the connection."""
        line = rfile.readline(_MAX_LINE + 1)
        while line in (b"\r\n", b"\n"):  # RFC 7230 3.5: tolerate stray CRLFs
            line = rfile.readline(_MAX_LINE + 1)
        if not line:
            return False
        started = time.perf_counter()
        try:
            request = _read_request(line, rfile, sock)
        except _ProtocolError as error:
            status, message = error.args
            trace_id = _new_trace_id()
            kind = HTTPStatus(status).phrase.replace(" ", "")
            reply = _error_json(kind, message, trace_id)
            self._send(sock, status, reply, trace_id, keep_alive=False)
            return False
        if request is None:  # disconnected mid-request
            return False
        method, path, body, keep_alive = request
        handler = self._routes[method].get(path)
        endpoint = path if handler is not None else "unknown"
        try:
            if handler is None:
                outcome, status, trace_id = "not_found", 404, None
                reply = _error_json("NotFound", f"no route {path}")
            elif method == "GET":
                outcome, status, reply, trace_id = "ok", 200, handler(), None
            else:
                outcome, status, reply, trace_id = self._post(handler, body)
        except Exception as error:  # defensive catch-all: reply, keep serving
            outcome, status, trace_id = "error", 500, None
            reply = _error_json("InternalError", str(error))
        try:
            self._send(sock, status, reply, trace_id, keep_alive, path == "/metrics")
        except OSError:
            outcome, keep_alive = "disconnect", False
        self._http_requests[endpoint, outcome].inc()
        self._http_seconds[endpoint].observe(time.perf_counter() - started)
        return keep_alive

    def _send(self, sock: socket.socket, status: int, body: bytes,
              trace_id: Optional[str], keep_alive: bool, metrics: bool = False) -> None:
        """Head and body in one ``sendall``."""
        now = int(time.time())
        if self._date[0] != now:
            self._date = (now, formatdate(now, usegmt=True))
        head = (
            f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\n"
            f"Server: repro\r\nDate: {self._date[1]}\r\n"
            + ("Retry-After: 1\r\n" if status == 503 else "")
            + f"Content-Type: {METRICS_CONTENT_TYPE if metrics else 'application/json'}\r\n"
            + f"Content-Length: {len(body)}\r\n"
            + (f"X-Repro-Trace-Id: {trace_id}\r\n" if trace_id is not None else "")
            + ("\r\n" if keep_alive else "Connection: close\r\n\r\n")
        )
        sock.sendall(head.encode("latin-1") + body)

    # -- GET endpoints -------------------------------------------------------------
    def _get_healthz(self) -> bytes:
        body = {
            "status": "draining" if self.draining else "ok",
            "inflight": self._pending,
        }
        with self._engine_lock:
            storage = self._engine.storage_status()
        if storage is not None:
            # Durable engines surface their WAL position and lag so load
            # balancers can see an unsynced or recovering replica.
            body["storage"] = storage
        return _json_bytes(body)

    def _get_stats(self) -> bytes:
        with self._engine_lock:
            stats = self._engine.stats()
        return _json_bytes(stats)

    def _get_metrics(self) -> bytes:
        with self._engine_lock:
            return self._engine.metrics().encode("utf-8")

    # -- POST endpoints ------------------------------------------------------------
    def _post(self, work: Any, raw: bytes) -> Tuple[str, int, bytes, str]:
        """One POST through ``work``: (outcome, status, reply body, trace id)."""
        try:
            body = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            message = f"request body is not valid JSON: {error}"
            return _failed("client_error", 400, "BadRequest", message)
        try:
            (head, trace_id, tail), coalesced = self._run(work, body)
        except _Overloaded:
            self._rejections.inc()
            return _failed("rejected", 503, "Overloaded", "queue full or draining")
        except ReproError as error:
            return _failed("client_error", 400, type(error).__name__, str(error))
        # Followers share the leader's reply; their own id names this HTTP
        # exchange instead (the leader owns the engine trace).
        if trace_id is None or coalesced:
            trace_id = _new_trace_id()
        flag = "true" if coalesced else "false"
        reply = f'{head}, "trace_id": "{trace_id}"{tail}, "coalesced": {flag}}}'
        return "ok", 200, reply.encode("utf-8"), trace_id

    def _run(self, work: Any, body: Any) -> Tuple[_Reply, bool]:
        """Admission control + coalescing around the work; (reply, was_coalesced)."""
        prepared = key = shared = first_seen = None
        if work == self._work_query:
            # Off the engine lock on purpose: query() touches no engine state.
            # Only /query coalesces (explain is cheap, apply-delta mutates), on
            # the canonical fingerprint, so renamed/reordered copies join too.
            prepared = self._engine.query(_required_field(body, "query"))
            key, first_seen = prepared.coalescing_key()
        with self._admission:
            leader = self._inflight.get(key) if key is not None else None
            if leader is not None:
                self._coalesced.inc()
            elif self.draining or self._pending >= self.queue_limit:
                raise _Overloaded()
            else:
                self._pending += 1
                self._queue_depth.set(self._pending)
                if key is not None:
                    shared = self._inflight[key] = Future()
        if leader is not None:
            return leader.result(timeout=self.result_timeout), True
        if first_seen:
            # Cold work ahead that never releases the GIL: yield once, so
            # copies already on other connections can join as followers.
            time.sleep(0)
        try:
            reply = work(body, prepared)
            if shared is not None:
                shared.set_result(reply)
            return reply, False
        except BaseException as error:
            if shared is not None:
                shared.set_exception(error)
            raise
        finally:
            with self._admission:
                self._pending -= 1
                self._queue_depth.set(self._pending)
                if key is not None:
                    del self._inflight[key]
                if not self._pending:
                    self._admission.notify_all()

    # -- the work (engine lock held, except to encode a /query reply) ----------------
    def _traced(self, inline: bool = False) -> Tuple[Optional[str], str]:
        """The id of the trace of the verb that just ran, and the members
        (``inline``: the trace itself, built for this) to follow it in the
        reply object."""
        tracer = self._obs.tracer
        if not inline:
            return tracer.last_id(), ""
        trace = tracer.last()
        if trace is None:
            return None, ""
        return trace.trace_id, f', "trace": {json.dumps(trace.to_json(), default=str)}'

    def _work_query(self, body: Dict[str, Any], prepared: PreparedQuery) -> _Reply:
        engine = self._engine
        with self._engine_lock:
            answer = prepared.answers() if engine.database is not None else None
            if answer is None:
                best = prepared.rewrite().best
                text = json.dumps({
                    "query": body["query"],
                    "rows": None,
                    "rewriting": str(best.query) if best is not None else None,
                    "kind": best.kind.value if best is not None else None,
                    "cache_hit": engine.last_cache_hit,
                })
            traced = self._traced(inline=bool(body.get("trace")))
        if answer is not None:
            # Off the lock: rows are immutable, and keeping their encoding on
            # the cache entry is an idempotent write.
            text = answer._json_text()
        return (text[:-1], *traced)

    def _work_explain(self, body: Any, prepared: None) -> _Reply:
        text = _required_field(body, "query")
        with self._engine_lock:
            explanation = self._engine.query(text).explain()
            reply = json.dumps({"explanation": explanation.to_json()}, default=str)
            return (reply[:-1], *self._traced())

    def _work_apply_delta(self, body: Any, prepared: None) -> _Reply:
        text = _required_field(body, "delta")
        with self._engine_lock:
            log = self._engine.apply(text)
            return (json.dumps({"changelog": log.to_dict()}, default=str)[:-1], *self._traced())


# -- plumbing ----------------------------------------------------------------------
def _read_request(
    line: bytes, rfile: BinaryIO, sock: socket.socket
) -> Optional[Tuple[str, str, bytes, bool]]:
    """Frame the request that starts with ``line``: ``(method, path, body,
    keep_alive)``, or None when the client went away before it was complete."""
    if len(line) > _MAX_LINE:
        raise _ProtocolError(431, "request line too long")
    words = line.split()
    if len(words) != 3 or not words[2].startswith(b"HTTP/"):
        raise _ProtocolError(400, "malformed request line")
    method, target, version = words
    if version not in (b"HTTP/1.1", b"HTTP/1.0"):
        raise _ProtocolError(505, "only HTTP/1.0 and HTTP/1.1 are spoken here")
    if method not in (b"GET", b"POST"):
        raise _ProtocolError(405, "only GET and POST are served")
    headers: Dict[bytes, bytes] = {}
    for _ in range(_MAX_HEADERS + 1):
        line = rfile.readline(_MAX_LINE + 1)
        if line in (b"\r\n", b"\n"):
            break
        if not line:
            return None
        if len(line) > _MAX_LINE:
            raise _ProtocolError(431, "header line too long")
        name, colon, value = line.partition(b":")
        if not colon or not name or name != name.strip():
            raise _ProtocolError(400, "malformed header line")
        headers[name.lower()] = value.strip()
    else:
        raise _ProtocolError(431, f"more than {_MAX_HEADERS} headers")
    if b"transfer-encoding" in headers:
        raise _ProtocolError(411, "Transfer-Encoding is not supported; send Content-Length")
    length = headers.get(b"content-length", b"" if method == b"POST" else b"0")
    # isdigit() refuses signs, spaces and underscores; 8 digits hold the cap.
    size = int(length) if length.isdigit() and len(length) <= 8 else -1
    if not 0 <= size <= _MAX_BODY:
        got = length.decode("latin-1")[:40]
        raise _ProtocolError(400, f"Content-Length must be 0..{_MAX_BODY}, got {got!r}")
    if size and headers.get(b"expect", b"").lower() == b"100-continue":
        sock.sendall(b"HTTP/1.1 100 Continue\r\n\r\n")
    body = rfile.read(size) if size else b""
    if len(body) < size:
        return None
    closing = version == b"HTTP/1.0" or b"close" in headers.get(b"connection", b"").lower()
    path = target.split(b"?", 1)[0].decode("latin-1")
    return method.decode("latin-1"), path, body, not closing


def _json_bytes(payload: Any) -> bytes:
    return json.dumps(payload, default=str).encode("utf-8")


def _failed(
    outcome: str, status: int, error_type: str, message: str
) -> Tuple[str, int, bytes, str]:
    """A POST that got no engine reply, under a trace id of its own."""
    trace_id = _new_trace_id()
    return outcome, status, _error_json(error_type, message, trace_id), trace_id


def _error_json(error_type: str, message: str, trace_id: Optional[str] = None) -> bytes:
    body: Dict[str, Any] = {"error": {"type": error_type, "message": message}}
    if trace_id is not None:
        body["trace_id"] = trace_id
    return _json_bytes(body)


def _required_field(body: Any, field: str) -> str:
    if not isinstance(body, dict) or not isinstance(body.get(field), str):
        raise ReproError(f"request body must be a JSON object with a {field!r} string")
    return body[field]


def serve_http(
    engine: Engine, host: str = "127.0.0.1", port: int = 0, queue_limit: int = 32,
) -> ReproServer:
    """Start a :class:`ReproServer` in the background and return it."""
    return ReproServer(engine, host, port, queue_limit).start()
