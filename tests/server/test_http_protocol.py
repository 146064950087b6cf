"""The wire contract of :mod:`repro.server`, over raw sockets.

The server frames HTTP/1.1 itself (no stdlib request parser stands between
the socket and it), so everything a client may do to a connection is pinned
here: reuse, pipelining, dribbled bytes, ``Connection: close``, HTTP/1.0,
``Expect: 100-continue``, and every way a request can fail to frame.  After
each malformed request a fresh connection must still get a correct reply.
"""

import json
import socket
import threading
import time

import pytest

from repro import connect
from repro.server import ReproServer

VIEWS = "v_rs(A, B) :- r(A, C), s(C, B)."
DATA = "r(1, 2). r(3, 4). s(2, 5). s(4, 6)."
QUERY = "q(X, Z) :- r(X, Y), s(Y, Z)."
ROWS = [[1, 5], [3, 6]]


@pytest.fixture()
def server():
    with ReproServer(connect(views=VIEWS, data=DATA)) as running:
        yield running


def post_bytes(path, payload, extra=b"", version=b"HTTP/1.1"):
    body = json.dumps(payload).encode("utf-8")
    head = b"POST %s %s\r\nHost: t\r\nContent-Length: %d\r\n%s\r\n" % (
        path.encode(), version, len(body), extra
    )
    return head + body


QUERY_BYTES = post_bytes("/query", {"query": QUERY})


class Client:
    """A socket plus just enough HTTP to read replies off it."""

    def __init__(self, server):
        self.sock = socket.create_connection((server.host, server.port), timeout=10)
        self.buffer = b""

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.sock.close()

    def send(self, data):
        self.sock.sendall(data)

    def _fill(self):
        chunk = self.sock.recv(65536)
        if not chunk:
            raise EOFError("server closed the connection")
        self.buffer += chunk

    def reply(self):
        """The next reply: (status, lower-cased headers, body bytes)."""
        while b"\r\n\r\n" not in self.buffer:
            self._fill()
        head, _, self.buffer = self.buffer.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", 0))
        while len(self.buffer) < length:
            self._fill()
        body, self.buffer = self.buffer[:length], self.buffer[length:]
        return status, headers, body

    def closed(self):
        """Whether the server has closed its side (EOF, nothing buffered)."""
        if self.buffer:
            return False
        self.sock.settimeout(5)
        try:
            return self.sock.recv(1) == b""
        except ConnectionResetError:
            return True


def wait_until(condition, message, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, message
        time.sleep(0.005)


def assert_still_serving(server):
    with Client(server) as fresh:
        fresh.send(QUERY_BYTES)
        status, _, body = fresh.reply()
    assert status == 200
    assert sorted(json.loads(body)["rows"]) == ROWS


class TestKeepAlive:
    def test_one_connection_serves_a_hundred_requests(self, server):
        with Client(server) as client:
            trace_ids = set()
            for _ in range(100):
                client.send(QUERY_BYTES)
                status, headers, body = client.reply()
                assert status == 200
                assert "connection" not in headers
                payload = json.loads(body)
                assert sorted(payload["rows"]) == ROWS
                assert headers["x-repro-trace-id"] == payload["trace_id"]
                trace_ids.add(payload["trace_id"])
        assert len(trace_ids) == 100

    def test_reply_headers(self, server):
        with Client(server) as client:
            client.send(QUERY_BYTES)
            _, headers, body = client.reply()
        assert headers["server"]
        assert headers["date"].endswith("GMT")
        assert headers["content-type"] == "application/json"
        assert int(headers["content-length"]) == len(body)

    def test_two_pipelined_requests_in_one_segment(self, server):
        with Client(server) as client:
            client.send(QUERY_BYTES + b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            first, second = client.reply(), client.reply()
        assert first[0] == 200 and sorted(json.loads(first[2])["rows"]) == ROWS
        assert second[0] == 200 and json.loads(second[2])["status"] == "ok"

    def test_request_delivered_one_byte_at_a_time(self, server):
        with Client(server) as client:
            client.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for index in range(len(QUERY_BYTES)):
                client.send(QUERY_BYTES[index:index + 1])
            status, _, body = client.reply()
        assert status == 200 and sorted(json.loads(body)["rows"]) == ROWS

    def test_stray_crlf_between_requests_is_ignored(self, server):
        with Client(server) as client:
            client.send(b"\r\n" + QUERY_BYTES + b"\r\n" + QUERY_BYTES)
            assert client.reply()[0] == 200
            assert client.reply()[0] == 200

    def test_connection_close_is_honoured_and_echoed(self, server):
        with Client(server) as client:
            client.send(post_bytes("/query", {"query": QUERY}, b"Connection: close\r\n"))
            status, headers, _ = client.reply()
            assert status == 200
            assert headers["connection"] == "close"
            assert client.closed()

    def test_http_1_0_closes_by_default(self, server):
        with Client(server) as client:
            client.send(post_bytes("/query", {"query": QUERY}, version=b"HTTP/1.0"))
            status, headers, body = client.reply()
            assert status == 200 and sorted(json.loads(body)["rows"]) == ROWS
            assert headers["connection"] == "close"
            assert client.closed()

    def test_expect_100_continue_is_answered_before_the_body(self, server):
        payload = json.dumps({"query": QUERY, "padding": "x" * 2000}).encode()
        with Client(server) as client:
            client.send(
                b"POST /query HTTP/1.1\r\nHost: t\r\nExpect: 100-continue\r\n"
                b"Content-Length: %d\r\n\r\n" % len(payload)
            )
            status, _, body = client.reply()  # arrives with no body byte sent
            assert (status, body) == (100, b"")
            client.send(payload)
            status, _, body = client.reply()
        assert status == 200 and sorted(json.loads(body)["rows"]) == ROWS

    def test_get_with_a_body_keeps_the_connection_in_step(self, server):
        with Client(server) as client:
            client.send(b"GET /healthz HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello" + QUERY_BYTES)
            assert client.reply()[0] == 200
            assert client.reply()[0] == 200


def _request(line=b"POST /query HTTP/1.1", headers=b"", body=b""):
    return line + b"\r\n" + headers + b"\r\n" + body


MALFORMED = {
    "missing content-length": (_request(), 400),
    "negative content-length": (_request(headers=b"Content-Length: -1\r\n"), 400),
    "non-numeric content-length": (_request(headers=b"Content-Length: ten\r\n"), 400),
    "signed content-length": (_request(headers=b"Content-Length: +5\r\n"), 400),
    "content-length over 16 MiB": (
        _request(headers=b"Content-Length: %d\r\n" % (16 * 1024 * 1024 + 1)), 400),
    "content-length of 5000 digits": (
        _request(headers=b"Content-Length: " + b"9" * 5000 + b"\r\n"), 400),
    "chunked transfer-encoding": (
        _request(headers=b"Transfer-Encoding: chunked\r\n", body=b"0\r\n\r\n"), 411),
    "a line over 64 KiB": (
        _request(line=b"GET /" + b"a" * (200 * 1024) + b" HTTP/1.1"), 431),
    "a header over 64 KiB": (
        _request(headers=b"X-Big: " + b"a" * (70 * 1024) + b"\r\n"), 431),
    "more than 100 headers": (
        _request(headers=b"".join(b"X-%d: v\r\n" % i for i in range(101))), 431),
    "garbage request line": (b"garbage\r\n\r\n", 400),
    "two-word request line": (b"GET /healthz\r\n\r\n", 400),
    "not http": (b"GET /healthz SPDY/3\r\n\r\n", 400),
    "http/2 preface": (b"PRI * HTTP/2.0\r\n\r\n", 505),
    "header without a colon": (_request(headers=b"no colon here\r\n"), 400),
    "folded header": (_request(headers=b"X-A: 1\r\n  folded\r\n"), 400),
    "unknown method": (b"DELETE /query HTTP/1.1\r\nHost: t\r\n\r\n", 405),
}


class TestMalformedRequests:
    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_one_error_reply_then_close(self, server, name):
        wire, expected = MALFORMED[name]
        with Client(server) as client:
            client.send(wire)
            status, headers, body = client.reply()
            assert status == expected
            assert headers["connection"] == "close"
            error = json.loads(body)
            assert error["error"]["message"]
            assert headers["x-repro-trace-id"] == error["trace_id"]
            assert client.closed()
        assert_still_serving(server)

    def test_exactly_100_headers_are_fine(self, server):
        extra = b"".join(b"X-%d: v\r\n" % i for i in range(98))  # + Host, Content-Length
        with Client(server) as client:
            client.send(post_bytes("/query", {"query": QUERY}, extra))
            assert client.reply()[0] == 200

    def test_bad_json_body_keeps_the_connection(self, server):
        with Client(server) as client:
            client.send(_request(headers=b"Content-Length: 9\r\n", body=b"{not json"))
            status, _, body = client.reply()
            assert status == 400 and json.loads(body)["error"]["type"] == "BadRequest"
            client.send(QUERY_BYTES)
            assert client.reply()[0] == 200


class TestDisconnects:
    def _connection_threads(self):
        return [t for t in threading.enumerate() if "process_request_thread" in t.name]

    def test_disconnect_mid_body_leaves_nothing_behind(self, server):
        before = len(self._connection_threads())
        for cut in (b"POST /query HT", QUERY_BYTES[:-10], QUERY_BYTES.split(b"\r\n\r\n")[0]):
            client = Client(server)
            client.send(cut)
            client.sock.close()
        wait_until(lambda: len(self._connection_threads()) <= before,
                   "a connection thread outlived its client")
        assert server._pending == 0 and not server._inflight
        assert server._obs.registry.get("repro_server_queue_depth").value == 0
        assert_still_serving(server)

    def test_disconnect_before_the_reply_is_read(self, server):
        client = Client(server)
        with server._engine_lock:  # the reply cannot be written before we are gone
            client.send(QUERY_BYTES)
            wait_until(lambda: server._inflight, "request never admitted")
            client.sock.close()
        wait_until(lambda: not server._pending, "admission count never returned to zero")
        assert_still_serving(server)
