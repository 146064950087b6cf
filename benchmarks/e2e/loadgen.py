"""The load generator: one process, a few keep-alive ``TCP_NODELAY`` connections.

Requests are pre-encoded to bytes and responses are parsed by hand, so the
generator spends its core on sockets rather than on ``http.client`` — on a
two-core host the server owns the other core and the generator must not be
what saturates.

Two disciplines, one per phase (see README "Phases"):

* :func:`closed_loop` — every connection sends its next request as soon as
  the previous reply arrived.  Gives throughput; its latencies are just
  connections ÷ throughput and are not reported.
* :func:`paced` — every connection follows an absolute send schedule at a
  fixed rate and times each request **from when it was due**, so a stall
  charges the requests queued behind it.  Gives latency.

Each connection owns a static share of the request list (request ``i`` goes
to connection ``i mod n``), which keeps a delta stream in order when the
caller places all writes on one connection.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

#: Seconds one request may take before it counts as failed.
REQUEST_TIMEOUT = 30.0


@dataclass(frozen=True)
class Request:
    """One pre-encoded HTTP request."""

    kind: str  # "read" | "write" | "get"
    wire: bytes
    #: Index into the workload's template list (reads) or delta stream (writes).
    ref: int = -1


def encode_post(path: str, payload: dict, kind: str, ref: int = -1) -> Request:
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    head = (
        f"POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode("ascii")
    return Request(kind, head + body, ref)


def encode_get(path: str) -> Request:
    return Request("get", f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n".encode("ascii"))


def query_request(text: str, ref: int = -1) -> Request:
    return encode_post("/query", {"query": text}, "read", ref)


def delta_request(text: str, ref: int = -1) -> Request:
    return encode_post("/apply-delta", {"delta": text}, "write", ref)


class Connection:
    """A keep-alive HTTP/1.1 connection over a raw socket."""

    def __init__(self, host: str, port: int):
        self._sock = socket.create_connection((host, port), timeout=REQUEST_TIMEOUT)
        # Nagle + delayed ACK stalls small request/response pairs ~40 ms.
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = b""

    def close(self) -> None:
        self._sock.close()

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def roundtrip(self, request: Request) -> Tuple[int, bytes]:
        """Send one request; return ``(status, body)``.

        Raises ``OSError`` (incl. ``socket.timeout``) or ``ValueError`` on a
        broken exchange; the callers count those as failed requests.
        """
        self._sock.sendall(request.wire)
        buffer = self._buffer
        while True:
            end = buffer.find(b"\r\n\r\n")
            if end >= 0:
                break
            chunk = self._sock.recv(65536)
            if not chunk:
                raise ValueError("connection closed mid-response")
            buffer += chunk
        head = buffer[:end].decode("latin-1")
        status = int(head.split(" ", 2)[1])
        length = None
        for line in head.split("\r\n")[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        if length is None:
            raise ValueError("response without Content-Length")
        body_start = end + 4
        while len(buffer) - body_start < length:
            chunk = self._sock.recv(max(65536, length))
            if not chunk:
                raise ValueError("connection closed mid-body")
            buffer += chunk
        self._buffer = buffer[body_start + length:]
        return status, buffer[body_start:body_start + length]

    def json(self, request: Request) -> dict:
        """Round-trip that must succeed (set-up, stats scrapes, oracle reads)."""
        status, body = self.roundtrip(request)
        if status != 200:
            raise ValueError(f"HTTP {status}: {body[:300]!r}")
        return json.loads(body)


@dataclass
class Sample:
    """One attempted request of a timed phase."""

    kind: str
    ref: int
    #: Position of the request in the phase's request list.
    index: int
    #: Seconds since phase start at which the request was sent (closed loop)
    #: or was due (paced).
    at: float
    #: Seconds from ``at`` to the last response byte; None when it failed.
    latency: Optional[float]
    #: How late the send left relative to ``at`` (paced only).
    lag: float = 0.0
    nbytes: int = 0
    #: The raw body, kept only for requests the caller asked to retain.
    body: Optional[bytes] = None


@dataclass
class PhaseResult:
    samples: List[Sample] = field(default_factory=list)
    #: ``perf_counter`` at the start of the phase; ``Sample.at`` counts from it.
    origin: float = 0.0
    #: The phase's nominal length.
    seconds: float = 0.0
    #: Seconds until the last connection finished.
    wall: float = 0.0
    #: Load-generator CPU seconds ÷ wall seconds over the phase.
    cpu_share: float = 0.0

    def of_kind(self, kind: str) -> List[Sample]:
        return [s for s in self.samples if s.kind == kind]

    @property
    def attempted(self) -> int:
        return len(self.samples)

    @property
    def failed(self) -> int:
        return sum(1 for s in self.samples if s.latency is None)


def _drive(
    host: str,
    port: int,
    requests: Sequence[Request],
    connections: int,
    seconds: float,
    interval: Optional[float],
    keep_every: int,
) -> PhaseResult:
    """Run one phase; ``interval`` None means closed loop, else seconds per send."""
    shares = [list(requests[i::connections]) for i in range(connections)]
    outputs: List[List[Sample]] = [[] for _ in range(connections)]
    start_gate = threading.Barrier(connections + 1)
    origin = [0.0]

    def client(index: int) -> None:
        mine, out = shares[index], outputs[index]
        with Connection(host, port) as connection:
            start_gate.wait()
            start = origin[0]
            deadline = start + seconds
            # Paced connections are phase-shifted so sends interleave evenly.
            step = interval * connections if interval is not None else 0.0
            offset = interval * index if interval is not None else 0.0
            for position, request in enumerate(mine):
                if interval is None:
                    due = time.perf_counter()
                    if due >= deadline:
                        break
                    sent = due
                else:
                    due = start + offset + position * step
                    if due >= deadline:
                        break
                    delay = due - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                    sent = time.perf_counter()
                try:
                    status, body = connection.roundtrip(request)
                except (OSError, ValueError):
                    out.append(Sample(request.kind, request.ref, position * connections + index,
                                      due - start, None))
                    return  # the connection is unusable; the rest go unsent
                done = time.perf_counter()
                keep = keep_every and position % keep_every == 0
                out.append(
                    Sample(
                        request.kind,
                        request.ref,
                        position * connections + index,
                        due - start,
                        (done - due) if status == 200 else None,
                        lag=sent - due,
                        nbytes=len(body),
                        body=body if keep else None,
                    )
                )

    threads = [
        threading.Thread(target=client, args=(i,), name=f"loadgen-{i}", daemon=True)
        for i in range(connections)
    ]
    for thread in threads:
        thread.start()
    cpu_before = time.process_time()
    origin[0] = time.perf_counter() + 0.01
    start_gate.wait()
    for thread in threads:
        thread.join(seconds + 2 * REQUEST_TIMEOUT)
        if thread.is_alive():
            raise TimeoutError("a load-generator connection did not finish")
    ended = time.perf_counter()
    result = PhaseResult(origin=origin[0], seconds=seconds, wall=ended - origin[0])
    result.cpu_share = (time.process_time() - cpu_before) / max(result.wall, 1e-9)
    for out in outputs:
        result.samples.extend(out)
    result.samples.sort(key=lambda s: s.at)
    return result


def closed_loop(
    host: str,
    port: int,
    requests: Sequence[Request],
    connections: int,
    seconds: float,
    keep_every: int = 0,
) -> PhaseResult:
    """Back-to-back sends on every connection until ``seconds`` elapse."""
    return _drive(host, port, requests, connections, seconds, None, keep_every)


def paced(
    host: str,
    port: int,
    requests: Sequence[Request],
    connections: int,
    seconds: float,
    rate: float,
    keep_every: int = 0,
) -> PhaseResult:
    """Open loop at ``rate`` requests per second in total, for ``seconds``."""
    return _drive(host, port, requests, connections, seconds, 1.0 / rate, keep_every)
