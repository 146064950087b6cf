"""Lightweight request tracing: flat records, span trees built when read.

A :class:`Trace` is one request's tree of :class:`Span`\\ s.  The engine opens
a trace per verb (``query`` / ``rewrite`` / ``explain`` / ``apply``), the
instrumented layers below record the stages they run (rewrite cold/hit,
execute, delta apply), and the tree serializes to JSON
(``docs/trace.schema.json``) for the server to echo back to clients.

While it runs, and in the ring of finished traces, a trace is a flat record:
its id, its verb, and one ``(name, start, end, annotations, depth)`` entry
per span, in start order.  A stage is entered once, when it ends, from the
two :func:`time.perf_counter` readings its hook site took (:meth:`Tracer.add`);
a span that can hold others (a nested verb, :meth:`Tracer.span`) is entered
when it opens and closed by :meth:`Tracer.exit`.  The :class:`Span` tree is
built only when something reads the trace, once.

Timings are monotonic, so span durations are immune to wall-clock
adjustments; the trace additionally records one wall timestamp at its start
so traces can be correlated with logs.

The :class:`Tracer` is thread-safe in the way a threaded server needs: the
*open* record is thread-local (two worker threads never splice spans into
each other's traces), while the bounded ring of finished records is shared
and lock-guarded.  With no open trace a stage adds no span, so layers can
instrument unconditionally.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

__all__ = ["Span", "Trace", "Tracer"]

#: Traces kept in the tracer's finished-ring by default.
DEFAULT_KEEP = 64

_trace_counter = itertools.count(1)
_trace_prefix = ""
_ID_FORMAT = "%s-%06d"


def _draw_trace_prefix() -> None:
    """Draw this process's 8 random hex chars (again in every forked child)."""
    global _trace_prefix
    _trace_prefix = os.urandom(4).hex()


_draw_trace_prefix()
# A forked worker inherits the counter's position; a prefix of its own keeps
# its ids apart from the parent's and its siblings'.
os.register_at_fork(after_in_child=_draw_trace_prefix)


def _new_trace_id() -> str:
    """A unique id: the process's random prefix + a process-local sequence number."""
    return _ID_FORMAT % (_trace_prefix, next(_trace_counter))


class Span:
    """One timed operation inside a trace (possibly with child spans)."""

    __slots__ = ("name", "started", "ended", "annotations", "children")

    def __init__(self, name: str, started: float):
        self.name = name
        self.started = started  # perf_counter seconds
        self.ended: Optional[float] = None
        self.annotations: Dict[str, Any] = {}
        self.children: List["Span"] = []

    @property
    def duration(self) -> Optional[float]:
        """Seconds from start to finish; None while the span is open."""
        if self.ended is None:
            return None
        return self.ended - self.started

    def to_json(self, origin: float) -> Dict[str, Any]:
        """The span subtree relative to the trace origin (milliseconds)."""
        ended = self.ended if self.ended is not None else self.started
        return {
            "name": self.name,
            "start_ms": (self.started - origin) * 1000.0,
            "duration_ms": (ended - self.started) * 1000.0,
            "annotations": dict(self.annotations),
            "children": [child.to_json(origin) for child in self.children],
        }

    def __repr__(self) -> str:
        duration = self.duration
        timing = f"{duration * 1000:.3f}ms" if duration is not None else "open"
        return f"Span({self.name!r}, {timing}, children={len(self.children)})"


class _Record:
    """One trace as recorded: the root's fields, the span entries, and those
    entries still open (the root's depth is 1, an entry's the number of
    spans open around it)."""

    __slots__ = ("_id", "name", "annotations", "started_at", "started", "ended",
                 "spans", "open", "_trace")

    def __init__(self, name: str, trace_id: Optional[str], annotations: Optional[dict]):
        # Spelled on first read; the prefix is taken now, in case of a fork.
        self._id: Any = trace_id or (_trace_prefix, next(_trace_counter))
        self.name, self.annotations = name, annotations
        self.started_at, self.started = time.time(), time.perf_counter()
        self.ended: Optional[float] = None
        self.spans: List[Any] = []
        self.open: List[list] = []
        self._trace: Optional[Trace] = None

    @property
    def trace_id(self) -> str:
        if self._id.__class__ is tuple:
            self._id = _ID_FORMAT % self._id
        return self._id

    def trace(self) -> "Trace":
        """The record as a :class:`Trace`, made on first read."""
        if self._trace is None:
            self._trace = Trace(self)
        return self._trace

    def tree(self) -> Span:
        """The root span, every entry nested under its parent."""
        root = Span(self.name, self.started)
        root.ended = self.ended
        root.annotations.update(self.annotations or ())
        path = [root]
        for name, started, ended, annotations, depth in self.spans:
            span = Span(name, started)
            span.ended = ended
            span.annotations.update(annotations or ())
            del path[depth:]
            path[-1].children.append(span)
            path.append(span)
        return root


class Trace:
    """One request's span tree, addressable by its unique ``trace_id``;
    :attr:`root` is built from the tracer's record on first read (on every
    read while the request still runs)."""

    __slots__ = ("trace_id", "name", "started_at", "_record", "_root")

    def __init__(self, record: _Record):
        self.trace_id = record.trace_id
        self.name = record.name
        #: Wall-clock start (epoch seconds), for correlating with logs.
        self.started_at = record.started_at
        self._record = record
        self._root: Optional[Span] = None

    @property
    def root(self) -> Span:
        if self._root is not None:
            return self._root
        root = self._record.tree()
        if root.ended is not None:
            self._root = root
        return root

    @property
    def duration(self) -> Optional[float]:
        return self.root.duration

    def to_json(self) -> Dict[str, Any]:
        root = self.root
        return {
            "trace_id": self.trace_id,
            "name": root.name,
            "started_at": self.started_at,
            "duration_ms": (root.duration or 0.0) * 1000.0,
            "root": root.to_json(root.started),
        }

    def __repr__(self) -> str:
        return f"Trace({self.trace_id!r}, {self.root!r})"


class _Open(threading.local):
    record: Optional[_Record] = None


class Tracer:
    """Per-thread trace records, with a bounded ring of finished ones."""

    def __init__(self, keep: int = DEFAULT_KEEP, enabled: bool = True):
        self.enabled = enabled
        self._local = _Open()
        self._finished: "deque[_Record]" = deque(maxlen=max(1, keep))
        self._lock = threading.Lock()

    # -- recording -----------------------------------------------------------------
    def enter(self, name: str, trace_id: Optional[str] = None,
              annotations: Optional[dict] = None) -> None:
        """Open ``name`` on this thread: a trace, or inside an open one a
        span that can hold others, until :meth:`exit`."""
        if not self.enabled:
            return
        record = self._local.record
        if record is None:
            self._local.record = _Record(name, trace_id, annotations)
            return
        entry = [name, time.perf_counter(), None, annotations, len(record.open) + 1]
        record.spans.append(entry)
        record.open.append(entry)

    def exit(self) -> None:
        """Close what :meth:`enter` last opened on this thread; a finished
        trace joins the ring."""
        record = self._local.record
        if record is None:  # disabled
            return
        if record.open:
            record.open.pop()[2] = time.perf_counter()
            return
        record.ended = time.perf_counter()
        self._local.record = None
        with self._lock:
            self._finished.append(record)

    def add(self, name: str, started: float, ended: float,
            annotations: Optional[dict] = None) -> None:
        """A finished span with no children, under the innermost open one;
        nothing without an open trace."""
        record = self._local.record
        if record is not None:
            record.spans.append((name, started, ended, annotations, len(record.open) + 1))

    @contextmanager
    def trace(
        self, name: str, trace_id: Optional[str] = None, **annotations: Any
    ) -> Iterator[Optional[Trace]]:
        """Open a trace for the current thread (no-op when disabled).

        Nested calls do not start a second trace — they open a child span on
        the enclosing one, so layered verbs (``explain`` calling ``rewrite``)
        produce one tree, not two.
        """
        self.enter(name, trace_id, annotations)
        record = self._local.record
        try:
            yield record.trace() if record is not None else None
        finally:
            self.exit()

    @contextmanager
    def span(self, name: str, **annotations: Any) -> Iterator[None]:
        """A child span of the innermost open span; no-op without a trace."""
        if self._local.record is None:
            yield
            return
        self.enter(name, None, annotations)
        try:
            yield
        finally:
            self.exit()

    # -- finished traces -----------------------------------------------------------
    def last(self) -> Optional[Trace]:
        """The most recently finished trace (None when nothing finished yet)."""
        with self._lock:
            return self._finished[-1].trace() if self._finished else None

    def last_id(self) -> Optional[str]:
        """The id of the most recently finished trace, building no tree."""
        with self._lock:
            return self._finished[-1].trace_id if self._finished else None

    def recent(self, count: int = 10) -> List[Trace]:
        """Up to ``count`` finished traces, most recent last."""
        with self._lock:
            records = list(self._finished)[-count:]
        return [record.trace() for record in records]

    def find(self, trace_id: str) -> Optional[Trace]:
        """A finished trace by id, if still in the ring."""
        with self._lock:
            for record in reversed(self._finished):
                if record.trace_id == trace_id:
                    return record.trace()
        return None

    def clear(self) -> None:
        with self._lock:
            self._finished.clear()
