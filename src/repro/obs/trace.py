"""Lightweight request tracing: span trees with monotonic timings.

A :class:`Trace` is one request's tree of :class:`Span`\\ s.  The engine opens
a trace per verb (``answers`` / ``rewrite`` / ``explain`` / ``apply``), the
instrumented layers below open child spans for the stages they run (rewrite
cold/hit, execute, delta apply), and the finished tree serializes to JSON
(``docs/trace.schema.json``) for the server to echo back to clients.

Timings use :func:`time.perf_counter` (monotonic), so span durations are
immune to wall-clock adjustments; the trace additionally records one wall
timestamp at its start so traces can be correlated with logs.

The :class:`Tracer` is thread-safe in the way a threaded server needs: the
*active* span stack is thread-local (two worker threads never splice spans
into each other's traces), while the bounded ring of recently finished traces
is shared and lock-guarded.  All tracing is scoped — with no active trace,
:meth:`Tracer.span` is a cheap no-op — so layers can instrument
unconditionally and pay nothing when nobody is looking.
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
    return f"{_trace_prefix}-{next(_trace_counter):06d}"


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

    def annotate(self, **values: Any) -> None:
        self.annotations.update(values)

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


class Trace:
    """One request's span tree, addressable by its unique ``trace_id``."""

    __slots__ = ("trace_id", "root", "started_at")

    def __init__(self, name: str, trace_id: Optional[str] = None):
        self.trace_id = trace_id or _new_trace_id()
        self.root = Span(name, time.perf_counter())
        #: Wall-clock start (epoch seconds), for correlating with logs.
        self.started_at = time.time()

    @property
    def name(self) -> str:
        return self.root.name

    @property
    def duration(self) -> Optional[float]:
        return self.root.duration

    def to_json(self) -> Dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "name": self.root.name,
            "started_at": self.started_at,
            "duration_ms": (self.root.duration or 0.0) * 1000.0,
            "root": self.root.to_json(self.root.started),
        }

    def __repr__(self) -> str:
        return f"Trace({self.trace_id!r}, {self.root!r})"


class Tracer:
    """Scoped span recording with a bounded ring of finished traces."""

    def __init__(self, keep: int = DEFAULT_KEEP, enabled: bool = True):
        self.enabled = enabled
        self._local = threading.local()
        self._finished: "deque[Trace]" = deque(maxlen=max(1, keep))
        self._lock = threading.Lock()

    # -- the active stack (thread-local) ------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def active_trace(self) -> Optional[Trace]:
        """The trace open on *this* thread, if any."""
        return getattr(self._local, "trace", None)

    @contextmanager
    def trace(
        self, name: str, trace_id: Optional[str] = None, **annotations: Any
    ) -> Iterator[Optional[Trace]]:
        """Open a trace for the current thread (no-op when disabled).

        Nested calls do not start a second trace — they open a child span on
        the enclosing one, so layered verbs (``explain`` calling ``rewrite``)
        produce one tree, not two.
        """
        if not self.enabled:
            yield None
            return
        if self.active_trace is not None:
            with self.span(name, **annotations):
                yield self.active_trace
            return
        current = Trace(name, trace_id)
        if annotations:
            current.root.annotate(**annotations)
        self._local.trace = current
        stack = self._stack()
        stack.append(current.root)
        try:
            yield current
        finally:
            stack.pop()
            current.root.ended = time.perf_counter()
            self._local.trace = None
            with self._lock:
                self._finished.append(current)

    @contextmanager
    def span(self, name: str, **annotations: Any) -> Iterator[Optional[Span]]:
        """A child span of the innermost open span; no-op without a trace."""
        if not self.enabled or self.active_trace is None:
            yield None
            return
        stack = self._stack()
        span = Span(name, time.perf_counter())
        if annotations:
            span.annotations.update(annotations)
        stack[-1].children.append(span)
        stack.append(span)
        try:
            yield span
        finally:
            stack.pop()
            span.ended = time.perf_counter()

    # -- finished traces -----------------------------------------------------------
    def last(self) -> Optional[Trace]:
        """The most recently finished trace (None when nothing finished yet)."""
        with self._lock:
            return self._finished[-1] if self._finished else None

    def recent(self, count: int = 10) -> List[Trace]:
        """Up to ``count`` finished traces, most recent last."""
        with self._lock:
            items = list(self._finished)
        return items[-count:]

    def find(self, trace_id: str) -> Optional[Trace]:
        """A finished trace by id, if still in the ring."""
        with self._lock:
            for trace in reversed(self._finished):
                if trace.trace_id == trace_id:
                    return trace
        return None

    def clear(self) -> None:
        with self._lock:
            self._finished.clear()
