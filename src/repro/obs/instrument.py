"""The :class:`Instrumentation` bundle: one registry + tracer, pre-declared series.

The engine and the server record into the same small catalog of
metric families (documented in ``docs/observability.md``):

=============================  =========  ===========================  ==========================================
name                           type       labels                       meaning
=============================  =========  ===========================  ==========================================
``repro_requests_total``       counter    ``verb``, ``outcome``        engine verbs served (ok / error)
``repro_stage_seconds``        histogram  ``stage``                    per-stage latency (parse, rewrite_cold,
                                                                       rewrite_hit, execute, delta_apply)
``repro_cache_events_total``   counter    ``cache``, ``outcome``       rewrite/answer/plan/bound-form hits &
                                                                       misses, containment-memo outcomes
``repro_deltas_total``         counter    —                            deltas applied through the engine
=============================  =========  ===========================  ==========================================

The server adds its own ``repro_http_*`` / ``repro_server_*`` series on the
same registry (see :mod:`repro.server`), so one ``GET /metrics`` scrape shows
the whole picture.

Engines create a live bundle by default; ``repro.connect(...,
observability=False)`` opts out, and then ``self._obs`` is None and every
hook is a single ``is None`` test.  The
:meth:`Instrumentation.stage` timer doubles as the trace hook — it records
the elapsed time into ``repro_stage_seconds`` *and* opens a span on the
active trace, so metrics and traces can never disagree about what a stage
cost.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer

__all__ = ["Instrumentation"]


class Instrumentation:
    """A metrics registry and tracer wired together, with the core series declared."""

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ):
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer()
        self.requests = self.registry.counter(
            "repro_requests_total",
            "Engine verbs served, by verb and outcome (ok/error).",
            labels=("verb", "outcome"),
        )
        self.stage_seconds = self.registry.histogram(
            "repro_stage_seconds",
            "Latency of one pipeline stage (parse, rewrite_cold, rewrite_hit, "
            "execute, delta_apply), in seconds.",
            labels=("stage",),
        )
        self.cache_events = self.registry.counter(
            "repro_cache_events_total",
            "Cache lookups by cache (rewrite/answer/plan/bound_form/"
            "containment_memo) and outcome.",
            labels=("cache", "outcome"),
        )
        self.deltas = self.registry.counter(
            "repro_deltas_total", "Data deltas applied through the engine."
        )

    @contextmanager
    def stage(self, stage: str, **annotations: Any) -> Iterator[None]:
        """Time a pipeline stage: histogram sample + span on the active trace."""
        started = time.perf_counter()
        with self.tracer.span(stage, **annotations):
            yield
        self.stage_seconds.labels(stage).observe(time.perf_counter() - started)

    def observe_stage(self, stage: str, seconds: float) -> None:
        """Record an already-measured stage duration (no span)."""
        self.stage_seconds.labels(stage).observe(seconds)

    def cache_event(self, cache: str, outcome: str, count: int = 1) -> None:
        """Record ``count`` lookups against one cache with one outcome."""
        if count:
            self.cache_events.labels(cache, outcome).inc(count)

    def count_request(self, verb: str, outcome: str = "ok") -> None:
        self.requests.labels(verb, outcome).inc()

    # -- verb wrapper --------------------------------------------------------------
    @contextmanager
    def request(
        self, verb: str, trace_id: Optional[str] = None, **annotations: Any
    ) -> Iterator[None]:
        """Trace one engine verb and count its outcome (errors re-raise)."""
        with self.tracer.trace(verb, trace_id=trace_id, **annotations):
            try:
                yield
            except BaseException:
                self.count_request(verb, "error")
                raise
            self.count_request(verb, "ok")

    def snapshot(self) -> Dict[str, Any]:
        """The registry snapshot (``stats()`` embeds this)."""
        return self.registry.collect()
