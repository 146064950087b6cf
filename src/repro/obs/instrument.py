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
hook is a single ``is None`` test.  A hook site reads
:func:`time.perf_counter` before its stage and, in a ``finally``, calls
:meth:`Instrumentation.stage` once: that call records the elapsed time into
``repro_stage_seconds`` *and* the span on the open trace, so metrics and
traces can never disagree about what a stage cost, even one that raised.
"""

from __future__ import annotations

import time
from typing import Any, Dict

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer

__all__ = ["Instrumentation"]


class _Verb:
    """``with`` around one engine verb: its trace, and its outcome counted on
    the way out.  It holds no per-call state, so one serves every call."""

    __slots__ = ("verb", "tracer", "outcomes")

    def __init__(self, verb: str, tracer: Tracer, outcomes: Dict[tuple, Any]):
        self.verb, self.tracer, self.outcomes = verb, tracer, outcomes

    def __enter__(self) -> None:
        self.tracer.enter(self.verb)

    def __exit__(self, error_type: Any, error: Any, traceback: Any) -> None:
        self.tracer.exit()
        self.outcomes[self.verb, "ok" if error_type is None else "error"].inc()


class Instrumentation:
    """A metrics registry and tracer wired together, with the core series declared."""

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self.tracer = Tracer()
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
        self._requests = self.requests.bound()
        self._stages = self.stage_seconds.bound()
        self._cache_events = self.cache_events.bound()
        self._verbs: Dict[str, _Verb] = {}

    def stage(self, stage: str, started: float, **annotations: Any) -> None:
        """Record a stage that ran from ``started`` (a ``perf_counter``
        reading) until now: a histogram sample, and a span on the open trace."""
        ended = time.perf_counter()
        self._stages[stage].observe(ended - started)
        self.tracer.add(stage, started, ended, annotations)

    def cache_event(self, cache: str, outcome: str, count: int = 1) -> None:
        """Record ``count`` lookups against one cache with one outcome."""
        if count:
            self._cache_events[cache, outcome].inc(count)

    def request(self, verb: str) -> _Verb:
        """Trace one engine verb and count its outcome: ``with`` around it."""
        context = self._verbs.get(verb)
        if context is None:
            context = self._verbs[verb] = _Verb(verb, self.tracer, self._requests)
        return context

    def snapshot(self) -> Dict[str, Any]:
        """The registry snapshot (``stats()`` embeds this)."""
        return self.registry.collect()
