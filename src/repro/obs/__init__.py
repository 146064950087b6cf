"""repro.obs — dependency-free metrics and request tracing for the serving stack.

The observability core under the network serving layer (:mod:`repro.server`)
and the engine facade (:mod:`repro.api`):

* :class:`Counter` / :class:`Gauge` / :class:`Histogram` — the three
  Prometheus primitives, thread-safe, with p50/p90/p99 estimation on the
  fixed-bucket histogram;
* :class:`MetricsRegistry` — named metric families with label support,
  Prometheus text exposition (:meth:`~MetricsRegistry.render`) and a
  JSON-friendly snapshot (:meth:`~MetricsRegistry.collect`);
* :class:`Span` / :class:`Trace` / :class:`Tracer` — per-request span trees
  with monotonic timings, serializable to JSON
  (``docs/trace.schema.json``);
* :class:`Instrumentation` — one registry + tracer bundle with the engine's
  core series pre-declared; the engine records through it.

Quickstart::

    import repro

    engine = repro.connect(views=VIEWS, data=FACTS)   # observability on by default
    engine.query("q(X) :- r(X, Y).").answers()
    print(engine.metrics())                            # Prometheus text
    engine.trace().to_json()                           # last request's span tree

See ``docs/observability.md`` for the metric catalog and trace semantics.
"""

from repro.obs.instrument import Instrumentation
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
)
from repro.obs.trace import Span, Trace, Tracer

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "Instrumentation",
    "MetricFamily",
    "MetricsRegistry",
    "Span",
    "Trace",
    "Tracer",
]
