"""A dependency-free metrics core: counters, gauges, latency histograms.

The serving layer needs the three Prometheus primitives and nothing else, so
this module implements them directly instead of depending on an external
client library (the container bakes in only the test toolchain):

* :class:`Counter` — a monotonically increasing float;
* :class:`Gauge` — a float that can move both ways;
* :class:`Histogram` — fixed cumulative buckets plus sum/count, with
  p50/p90/p99 estimation by linear interpolation inside the bucket that
  crosses the requested rank (the standard ``histogram_quantile`` estimate).

Metrics are declared on a :class:`MetricsRegistry` as *families*: a family
has a name, a help string and a tuple of label names, and hands out one child
per label-value combination via :meth:`MetricFamily.labels`.  A family
declared without labels proxies the mutating calls straight to its single
child, so ``registry.counter("x_total").inc()`` works without ceremony.

Everything is thread-safe: children guard their state with a lock (the
serving layer hammers them from a worker pool), and the registry guards the
family table.  :meth:`MetricsRegistry.render` emits the Prometheus text
exposition format (``text/plain; version=0.0.4``) and
:meth:`MetricsRegistry.collect` a JSON-friendly snapshot for ``stats()``.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
]

#: Default latency buckets (seconds): 100 µs .. 10 s, roughly log-spaced.
#: Chosen to straddle the engine's observed range — cache hits are tens of
#: microseconds, cold maximally-contained rewritings tens of milliseconds,
#: and a loaded server should never sit above a few seconds.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
    0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

_INF = float("inf")


def _format_value(value: float) -> str:
    """Render a sample value the way Prometheus expects (ints without '.0')."""
    if value == _INF:
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if value != value:  # NaN
        return "NaN"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _escape_label_value(value: str) -> str:
    return value.replace("\\", r"\\").replace("\n", r"\n").replace('"', r"\"")


def _escape_help(text: str) -> str:
    return text.replace("\\", r"\\").replace("\n", r"\n")


def _render_labels(names: Sequence[str], values: Sequence[str]) -> str:
    if not names:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label_value(value)}"'
        for name, value in zip(names, values)
    )
    return "{" + inner + "}"


class Counter:
    """A monotonically increasing value (thread-safe)."""

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up; inc({amount!r}) is invalid")
        # acquire/release, not ``with``: half the cost, on every served request.
        self._lock.acquire()
        try:
            self._value += amount
        finally:
            self._lock.release()

    @property
    def value(self) -> float:
        return self._value

    def __repr__(self) -> str:
        return f"Counter({self._value!r})"


class Gauge:
    """A value that can go up and down (thread-safe)."""

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        return self._value

    def __repr__(self) -> str:
        return f"Gauge({self._value!r})"


class Histogram:
    """Fixed-bucket latency histogram with quantile estimation (thread-safe).

    ``buckets`` are the finite upper bounds, strictly increasing; an implicit
    ``+Inf`` bucket catches the tail.  Counts are stored per bucket
    (non-cumulative internally; the exposition renders the cumulative view).

    Quantiles are estimated the way Prometheus' ``histogram_quantile`` does:
    find the bucket where the cumulative count crosses the rank, then
    interpolate linearly between the bucket's bounds.  Ranks landing in the
    ``+Inf`` bucket report the highest finite bound (the estimate is a floor,
    not an invention of data beyond the instrumented range).
    """

    __slots__ = ("_bounds", "_counts", "_sum", "_count", "_lock")

    def __init__(self, buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS):
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("a histogram needs at least one finite bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"bucket bounds must be strictly increasing: {bounds}")
        if bounds[-1] == _INF:
            bounds = bounds[:-1]
        self._bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # +1 for +Inf
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        index = bisect_left(self._bounds, value)
        self._lock.acquire()  # as in Counter.inc
        try:
            self._counts[index] += 1
            self._sum += value
            self._count += 1
        finally:
            self._lock.release()

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def bounds(self) -> Tuple[float, ...]:
        return self._bounds

    def cumulative_counts(self) -> List[int]:
        """Cumulative per-bucket counts, ``+Inf`` last (equals ``count``)."""
        with self._lock:
            counts = list(self._counts)
        total = 0
        cumulative = []
        for bucket_count in counts:
            total += bucket_count
            cumulative.append(total)
        return cumulative

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (0 < q <= 1); NaN when empty."""
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {q!r}")
        cumulative = self.cumulative_counts()
        total = cumulative[-1]
        if total == 0:
            return float("nan")
        rank = q * total
        for index, running in enumerate(cumulative):
            if running >= rank:
                break
        if index >= len(self._bounds):
            # Tail bucket: report the highest finite bound.
            return self._bounds[-1]
        upper = self._bounds[index]
        lower = self._bounds[index - 1] if index > 0 else 0.0
        below = cumulative[index - 1] if index > 0 else 0
        in_bucket = cumulative[index] - below
        if in_bucket == 0:  # pragma: no cover - crossing bucket is non-empty
            return upper
        return lower + (upper - lower) * (rank - below) / in_bucket

    @property
    def p50(self) -> float:
        return self.quantile(0.5)

    @property
    def p90(self) -> float:
        return self.quantile(0.9)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-friendly view: count, sum, estimated quantiles."""
        count = self._count
        return {
            "count": count,
            "sum": self._sum,
            "p50": self.p50 if count else None,
            "p90": self.p90 if count else None,
            "p99": self.p99 if count else None,
        }

    def __repr__(self) -> str:
        return f"Histogram(count={self._count}, sum={self._sum:.6f})"


#: Constructors per metric type, used by the family.
_CHILD_TYPES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """One named metric with a fixed label-name tuple and one child per value.

    Families are created through the registry (:meth:`MetricsRegistry.counter`
    and friends).  ``labels(...)`` returns the child for a label-value
    combination, creating it on first use.  A family with *no* label names
    has exactly one child and proxies ``inc``/``set``/``dec``/``observe`` to
    it directly.
    """

    def __init__(
        self,
        name: str,
        help_text: str,
        metric_type: str,
        label_names: Tuple[str, ...] = (),
        **child_kwargs: Any,
    ):
        if metric_type not in _CHILD_TYPES:
            raise ValueError(f"unknown metric type {metric_type!r}")
        self.name = name
        self.help = help_text
        self.type = metric_type
        self.label_names = label_names
        self._child_kwargs = child_kwargs
        self._children: Dict[Tuple[str, ...], Any] = {}
        self._lock = threading.Lock()
        if not label_names:
            self._children[()] = _CHILD_TYPES[metric_type](**child_kwargs)

    def labels(self, *values: Any, **named: Any) -> Any:
        """The child for one label-value combination (created on first use)."""
        if named:
            if values:
                raise ValueError("pass label values positionally or by name, not both")
            try:
                values = tuple(named[name] for name in self.label_names)
            except KeyError as error:
                raise ValueError(
                    f"{self.name}: missing label {error.args[0]!r} "
                    f"(expected {self.label_names})"
                ) from None
            if len(named) != len(self.label_names):
                extra = set(named) - set(self.label_names)
                raise ValueError(f"{self.name}: unexpected labels {sorted(extra)}")
        key = tuple(str(value) for value in values)
        if len(key) != len(self.label_names):
            raise ValueError(
                f"{self.name}: expected {len(self.label_names)} label value(s) "
                f"{self.label_names}, got {len(key)}"
            )
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    child = _CHILD_TYPES[self.type](**self._child_kwargs)
                    self._children[key] = child
        return child

    def bound(self) -> Dict[Any, Any]:
        """Label values -> child, each bound on first use and kept: the way
        to record on a hot path (one dict lookup, no :meth:`labels` call).
        Key by the tuple of values, or by the value of a one-label family."""
        return _Bound(self)

    def children(self) -> List[Tuple[Tuple[str, ...], Any]]:
        """(label values, child) pairs in insertion order."""
        with self._lock:
            return list(self._children.items())

    # -- no-label conveniences ----------------------------------------------------
    def _solo(self) -> Any:
        if self.label_names:
            raise ValueError(
                f"{self.name} has labels {self.label_names}; use .labels(...)"
            )
        return self._children[()]

    def inc(self, amount: float = 1.0) -> None:
        self._solo().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._solo().dec(amount)

    def set(self, value: float) -> None:
        self._solo().set(value)

    def observe(self, value: float) -> None:
        self._solo().observe(value)

    def quantile(self, q: float) -> float:
        return self._solo().quantile(q)

    def snapshot(self) -> Dict[str, Any]:
        return self._solo().snapshot()

    @property
    def value(self) -> float:
        return self._solo().value

    def __repr__(self) -> str:
        return (
            f"MetricFamily({self.name!r}, type={self.type!r}, "
            f"labels={self.label_names!r}, children={len(self._children)})"
        )


class _Bound(dict):
    __slots__ = ("family",)

    def __init__(self, family: MetricFamily):
        super().__init__()
        self.family = family

    def __missing__(self, key: Any) -> Any:
        child = self[key] = self.family.labels(*(key if key.__class__ is tuple else (key,)))
        return child


class MetricsRegistry:
    """A named collection of metric families with Prometheus text exposition.

    Declarations are idempotent: asking twice for the same name returns the
    same family, provided the type and label names agree (a mismatch is a
    programming error and raises).  That lets independent layers (engine,
    server) share one registry without coordinating declaration
    order.
    """

    def __init__(self) -> None:
        self._families: Dict[str, MetricFamily] = {}
        self._lock = threading.Lock()

    def _declare(
        self,
        name: str,
        help_text: str,
        metric_type: str,
        label_names: Tuple[str, ...],
        **child_kwargs: Any,
    ) -> MetricFamily:
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if family.type != metric_type or family.label_names != label_names:
                    raise ValueError(
                        f"metric {name!r} already declared as {family.type} "
                        f"with labels {family.label_names}; cannot redeclare as "
                        f"{metric_type} with labels {label_names}"
                    )
                return family
            family = MetricFamily(
                name, help_text, metric_type, label_names, **child_kwargs
            )
            self._families[name] = family
            return family

    def counter(
        self, name: str, help_text: str = "", labels: Sequence[str] = ()
    ) -> MetricFamily:
        return self._declare(name, help_text, "counter", tuple(labels))

    def gauge(
        self, name: str, help_text: str = "", labels: Sequence[str] = ()
    ) -> MetricFamily:
        return self._declare(name, help_text, "gauge", tuple(labels))

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labels: Sequence[str] = (),
        buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> MetricFamily:
        return self._declare(
            name, help_text, "histogram", tuple(labels), buckets=tuple(buckets)
        )

    def get(self, name: str) -> Optional[MetricFamily]:
        with self._lock:
            return self._families.get(name)

    def families(self) -> List[MetricFamily]:
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    # -- exposition ---------------------------------------------------------------
    def render(self) -> str:
        """The Prometheus text exposition (``text/plain; version=0.0.4``)."""
        lines: List[str] = []
        for family in self.families():
            if family.help:
                lines.append(f"# HELP {family.name} {_escape_help(family.help)}")
            lines.append(f"# TYPE {family.name} {family.type}")
            for label_values, child in family.children():
                if family.type == "histogram":
                    cumulative = child.cumulative_counts()
                    for bound, running in zip(
                        child.bounds + (_INF,), cumulative
                    ):
                        bucket_labels = _render_labels(
                            family.label_names + ("le",),
                            label_values + (_format_value(bound),),
                        )
                        lines.append(
                            f"{family.name}_bucket{bucket_labels} {running}"
                        )
                    suffix = _render_labels(family.label_names, label_values)
                    lines.append(
                        f"{family.name}_sum{suffix} {_format_value(child.sum)}"
                    )
                    lines.append(f"{family.name}_count{suffix} {child.count}")
                else:
                    suffix = _render_labels(family.label_names, label_values)
                    lines.append(
                        f"{family.name}{suffix} {_format_value(child.value)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")

    def collect(self) -> Dict[str, Any]:
        """A JSON-friendly snapshot of every family (for ``stats()``)."""
        snapshot: Dict[str, Any] = {}
        for family in self.families():
            series: List[Dict[str, Any]] = []
            for label_values, child in family.children():
                labels = dict(zip(family.label_names, label_values))
                if family.type == "histogram":
                    entry: Dict[str, Any] = {"labels": labels, **child.snapshot()}
                else:
                    entry = {"labels": labels, "value": child.value}
                series.append(entry)
            snapshot[family.name] = {"type": family.type, "series": series}
        return snapshot
