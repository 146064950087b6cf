"""Timing helpers used by the benchmark harness.

:func:`time_call` keeps every per-repetition wall-clock sample, so a
benchmark can report the best, median or p90 rather than one mean.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, List, Sequence


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0..1) of ``samples`` by linear interpolation.

    Matches ``statistics.quantiles(..., method="inclusive")`` at its cut
    points but accepts any q, including a single-sample list (where every
    quantile is that sample).
    """
    if not samples:
        return float("nan")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    position = (len(ordered) - 1) * q
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    fraction = position - lower
    return ordered[lower] + (ordered[upper] - ordered[lower]) * fraction


@dataclass
class Measurement:
    """Wall-clock timings (seconds) of repeated calls plus the last return value."""

    label: str
    timings: List[float] = field(default_factory=list)
    result: Any = None

    @property
    def best(self) -> float:
        return min(self.timings) if self.timings else float("nan")

    @property
    def mean(self) -> float:
        return statistics.fmean(self.timings) if self.timings else float("nan")

    @property
    def median(self) -> float:
        return statistics.median(self.timings) if self.timings else float("nan")

    @property
    def p90(self) -> float:
        return percentile(self.timings, 0.90)

    def __str__(self) -> str:
        return f"{self.label}: median {self.median * 1000:.2f} ms over {len(self.timings)} runs"


def time_call(
    function: Callable[..., Any],
    *args: Any,
    repeat: int = 3,
    label: str = "",
    **kwargs: Any,
) -> Measurement:
    """Call ``function`` ``repeat`` times and record wall-clock timings.

    The value returned by the last call is kept in ``Measurement.result`` so
    benchmarks can both time a computation and report facts about its output
    (e.g. the number of rewritings found).
    """
    measurement = Measurement(label=label or getattr(function, "__name__", "call"))
    for _ in range(max(1, repeat)):
        started = time.perf_counter()
        value = function(*args, **kwargs)
        measurement.timings.append(time.perf_counter() - started)
        measurement.result = value
    return measurement
