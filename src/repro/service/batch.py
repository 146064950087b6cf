"""The report of a query workload run through :meth:`repro.api.Engine.batch`:
per-query outcomes plus aggregate throughput.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional


@dataclass
class BatchItem:
    """The outcome of one query in a batch."""

    index: int
    query: str
    fingerprint: str = ""
    cache_hit: bool = False
    rewritings: int = 0
    equivalent: bool = False
    best: Optional[str] = None
    answers: Optional[int] = None
    elapsed: float = 0.0
    error: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "query": self.query,
            "fingerprint": self.fingerprint,
            "cache_hit": self.cache_hit,
            "rewritings": self.rewritings,
            "equivalent": self.equivalent,
            "best": self.best,
            "answers": self.answers,
            "elapsed": self.elapsed,
            "error": self.error,
        }


@dataclass
class BatchReport:
    """Aggregate outcome of a batch run."""

    items: List[BatchItem] = field(default_factory=list)
    elapsed: float = 0.0
    session_stats: Optional[Dict[str, Any]] = None

    @property
    def requests(self) -> int:
        return len(self.items)

    @property
    def cache_hits(self) -> int:
        return sum(1 for item in self.items if item.cache_hit)

    @property
    def errors(self) -> int:
        return sum(1 for item in self.items if item.error is not None)

    @property
    def throughput(self) -> float:
        """Requests per second over the whole batch."""
        return self.requests / self.elapsed if self.elapsed > 0 else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "requests": self.requests,
            "cache_hits": self.cache_hits,
            "errors": self.errors,
            "elapsed": self.elapsed,
            "throughput": self.throughput,
            "session_stats": self.session_stats,
            "items": [item.to_dict() for item in self.items],
        }
