"""Batch processing of query workloads through a :class:`RewritingSession`.

The batch API accepts a stream of queries (objects or datalog text), feeds
them through one session, and reports per-query outcomes plus aggregate
throughput.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.errors import ReproError
from repro.datalog.parser import parse_query
from repro.datalog.printer import to_datalog
from repro.datalog.queries import ConjunctiveQuery
from repro.datalog.views import View, ViewSet
from repro.engine.database import Database
from repro.service.session import RewritingSession


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


def _as_query_text(query: "ConjunctiveQuery | str") -> str:
    if isinstance(query, ConjunctiveQuery):
        return to_datalog(query)
    return str(query)


def _process_one(
    session: RewritingSession, index: int, query_text: str, with_answers: bool
) -> BatchItem:
    item = BatchItem(index=index, query=query_text)
    started = time.perf_counter()
    try:
        query = parse_query(query_text)
        if with_answers:
            answers, result = session.answer_with_plan(query)
            item.answers = len(answers)
        else:
            result = session.rewrite_cached(query)
        item.fingerprint = session.last_fingerprint
        item.cache_hit = session.last_cache_hit
        item.rewritings = len(result.rewritings)
        item.equivalent = result.has_equivalent
        best = result.best
        if best is not None:
            item.best = to_datalog(best.query)
    except ReproError as error:
        item.error = str(error)
    item.elapsed = time.perf_counter() - started
    return item


def run_batch(
    queries: Sequence["ConjunctiveQuery | str"],
    views: "ViewSet | Iterable[View]",
    database: Optional[Database] = None,
    algorithm: str = "minicon",
    mode: str = "equivalent",
    cache_size: int = 512,
    use_view_index: bool = True,
    with_answers: bool = False,
    executor: Optional[str] = None,
) -> BatchReport:
    """Process a workload of queries and report per-query and aggregate results.

    ``executor`` picks the session's evaluation engine (see
    :class:`RewritingSession`; ``None`` means ``"compiled"``).
    """
    view_set = views if isinstance(views, ViewSet) else ViewSet(list(views))
    texts = [_as_query_text(q) for q in queries]
    if with_answers and database is None:
        raise ReproError("run_batch(with_answers=True) requires a database")

    started = time.perf_counter()
    session = RewritingSession(
        view_set,
        database=database,
        algorithm=algorithm,
        mode=mode,
        cache_size=cache_size,
        use_view_index=use_view_index,
        executor=executor,
    )
    items = [
        _process_one(session, index, text, with_answers)
        for index, text in enumerate(texts)
    ]
    return BatchReport(
        items=items,
        elapsed=time.perf_counter() - started,
        session_stats=session.stats(),
    )
