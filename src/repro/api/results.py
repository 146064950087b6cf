"""Typed results returned by the :mod:`repro.api` facade.

Two result objects cover the whole lifecycle:

* :class:`Answer` — the rows of a query plus the *provenance* of how they
  were produced: which rewriting (if any) was evaluated, over which instance
  (materialized views, views plus base relations, or the base database
  directly), whether the serving caches were hit, and by which executor.
* :class:`Explanation` — a structured, JSON-serializable tree describing the
  decision chain for one query: the rewriting choice (chosen plan,
  alternatives, candidates examined) → the physical plan steps each disjunct
  compiles to → the cache and materialization state the request would hit.

Both are plain frozen dataclasses with ``to_json()`` producing only JSON
types (dict/list/str/int/float/bool/None); the explanation format is pinned
by ``docs/explanation.schema.json`` and validated in ``tests/api``.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from operator import itemgetter
from typing import Any, Callable, Collection, Dict, FrozenSet, Iterator, List, Optional, Tuple

#: Where an answer's rows were computed.
SOURCE_VIEWS = "views"
SOURCE_VIEWS_AND_BASE = "views+base"
SOURCE_BASE = "base"
SOURCE_CERTAIN = "certain"

ANSWER_SOURCES = (SOURCE_VIEWS, SOURCE_VIEWS_AND_BASE, SOURCE_BASE, SOURCE_CERTAIN)

Row = Tuple[Any, ...]

#: Row texts JSON spells the same way once tuple brackets become list
#: brackets: ints, and tuples of them.
_JSON_AS_TEXT = re.compile(r"[0-9(), -]*")
_TO_ARRAYS = str.maketrans("()", "[]")


@lru_cache(maxsize=None)
def _texts_of(arity: int) -> Callable[[Collection[Row]], List[str]]:
    """``rows -> [repr(row), ...]`` for rows of one arity (others raise).

    One f-string per row formats each value's ``repr`` just as a tuple's own
    ``repr`` does, at about half the cost.
    """
    names = "".join(f"v{i:d}, " for i in range(arity))
    text = ", ".join(f"{{v{i:d}!r}}" for i in range(arity)) + ("," if arity == 1 else "")
    scope: Dict[str, Any] = {}
    exec(f"def texts(rows):\n    return [f'({text})' for ({names}) in rows]\n", scope)
    return scope["texts"]


def _row_texts(rows: Collection[Row]) -> List[str]:
    """``[repr(row) for row in rows]``: the sort key of every reply."""
    if not rows:
        return []
    try:
        return _texts_of(len(next(iter(rows))))(rows)
    except ValueError:  # rows of several arities
        return [repr(row) for row in rows]


def _in_order(texts: List[str], rows: Collection[Row]) -> List[Row]:
    return [row for _text, row in sorted(zip(texts, rows), key=itemgetter(0))]


def sort_rows(rows: Collection[Row]) -> List[Row]:
    """The rows in reply order: by ``repr`` text, ties as they come.

    Replies, :meth:`Answer.to_json` and the CLI's printouts all list rows in
    this order.
    """
    return _in_order(_row_texts(rows), rows)


def encode_rows(rows: Collection[Row]) -> str:
    """Exactly ``json.dumps(sort_rows(rows), default=str)``.

    Each row's text is built once and is the sort key.  When every text is
    made of ints and tuples it is the JSON text as well, bar the brackets;
    any other value is encoded by :func:`json.dumps` in the same order.
    """
    texts = _row_texts(rows)
    joined = ", ".join(sorted(texts))
    if _JSON_AS_TEXT.fullmatch(joined):
        return "[" + joined.replace(",)", ")").translate(_TO_ARRAYS) + "]"
    return json.dumps(_in_order(texts, rows), default=str)


@dataclass(frozen=True)
class Provenance:
    """How an :class:`Answer` was produced."""

    #: One of :data:`ANSWER_SOURCES`: the instance the rows came from.
    source: str
    #: Datalog text of the rewriting that was evaluated (``None`` when the
    #: query ran directly over the base database, or for certain answers).
    rewriting: Optional[str]
    #: The rewriting's kind (``"equivalent"``, ``"partial"``, ...), if any.
    kind: Optional[str]
    #: Rewriting algorithm (or certain-answer method) that produced the plan.
    algorithm: str
    #: Names of the views the plan reads.
    views_used: Tuple[str, ...] = ()
    #: Whether the rewriting was served from the engine's template cache.
    cache_hit: bool = False
    #: Whether the *rows* came straight from the answer cache (no evaluation).
    answered_from_cache: bool = False
    #: Canonical fingerprint of the query (empty for certain answers).
    fingerprint: str = ""
    #: Name of the executor that evaluated the plan.
    executor: str = ""

    def to_json(self) -> Dict[str, Any]:
        return {
            "source": self.source,
            "rewriting": self.rewriting,
            "kind": self.kind,
            "algorithm": self.algorithm,
            "views_used": list(self.views_used),
            "cache_hit": self.cache_hit,
            "answered_from_cache": self.answered_from_cache,
            "fingerprint": self.fingerprint,
            "executor": self.executor,
        }

    @cached_property
    def _json(self) -> str:
        """``json.dumps(self.to_json())``, encoded once per (shared) instance."""
        return json.dumps(self.to_json())


@dataclass(frozen=True)
class Answer:
    """The rows of one query plus the provenance that produced them.

    Behaves like a read-only set of tuples (iteration, ``len``, ``in``) so
    callers migrating from raw ``evaluate()`` results keep working.
    """

    rows: FrozenSet[Tuple[Any, ...]]
    query: str
    provenance: Provenance
    elapsed: float = 0.0
    #: The answer-cache entry the rows were served from (None when they were
    #: just evaluated); :meth:`_json_text` keeps the rows' encoding on it.
    _cached: Any = field(default=None, repr=False, compare=False)

    def __iter__(self) -> Iterator[Tuple[Any, ...]]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __contains__(self, row: object) -> bool:
        return row in self.rows

    def __bool__(self) -> bool:
        return bool(self.rows)

    def sorted_rows(self) -> List[Tuple[Any, ...]]:
        """The rows in reply order (see :func:`sort_rows`)."""
        return sort_rows(self.rows)

    def to_json(self) -> Dict[str, Any]:
        return {
            "query": self.query,
            "rows": [list(row) for row in self.sorted_rows()],
            "count": len(self.rows),
            "provenance": self.provenance.to_json(),
            "elapsed": self.elapsed,
        }

    def _json_text(self) -> str:
        """Exactly ``json.dumps(self.to_json(), default=str)``, rows encoded once.

        Rows served from the answer cache are sorted and encoded on their
        first hit and the text is kept *on the cache entry*, so whatever
        evicts the rows evicts it too; freshly evaluated rows (which may never
        be asked for again) are encoded here and kept nowhere.
        """
        entry = self._cached
        rows = entry.encoded if entry is not None else None
        if rows is None:
            # Tuples encode as arrays: the same text as to_json()'s lists.
            rows = encode_rows(self.rows)
            if entry is not None:
                entry.encoded = rows
        return (
            f'{{"query": {json.dumps(self.query)}, "rows": {rows}, '
            f'"count": {len(self.rows)}, "provenance": {self.provenance._json}, '
            f'"elapsed": {json.dumps(self.elapsed)}}}'
        )

    def __repr__(self) -> str:
        return (
            f"Answer({len(self.rows)} rows, source={self.provenance.source!r}, "
            f"cache_hit={self.provenance.cache_hit})"
        )


# ---------------------------------------------------------------------------
# Explanation tree
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RewritingAlternative:
    """One non-chosen rewriting the algorithm also found."""

    query: str
    kind: str
    views_used: Tuple[str, ...] = ()

    def to_json(self) -> Dict[str, Any]:
        return {
            "query": self.query,
            "kind": self.kind,
            "views_used": list(self.views_used),
        }


@dataclass(frozen=True)
class RewritingChoice:
    """The rewriting layer of an explanation: what was chosen and why."""

    found: bool
    chosen: Optional[str]
    kind: Optional[str]
    algorithm: str
    views_used: Tuple[str, ...]
    candidates_examined: int
    cache_hit: bool
    alternatives: Tuple[RewritingAlternative, ...] = ()

    def to_json(self) -> Dict[str, Any]:
        return {
            "found": self.found,
            "chosen": self.chosen,
            "kind": self.kind,
            "algorithm": self.algorithm,
            "views_used": list(self.views_used),
            "candidates_examined": self.candidates_examined,
            "cache_hit": self.cache_hit,
            "alternatives": [alt.to_json() for alt in self.alternatives],
        }


@dataclass(frozen=True)
class PlanStep:
    """One physical operator in a compiled pipeline."""

    #: ``"scan"`` (first step), ``"hash_join"`` (indexed probe),
    #: ``"semi_join"`` (existence test: none of the subgoal's new variables
    #: is read afterwards) or ``"product"`` (keyless non-first step — a
    #: cartesian product).
    operator: str
    predicate: str
    arity: int
    key_positions: Tuple[int, ...] = ()
    filters: int = 0
    #: Columns of the rows the step emits (the variables still read later).
    columns_kept: int = 0
    #: Whether the step deduplicates its output (it drops a column it enumerated).
    distinct: bool = False

    def to_json(self) -> Dict[str, Any]:
        return {
            "operator": self.operator,
            "predicate": self.predicate,
            "arity": self.arity,
            "key_positions": list(self.key_positions),
            "filters": self.filters,
            "columns_kept": self.columns_kept,
            "distinct": self.distinct,
        }


@dataclass(frozen=True)
class PlanDescription:
    """The physical plan of one conjunctive disjunct."""

    disjunct: str
    #: ``"compiled"`` (set-at-a-time pipeline) or ``"empty"`` (a ground
    #: comparison is false; no rows possible).
    strategy: str
    steps: Tuple[PlanStep, ...] = ()
    cache_hit: bool = False

    def to_json(self) -> Dict[str, Any]:
        return {
            "disjunct": self.disjunct,
            "strategy": self.strategy,
            "steps": [step.to_json() for step in self.steps],
            "cache_hit": self.cache_hit,
        }


@dataclass(frozen=True)
class Evaluation:
    """The execution layer of an explanation."""

    #: ``"views"``, ``"views+base"``, ``"base"`` — or ``"none"`` when the
    #: engine has no data attached and nothing would be evaluated.
    target: str
    executor: str
    plans: Tuple[PlanDescription, ...] = ()

    def to_json(self) -> Dict[str, Any]:
        return {
            "target": self.target,
            "executor": self.executor,
            "plans": [plan.to_json() for plan in self.plans],
        }


@dataclass(frozen=True)
class CacheReport:
    """Cache state relevant to one explained request."""

    rewrite_cache_hit: bool
    answer_cached: bool
    plan_hits: int = 0
    plan_misses: int = 0

    def to_json(self) -> Dict[str, Any]:
        return {
            "rewrite_cache_hit": self.rewrite_cache_hit,
            "answer_cached": self.answer_cached,
            "plan_hits": self.plan_hits,
            "plan_misses": self.plan_misses,
        }


@dataclass(frozen=True)
class Explanation:
    """A structured, JSON-serializable explanation of one query's lifecycle.

    The tree reads top-down the way a request flows: the rewriting choice,
    then the physical plans the chosen rewriting compiles to, then the cache
    and materialization state serving the request.
    """

    query: str
    fingerprint: str
    algorithm: str
    mode: str
    rewriting: RewritingChoice
    evaluation: Evaluation
    caches: CacheReport
    materialization: Optional[Dict[str, Any]] = field(default=None)

    def to_json(self) -> Dict[str, Any]:
        """A dict of pure JSON types (see ``docs/explanation.schema.json``)."""
        return {
            "query": self.query,
            "fingerprint": self.fingerprint,
            "algorithm": self.algorithm,
            "mode": self.mode,
            "rewriting": self.rewriting.to_json(),
            "evaluation": self.evaluation.to_json(),
            "caches": self.caches.to_json(),
            "materialization": self.materialization,
        }

    def to_text(self) -> str:
        """A human-readable tree rendering (what ``repro explain`` prints)."""
        lines = [f"query: {self.query}"]
        lines.append(f"  fingerprint: {self.fingerprint}")
        choice = self.rewriting
        tag = " [cached]" if choice.cache_hit else ""
        lines.append(
            f"  rewriting ({choice.algorithm}, {self.mode}, "
            f"{choice.candidates_examined} candidates examined){tag}:"
        )
        if choice.found:
            lines.append(f"    chosen [{choice.kind}]: {choice.chosen}")
            if choice.views_used:
                lines.append(f"    views used: {', '.join(choice.views_used)}")
            for alt in choice.alternatives:
                lines.append(f"    alternative [{alt.kind}]: {alt.query}")
        else:
            lines.append("    no rewriting found")
        lines.append(
            f"  evaluation (target={self.evaluation.target}, "
            f"executor={self.evaluation.executor}):"
        )
        for plan in self.evaluation.plans:
            tag = " [plan cached]" if plan.cache_hit else ""
            lines.append(f"    plan [{plan.strategy}]{tag}: {plan.disjunct}")
            for step in plan.steps:
                key = (
                    f" key={list(step.key_positions)}" if step.key_positions else ""
                )
                filters = f" filters={step.filters}" if step.filters else ""
                distinct = " distinct" if step.distinct else ""
                lines.append(
                    f"      {step.operator} {step.predicate}/{step.arity}{key}{filters}"
                    f" keep={step.columns_kept}{distinct}"
                )
        caches = self.caches
        lines.append(
            f"  caches: rewrite_hit={caches.rewrite_cache_hit} "
            f"answer_cached={caches.answer_cached} "
            f"plans={caches.plan_hits}h/{caches.plan_misses}m"
        )
        if self.materialization is not None:
            lines.append(
                f"  materialization: {self.materialization.get('views', 0)} views, "
                f"{self.materialization.get('extent_rows', 0)} extent rows, "
                f"{self.materialization.get('deltas_applied', 0)} deltas applied"
            )
        return "\n".join(lines)
