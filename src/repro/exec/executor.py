"""The compiled executor: plan caching, union evaluation, interpreter fallback.

:class:`CompiledExecutor` is the object :func:`repro.engine.evaluate.evaluate`
delegates to by default.  It keeps a bounded LRU of compiled plans keyed by
``(canonical query, database identity, database version)``:

* the *canonical query* (:meth:`ConjunctiveQuery.canonical`) makes plans
  shareable across queries that differ only in variable names and subgoal
  order — exactly the sharing the service layer's fingerprint caches exploit;
* the *database version* retires a plan when the data changes, because the
  cost-based join order was chosen against the old statistics (a stale plan
  would still be correct, but could be slow);
* database identity is held weakly and revalidated, so an ``id()`` reuse
  after garbage collection can never resurrect another database's plan.

Union queries are evaluated disjunct by disjunct through the same cache; the
hash-join build sides live on the relations themselves (see
:mod:`repro.exec.plan`), so the many disjuncts of a maximally-contained
rewriting probing the same views share one set of build tables.

Queries the compiler rejects (function terms — see
:func:`repro.exec.compile.is_compilable`) fall back to the backtracking
interpreter, preserving its semantics bit for bit.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from typing import Any, Dict, FrozenSet, Optional, Tuple

from repro.errors import StorageError
from repro.datalog.queries import ConjunctiveQuery, UnionQuery
from repro.datalog.terms import Constant, Variable
from repro.engine.database import Database
from repro.engine.evaluate import (
    EvaluationStatistics,
    evaluate_conjunctive_interpreted,
)
from repro.exec.compile import try_compile
from repro.exec.plan import PhysicalPlan


def pushdown_single_atom(
    query: ConjunctiveQuery, database: Database
) -> Optional[FrozenSet[Tuple[Any, ...]]]:
    """Answer a single-atom query straight from a storage backend, or None.

    The fast path for point/selection queries over a
    :class:`~repro.storage.backed.BackedDatabase`: when the query is one
    atom with only constants and variables (no comparisons), its constant
    positions become backend-side equality filters (a SQL ``WHERE`` on the
    sqlite backend) and the head projection is applied here — the relation
    is never hydrated.  Returns None whenever the database has no
    ``storage_scan`` hook, the hook declines (hot relation, no pushdown
    capability), the query shape does not fit, or the backend errors
    (falling back to the normal in-memory path is always sound).
    """
    scan = getattr(database, "storage_scan", None)
    if scan is None or query.comparisons or len(query.body) != 1:
        return None
    atom = query.body[0]
    bindings: Dict[int, Any] = {}
    var_positions: Dict[str, int] = {}
    repeated = []  # (first, later) position pairs bound to one variable
    for position, term in enumerate(atom.args):
        if isinstance(term, Constant):
            bindings[position] = term.value
        elif isinstance(term, Variable):
            first = var_positions.setdefault(term.name, position)
            if first != position:
                repeated.append((first, position))
        else:
            return None  # function terms etc.: not this fast path
    projection = []  # (is_position, position_or_constant) per head slot
    for term in query.head.args:
        if isinstance(term, Constant):
            projection.append((False, term.value))
        elif isinstance(term, Variable) and term.name in var_positions:
            projection.append((True, var_positions[term.name]))
        else:
            return None  # unbound head variable: let the normal path decide
    try:
        rows = scan(atom.predicate, bindings or None)
        if rows is None:
            return None
        answers = set()
        for row in rows:
            if any(row[first] != row[later] for first, later in repeated):
                continue
            answers.add(
                tuple(row[value] if is_pos else value for is_pos, value in projection)
            )
    except StorageError:
        return None
    return frozenset(answers)


class CompiledExecutor:
    """Set-at-a-time evaluation with a bounded, version-validated plan cache."""

    name = "compiled"

    def __init__(self, plan_cache_size: int = 256):
        self.plan_cache_size = plan_cache_size
        self._plans: "OrderedDict[Tuple[Any, int, int], Tuple[Any, Optional[PhysicalPlan]]]" = (
            OrderedDict()
        )
        self.plan_hits = 0
        self.plan_misses = 0
        #: Evaluations that took the interpreter fallback (function terms).
        self.fallbacks = 0
        #: Single-atom evaluations served by a storage backend scan.
        self.pushdowns = 0

    # -- evaluation -------------------------------------------------------------
    def evaluate(
        self,
        query: "ConjunctiveQuery | UnionQuery",
        database: Database,
        statistics: Optional[EvaluationStatistics] = None,
    ) -> FrozenSet[Tuple[Any, ...]]:
        """Evaluate a query set-at-a-time; falls back per-disjunct if needed."""
        stats = statistics if statistics is not None else EvaluationStatistics()
        if isinstance(query, UnionQuery):
            answers: set = set()
            for disjunct in query.disjuncts:
                answers |= self.evaluate(disjunct, database, stats)
            return frozenset(answers)
        pushed = pushdown_single_atom(query, database)
        if pushed is not None:
            self.pushdowns += 1
            return pushed
        plan = self.plan_for(query, database)
        if plan is None:
            self.fallbacks += 1
            return evaluate_conjunctive_interpreted(query, database, stats)
        return plan.execute(database, stats)

    # -- plan cache -------------------------------------------------------------
    def plan_for(
        self, query: ConjunctiveQuery, database: Database
    ) -> Optional[PhysicalPlan]:
        """The cached (or freshly compiled) plan for a query over a database.

        Returns None for queries the compiler does not support; the negative
        result is cached too, so unsupported hot queries pay the admission
        check only once per database version.
        """
        if self.plan_cache_size <= 0:
            return try_compile(query, database)
        canonical = query.canonical()
        key = (canonical, id(database), database.version)
        entry = self._plans.get(key)
        if entry is not None:
            ref, plan = entry
            if ref() is database:
                self.plan_hits += 1
                self._plans.move_to_end(key)
                return plan
            del self._plans[key]
        self.plan_misses += 1
        # Compile from the canonical variant: its answer set is identical
        # (variables are renamed bijectively), and the plan then serves every
        # isomorphic-with-matching-canonical-form query.
        plan = try_compile(canonical, database)
        self._plans[key] = (weakref.ref(database), plan)
        while len(self._plans) > self.plan_cache_size:
            self._plans.popitem(last=False)
        return plan

    def clear(self) -> None:
        """Drop every cached plan."""
        self._plans.clear()

    # -- introspection ----------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        return {
            "executor": self.name,
            "plans_cached": len(self._plans),
            "plan_cache_size": self.plan_cache_size,
            "plan_hits": self.plan_hits,
            "plan_misses": self.plan_misses,
            "fallbacks": self.fallbacks,
            "pushdowns": self.pushdowns,
        }

    def __repr__(self) -> str:
        return (
            f"CompiledExecutor(plans={len(self._plans)}, hits={self.plan_hits}, "
            f"misses={self.plan_misses}, fallbacks={self.fallbacks})"
        )


class InterpretedExecutor:
    """The backtracking interpreter behind the same executor interface.

    Exists so front ends can treat ``--executor interpreted`` uniformly; it
    has no plan cache and no statistics beyond the evaluation counters.
    """

    name = "interpreted"

    def evaluate(
        self,
        query: "ConjunctiveQuery | UnionQuery",
        database: Database,
        statistics: Optional[EvaluationStatistics] = None,
    ) -> FrozenSet[Tuple[Any, ...]]:
        stats = statistics if statistics is not None else EvaluationStatistics()
        if isinstance(query, UnionQuery):
            answers: set = set()
            for disjunct in query.disjuncts:
                answers |= self.evaluate(disjunct, database, stats)
            return frozenset(answers)
        return evaluate_conjunctive_interpreted(query, database, stats)

    def stats(self) -> Dict[str, Any]:
        return {"executor": self.name}

    def __repr__(self) -> str:
        return "InterpretedExecutor()"
