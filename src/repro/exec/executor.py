"""The compiled executor: plan caching and union evaluation.

:class:`CompiledExecutor` is what every engine holds and what
:func:`repro.engine.evaluate.evaluate` runs (:data:`SHARED_EXECUTOR`) unless
the call names the interpreter.  It keeps a bounded LRU of compiled plans
keyed by ``(query shape, database identity)``:

* the *shape* is the canonical query (:meth:`ConjunctiveQuery.canonical`:
  variable names and subgoal order abstracted away) with every body and
  comparison constant lifted to a parameter, so one plan — one join order,
  one set of generated kernels (:mod:`repro.exec.plan`) — serves every query
  that differs from it only in its constants; a hit binds the request's
  constants (:meth:`~repro.exec.plan.PhysicalPlan.bind`), which is where a
  ground comparison is decided;
* an entry outlives ``database.version``: kernels look relations and indexes
  up by name on every run, so a plan is *correct* over any contents, and only
  the cost-based join order can go stale — an entry is retired when some
  relation it reads has grown or shrunk more than 2x since it was costed;
* database identity is held weakly and revalidated, so an ``id()`` reuse
  after garbage collection can never resurrect another database's plan (and a
  re-materialized view instance, being a new object, starts cold).

Union queries are evaluated disjunct by disjunct through the same cache; the
hash-join build sides live on the relations themselves (see
:mod:`repro.exec.plan`), so the many disjuncts of a maximally-contained
rewriting probing the same views share one set of build tables.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from repro.datalog.atoms import Atom, Comparison
from repro.datalog.queries import ConjunctiveQuery, UnionQuery
from repro.datalog.terms import Constant, Term, Variable
from repro.engine.database import Database
from repro.engine.evaluate import EvaluationStatistics
from repro.exec.compile import try_compile
from repro.exec.plan import PhysicalPlan


def _lift(query: ConjunctiveQuery) -> Tuple[ConjunctiveQuery, Tuple[Any, ...]]:
    """The query with its body and comparison constants lifted to parameters.

    Returns the constant-free shape and the lifted values in order of
    occurrence; one parameter ``$i`` per occurrence, so ``r(X, 1), s(X, 1)``
    and ``r(X, 1), s(X, 2)`` share a shape.  A name starting with ``$``
    cannot collide with a canonical query's ``V1, V2, ...``.
    """
    values: List[Any] = []

    def lifted(term: Term) -> Term:
        if not isinstance(term, Constant):
            return term
        values.append(term.value)
        return Variable(f"${len(values) - 1}")

    body = [Atom(atom.predicate, map(lifted, atom.args)) for atom in query.body]
    comparisons = [Comparison(lifted(c.left), c.op, lifted(c.right)) for c in query.comparisons]
    if not values:
        return query, ()
    return ConjunctiveQuery(query.head, body, comparisons, require_safe=False), tuple(values)


def _sizes(plan: PhysicalPlan, database: Database) -> Tuple[int, ...]:
    """The cardinality of the relation each step of ``plan`` reads."""
    return tuple(len(database.relation(step.predicate) or ()) for step in plan.steps)


class CompiledExecutor:
    """Set-at-a-time evaluation with a bounded cache of shape-keyed plans."""

    name = "compiled"

    def __init__(self, plan_cache_size: int = 256):
        self.plan_cache_size = plan_cache_size
        # (shape, id(database)) -> (weak database, plan bound to the first
        # query's constants, relation sizes the order was costed at)
        self._plans: "OrderedDict[Tuple[ConjunctiveQuery, int], Tuple[Any, ...]]" = OrderedDict()
        self.plan_hits = 0
        self.plan_misses = 0

    # -- evaluation -------------------------------------------------------------
    def evaluate(
        self,
        query: "ConjunctiveQuery | UnionQuery",
        database: Database,
        statistics: Optional[EvaluationStatistics] = None,
    ) -> FrozenSet[Tuple[Any, ...]]:
        """Evaluate a query set-at-a-time, a union disjunct by disjunct."""
        stats = statistics if statistics is not None else EvaluationStatistics()
        if isinstance(query, UnionQuery):
            answers: set = set()
            for disjunct in query.disjuncts:
                answers |= self.evaluate(disjunct, database, stats)
            return frozenset(answers)
        return self.plan_for(query, database).execute(database, stats)

    # -- plan cache -------------------------------------------------------------
    def plan_for(self, query: ConjunctiveQuery, database: Database) -> PhysicalPlan:
        """The cached (or freshly compiled) plan for a query over a database.

        The plan is bound to this query's constants.  A query holding a
        function term raises :class:`~repro.errors.UnsupportedFeatureError`.
        """
        # Compile from the canonical variant: its answer set is identical
        # (variables are renamed bijectively), and the plan then serves every
        # isomorphic-with-matching-canonical-form query.
        return self.bound_plan(*self.plan_key(query), database)

    @staticmethod
    def plan_key(query: ConjunctiveQuery) -> Tuple[ConjunctiveQuery, Tuple[Any, ...]]:
        """``(shape, values)`` such that ``bound_plan(shape, values, database)``
        is the plan of ``query``."""
        return _lift(query.canonical())

    def bound_plan(
        self, shape: ConjunctiveQuery, values: Tuple[Any, ...], database: Database
    ) -> PhysicalPlan:
        """The plan of a lifted ``shape``, bound to ``values`` for its ``$i``."""
        key = (shape, id(database))
        entry = self._plans.get(key)
        if entry is not None:
            ref, plan, costed = entry
            if ref() is database and all(
                now <= 2 * then and then <= 2 * now
                for now, then in zip(_sizes(plan, database), costed)
            ):
                self.plan_hits += 1
                self._plans.move_to_end(key)
                return plan.bind(values)
            del self._plans[key]
        self.plan_misses += 1
        # Costed now, against these sizes, and bound to this query's constants.
        parameters = {Variable(f"${i}"): value for i, value in enumerate(values)}
        plan = try_compile(shape, database, parameters=parameters)
        self._plans[key] = (weakref.ref(database), plan, _sizes(plan, database))
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
        }

    def __repr__(self) -> str:
        return (
            f"CompiledExecutor(plans={len(self._plans)}, hits={self.plan_hits}, "
            f"misses={self.plan_misses})"
        )


#: What :func:`repro.engine.evaluate.evaluate` runs when a call names no
#: executor: one plan cache for the process.
SHARED_EXECUTOR = CompiledExecutor()
