"""Evaluation of conjunctive queries and unions over in-memory databases.

Two execution engines sit behind the :func:`evaluate` front door:

* the **compiled, set-at-a-time engine** (:mod:`repro.exec`, the default):
  queries are compiled into physical plans — indexed scans feeding hash-join
  pipelines with cost-based join ordering — that operate on whole relations
  at a time, with plan caching keyed by query shape and database identity;
* the **backtracking interpreter** (this module): subgoals are ordered
  greedily, candidate tuples are fetched through hash indexes on the
  currently-bound argument positions one binding at a time, and comparison
  subgoals are checked as soon as both sides are ground.

The interpreter remains the fallback for queries the compiler does not
admit — anything containing function terms (the Skolem terms of the
inverse-rules algorithm) — and the engine of choice for lazy enumeration
(:func:`evaluate_substitutions`, :func:`evaluate_boolean`, and the delta
rules of :mod:`repro.materialize.counting`, which all want bindings one at a
time).  Pick an engine per call with ``evaluate(..., executor=...)``.

Both engines fill the same :class:`EvaluationStatistics`, which the cost
model (:mod:`repro.engine.cost`) uses to compare the work needed to answer a
query directly against the work needed to answer its rewriting over
materialized views — the paper's query-optimization motivation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import EvaluationError
from repro.datalog.atoms import Atom, Comparison
from repro.datalog.queries import ConjunctiveQuery, UnionQuery
from repro.datalog.terms import Constant, FunctionTerm, Term, Variable
from repro.engine.database import Database
from repro.engine.relation import Relation, SkolemValue


@dataclass
class EvaluationStatistics:
    """Counters describing the work done by one or more evaluations."""

    #: Candidate tuples fetched from relations (index hits or scan rows).
    probes: int = 0
    #: Successful extensions of a partial binding by one subgoal.
    extensions: int = 0
    #: Number of answer tuples produced (before de-duplication).
    answers: int = 0
    #: Number of subgoals evaluated (per top-level call).
    subgoals: int = 0

    def merge(self, other: "EvaluationStatistics") -> None:
        self.probes += other.probes
        self.extensions += other.extensions
        self.answers += other.answers
        self.subgoals += other.subgoals

    @property
    def work(self) -> int:
        """A single scalar summarizing evaluation effort."""
        return self.probes + self.extensions


def _candidate_rows(
    relation: Relation, positions: Tuple[int, ...], key: Tuple[Any, ...]
) -> Sequence[Tuple[Any, ...]]:
    """Candidate tuples matching ``key`` on ``positions``.

    Relations maintain their per-position hash indexes incrementally (see
    :meth:`Relation.index_on`), so this is a dictionary lookup — there is no
    per-evaluation index build any more, and indexes survive across
    evaluations and small data deltas.
    """
    if not positions:
        return tuple(relation)
    return relation.index_on(positions).get(key, ())


Binding = Dict[Variable, Any]


def _ground_term(term: Term, binding: Binding) -> Tuple[bool, Any]:
    """Resolve a term to a value under a binding.

    Returns ``(True, value)`` when the term is ground under the binding and
    ``(False, None)`` otherwise.
    """
    if isinstance(term, Constant):
        return True, term.value
    if isinstance(term, Variable):
        if term in binding:
            return True, binding[term]
        return False, None
    if isinstance(term, FunctionTerm):
        values = []
        for arg in term.args:
            ok, value = _ground_term(arg, binding)
            if not ok:
                return False, None
            values.append(value)
        return True, SkolemValue(term.function, values)
    raise EvaluationError(f"cannot evaluate term {term!r}")


def _order_subgoals(query: ConjunctiveQuery, database: Database) -> List[Atom]:
    """Greedy join order: smallest relations first, then maximize bound variables.

    This is the interpreter (fallback) path's ordering; the compiled engine
    has its own cost-based ordering in :func:`repro.exec.compile.order_body`.
    Each iteration selects the minimum-score subgoal directly instead of
    re-sorting the whole remaining list, so ordering is O(n²) comparisons
    rather than O(n² log n).
    """
    remaining = list(query.body)
    if not remaining:
        return []

    def relation_size(atom: Atom) -> int:
        relation = database.relation(atom.predicate)
        return len(relation) if relation is not None else 0

    ordered: List[Atom] = []
    bound: set = set()
    # Seed with the most selective subgoal (fewest tuples, most constants).
    first = min(remaining, key=lambda a: (relation_size(a), -len(a.constants())))
    remaining.remove(first)
    ordered.append(first)
    bound.update(first.variables())
    while remaining:
        def score(atom: Atom) -> Tuple[int, int]:
            shared = sum(1 for v in atom.variables() if v in bound)
            return (-shared, relation_size(atom))

        chosen = min(remaining, key=score)
        remaining.remove(chosen)
        ordered.append(chosen)
        bound.update(chosen.variables())
    return ordered


def _comparison_ready(comparison: Comparison, binding: Binding) -> Optional[bool]:
    """Evaluate a comparison if both sides are ground; return None when not yet ground."""
    left_ok, left = _ground_term(comparison.left, binding)
    right_ok, right = _ground_term(comparison.right, binding)
    if not (left_ok and right_ok):
        return None
    if isinstance(left, SkolemValue) or isinstance(right, SkolemValue):
        # Skolem values are only comparable by (dis)equality.
        if comparison.op.value in ("=", "!="):
            return comparison.op.evaluate(left, right)
        return False
    return comparison.op.evaluate(left, right)


def evaluate_substitutions(
    query: ConjunctiveQuery,
    database: Database,
    statistics: Optional[EvaluationStatistics] = None,
) -> Iterator[Binding]:
    """Yield every satisfying assignment of the query's variables over the database.

    Assignments map variables to raw values; the caller projects onto the head
    to obtain answers.  Duplicates (assignments differing only on variables
    that do not occur in the query) are not produced because every variable in
    the binding occurs in the body.
    """
    stats = statistics if statistics is not None else EvaluationStatistics()
    ordered = _order_subgoals(query, database)
    stats.subgoals += len(ordered)
    comparisons = list(query.comparisons)

    # Boolean query with empty body: the head must be ground and always holds.
    if not ordered:
        if all(_comparison_ready(c, {}) for c in comparisons):
            yield {}
        return

    def check_comparisons(binding: Binding) -> bool:
        for comparison in comparisons:
            result = _comparison_ready(comparison, binding)
            if result is False:
                return False
        return True

    def extend(position: int, binding: Binding) -> Iterator[Binding]:
        if position == len(ordered):
            yield dict(binding)
            return
        atom = ordered[position]
        relation = database.relation(atom.predicate)
        if relation is None or len(relation) == 0:
            return
        if relation.arity != len(atom.args):
            raise EvaluationError(
                f"subgoal {atom} has arity {len(atom.args)} but relation "
                f"{relation.name} has arity {relation.arity}"
            )
        bound_positions: List[int] = []
        bound_values: List[Any] = []
        for index, term in enumerate(atom.args):
            ok, value = _ground_term(term, binding)
            if ok:
                bound_positions.append(index)
                bound_values.append(value)
        candidates = _candidate_rows(relation, tuple(bound_positions), tuple(bound_values))
        for row in candidates:
            stats.probes += 1
            new_binding = dict(binding)
            success = True
            for index, term in enumerate(atom.args):
                value = row[index]
                ok, ground_value = _ground_term(term, new_binding)
                if ok:
                    if ground_value != value:
                        success = False
                        break
                elif isinstance(term, Variable):
                    new_binding[term] = value
                else:
                    # A non-ground function term cannot be matched against a value.
                    success = False
                    break
            if not success:
                continue
            if not check_comparisons(new_binding):
                continue
            stats.extensions += 1
            yield from extend(position + 1, new_binding)

    yield from extend(0, {})


def evaluate_conjunctive_interpreted(
    query: ConjunctiveQuery,
    database: Database,
    statistics: Optional[EvaluationStatistics] = None,
) -> FrozenSet[Tuple[Any, ...]]:
    """Evaluate one conjunctive query with the backtracking interpreter.

    This is the engine the compiled executor falls back to; use
    :func:`evaluate` unless you specifically need the interpreter.
    """
    stats = statistics if statistics is not None else EvaluationStatistics()
    results: set = set()
    for binding in evaluate_substitutions(query, database, stats):
        row = []
        for term in query.head.args:
            ok, value = _ground_term(term, binding)
            if not ok:
                raise EvaluationError(
                    f"head term {term} of query {query.name} is not bound by the body"
                )
            row.append(value)
        stats.answers += 1
        results.add(tuple(row))
    return frozenset(results)


def evaluate(
    query: "ConjunctiveQuery | UnionQuery",
    database: Database,
    statistics: Optional[EvaluationStatistics] = None,
    executor: Optional[Any] = None,
) -> FrozenSet[Tuple[Any, ...]]:
    """Evaluate a query and return its set of answer tuples.

    For a union query, the result is the union of the disjuncts' answers.

    ``executor`` picks the execution engine: ``"compiled"`` (set-at-a-time
    physical plans, the default), ``"interpreted"`` (the backtracking
    interpreter), an executor instance (e.g. an engine-owned
    :class:`repro.exec.CompiledExecutor` with its own plan cache); None
    means ``"compiled"``.
    Both engines return identical answer sets; the compiled engine falls
    back to the interpreter per-disjunct for queries with function terms.
    """
    from repro.exec import resolve_executor  # deferred: repro.exec imports us

    stats = statistics if statistics is not None else EvaluationStatistics()
    return resolve_executor(executor).evaluate(query, database, stats)


def evaluate_boolean(
    query: "ConjunctiveQuery | UnionQuery",
    database: Database,
    statistics: Optional[EvaluationStatistics] = None,
) -> bool:
    """Whether the query has at least one answer over the database.

    Always uses the interpreter: its lazy enumeration stops at the first
    satisfying assignment, which the set-at-a-time engine (computing the
    whole answer set) cannot beat for existence checks.
    """
    if isinstance(query, UnionQuery):
        return any(evaluate_boolean(q, database, statistics) for q in query.disjuncts)
    for _ in evaluate_substitutions(query, database, statistics):
        return True
    return False


def materialize_views(
    views: Iterable, database: Database, executor: Optional[Any] = None
) -> Database:
    """Materialize a collection of views over a base database.

    Returns a new database with one relation per view, named after the view
    and containing the view's answers over ``database``.  This is the "view
    instance" against which rewritings are evaluated.  Each definition is
    evaluated through ``executor`` (default: the compiled engine).
    """
    from repro.datalog.views import View, ViewSet  # local import to avoid a cycle

    out = Database()
    for view in views:
        if not isinstance(view, View):
            raise EvaluationError(f"materialize_views expects View objects, got {view!r}")
        answers = evaluate(view.definition, database, executor=executor)
        out.ensure_relation(view.name, view.arity)
        for row in answers:
            out.add_fact(view.name, row)
    return out
