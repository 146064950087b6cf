"""Evaluation of conjunctive queries and unions over in-memory databases.

Two evaluators sit behind the :func:`evaluate` front door:

* the **compiled, set-at-a-time engine** (:mod:`repro.exec`, what every
  engine runs and what ``evaluate`` runs by default): queries are compiled
  into physical plans — indexed scans feeding hash-join pipelines with
  cost-based join ordering — that operate on whole relations at a time, with
  plan caching keyed by query shape and database identity;
* the **backtracking interpreter** (this module): subgoals are ordered
  greedily, candidate tuples are fetched through hash indexes on the
  currently-bound argument positions one binding at a time, and each
  comparison is checked as soon as both its sides are ground.

The interpreter is the reference semantics (``evaluate(...,
executor="interpreted")``), the fallback for queries the compiler does not
admit — anything containing function terms (the Skolem terms of the
inverse-rules algorithm) — and the one loop that enumerates bindings lazily.
That loop, :func:`join_subgoals`, reads one row source per subgoal:
:func:`evaluate_substitutions` and :func:`evaluate_boolean` run it over a
database's relations, and the delta rules of
:mod:`repro.materialize.counting` over delta rows and overlaid relation
states.

Both evaluators fill the same :class:`EvaluationStatistics`, which the cost
model (:mod:`repro.engine.cost`) uses to compare the work needed to answer a
query directly against the work needed to answer its rewriting over
materialized views — the paper's query-optimization motivation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any, Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple,
)

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


Binding = Dict[Variable, Any]

#: The candidate rows of one subgoal: ``source(positions, key)`` returns the
#: rows carrying ``key`` at ``positions`` (every row when ``positions`` is
#: empty).  More rows are harmless: the join matches every row it fetches.
RowSource = Callable[[Tuple[int, ...], Tuple[Any, ...]], Iterable[Tuple[Any, ...]]]


def _relation_rows(relation: Optional[Relation], atom: Atom) -> RowSource:
    """A database relation as the row source of ``atom``.

    Relations maintain their per-position hash indexes incrementally (see
    :meth:`Relation.index_on`), so a keyed fetch is a dictionary lookup.  A
    missing or empty relation has no rows; one whose arity is not the
    subgoal's raises when a binding first reaches the subgoal.
    """

    def rows(positions: Tuple[int, ...], key: Tuple[Any, ...]) -> Iterable[Tuple[Any, ...]]:
        if relation is None or len(relation) == 0:
            return ()
        if relation.arity != len(atom.args):
            raise EvaluationError(
                f"subgoal {atom} has arity {len(atom.args)} but relation "
                f"{relation.name} has arity {relation.arity}"
            )
        if not positions:
            return tuple(relation)
        return relation.index_on(positions).get(key, ())

    return rows


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


def order_subgoals(
    atoms: Sequence[Atom],
    size: Callable[[int], int],
    bound: Optional[Iterable[Variable]] = None,
) -> List[int]:
    """A greedy join order over ``atoms``, as indexes into it.

    ``size(i)`` is the row count of subgoal ``i``'s source and ``bound`` the
    variables a subgoal already placed before them binds.  With none placed
    (``bound`` None), the first pick is the smallest source, then the one
    with the most constants; every other pick shares the most bound
    variables, then has the smallest source.  Ties go in body order.  The
    interpreter orders a query body this way, and counting the subgoals of
    a delta rule after its seed; the compiled engine has its own cost-based
    ordering in :func:`repro.exec.compile.order_body`.
    """
    remaining = list(range(len(atoms)))
    ordered: List[int] = []
    if bound is None and remaining:
        ordered.append(min(remaining, key=lambda i: (size(i), -len(atoms[i].constants()))))
        remaining.remove(ordered[0])
    bound = set(bound or ()).union(*(atoms[i].variables() for i in ordered))
    while len(remaining) > 1:
        chosen = min(
            remaining, key=lambda i: (-sum(v in bound for v in atoms[i].variables()), size(i))
        )
        remaining.remove(chosen)
        ordered.append(chosen)
        bound.update(atoms[chosen].variables())
    return ordered + remaining


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


_UNBOUND = object()


def _match(args: Sequence[Term], row: Tuple[Any, ...], binding: Binding) -> Optional[Binding]:
    """``binding`` extended so that ``args`` match ``row``, or None on a clash.

    Arguments are matched left to right, so a function term matches only
    when the variables it reads are bound before it.
    """
    extended = dict(binding)
    for term, value in zip(args, row):
        if isinstance(term, Variable):
            bound = extended.get(term, _UNBOUND)
            if bound is _UNBOUND:
                extended[term] = value
            elif bound != value:
                return None
        elif isinstance(term, Constant):
            if term.value != value:
                return None
        else:
            ok, ground = _ground_term(term, extended)
            if not ok or ground != value:
                return None
    return extended


def join_subgoals(
    subgoals: Sequence[Tuple[Atom, RowSource]],
    comparisons: Sequence[Comparison],
    statistics: EvaluationStatistics,
) -> Iterator[Binding]:
    """Yield every binding that matches each subgoal's atom against a row of
    its source, in the order given, and satisfies ``comparisons``.

    The one backtracking join.  Each subgoal fetches the rows of its source
    keyed on its arguments already ground, and a comparison is checked right
    after the first subgoal that leaves it ground (one that never becomes
    ground holds).  ``probes`` counts the rows fetched, ``extensions`` the
    bindings that survive their subgoal.
    """
    if not subgoals:
        if all(_comparison_ready(c, {}) for c in comparisons):
            yield {}
        return
    checks: List[Sequence[Comparison]] = [()] * len(subgoals)
    if comparisons:
        bound: set = set()
        pending = list(comparisons)
        for step, (atom, _) in enumerate(subgoals):
            bound.update(atom.variables())
            checks[step] = [c for c in pending if bound.issuperset(c.variables())]
            pending = [c for c in pending if not bound.issuperset(c.variables())]
    last = len(subgoals) - 1

    def rows(step: int, binding: Binding) -> Iterator[Tuple[Any, ...]]:
        atom, source = subgoals[step]
        positions: List[int] = []
        key: List[Any] = []
        for position, term in enumerate(atom.args):
            ok, value = _ground_term(term, binding)
            if ok:
                positions.append(position)
                key.append(value)
        return iter(source(tuple(positions), tuple(key)))

    # Iterative backtracking: one row iterator and one binding per open
    # subgoal, so a yielded binding passes through one generator frame.
    bindings: List[Binding] = [{}]
    pending_rows = [rows(0, {})]
    while pending_rows:
        step = len(pending_rows) - 1
        args, binding = subgoals[step][0].args, bindings[step]
        for row in pending_rows[step]:
            statistics.probes += 1
            extended = _match(args, row, binding)
            if extended is None or (
                checks[step]
                and any(_comparison_ready(c, extended) is False for c in checks[step])
            ):
                continue
            statistics.extensions += 1
            if step == last:
                yield extended
            else:
                bindings.append(extended)
                pending_rows.append(rows(step + 1, extended))
                break
        else:
            pending_rows.pop()
            bindings.pop()


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
    body = query.body
    relations = [database.relation(atom.predicate) for atom in body]
    order = order_subgoals(
        body, lambda i: len(relations[i]) if relations[i] is not None else 0
    )
    stats.subgoals += len(order)
    subgoals = [(body[i], _relation_rows(relations[i], body[i])) for i in order]
    yield from join_subgoals(subgoals, query.comparisons, stats)


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

    ``executor`` is None or ``"compiled"`` (the process-shared
    :class:`repro.exec.CompiledExecutor`), a ``CompiledExecutor`` of the
    caller's own (an engine's, with its own plan cache), or
    ``"interpreted"`` (the backtracking interpreter, the reference
    semantics); anything else raises :class:`EvaluationError`.  Both
    evaluators return identical answer sets; the compiled engine falls back
    to the interpreter per disjunct for queries with function terms.
    """
    from repro.exec.executor import SHARED_EXECUTOR, CompiledExecutor  # repro.exec imports us

    stats = statistics if statistics is not None else EvaluationStatistics()
    if executor == "interpreted":
        disjuncts = query.disjuncts if isinstance(query, UnionQuery) else (query,)
        return frozenset().union(
            *(evaluate_conjunctive_interpreted(d, database, stats) for d in disjuncts)
        )
    if executor is None or executor == "compiled":
        executor = SHARED_EXECUTOR
    elif not isinstance(executor, CompiledExecutor):
        raise EvaluationError(
            f"unknown executor {executor!r}; expected one of compiled, interpreted"
        )
    return executor.evaluate(query, database, stats)


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
    evaluated through ``executor`` (see :func:`evaluate`).
    """
    from repro.datalog.views import View  # local import to avoid a cycle

    out = Database()
    for view in views:
        if not isinstance(view, View):
            raise EvaluationError(f"materialize_views expects View objects, got {view!r}")
        answers = evaluate(view.definition, database, executor=executor)
        out.ensure_relation(view.name, view.arity)
        for row in answers:
            out.add_fact(view.name, row)
    return out
