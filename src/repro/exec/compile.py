"""Compile conjunctive queries into physical plans.

Compilation has three phases:

1. **Admission** — a query holding a function term (only inverse-rules
   programs do) raises :class:`~repro.errors.UnsupportedFeatureError`.
2. **Join ordering** — :func:`order_body` picks a left-deep pipeline order by
   the rows still *alive* after each subgoal, using the per-relation /
   per-position statistics of :mod:`repro.exec.stats`: a candidate's rows are
   the rows flowing in times its estimated matches, capped by the product of
   the distinct counts of the variables anything later still reads (the
   compiler drops the others and deduplicates).  So a chain whose head sits
   at one end is walked *towards* the head, every intermediate result one
   column wide.  Ties go to the smallest estimated extension; disconnected
   subgoals (cartesian products) wait until nothing connected remains.
   When one subgoal holds every head variable, :func:`_choose_order` also
   costs a **witness plan** opening on it (:mod:`repro.exec.plan`), in index
   entries touched, from the same estimates.  A pipeline touches the
   opening's live rows plus ``alive · max(1, matches)`` per later subgoal
   (``alive`` for a semi-join).  A witness plan over an opening of ``N``
   rows and ``K = min(N, Π distinct(head positions))`` keys, whose rows pass
   with ``p = (matches₀ / N) · Π_j min(1, matches_j)``, touches
   ``K + K·min(N/K, 1/p) + Σ_j lookups_j · max(1, e_j)``: tail level ``j`` is
   looked up at most once per memo key (``Π distinct`` of what it reads from
   before it) and enumerates ``e_j = min(matches_j, 1 / Π_{i>j} min(1,
   matches_i))`` entries per lookup.  It is taken only when strictly
   cheaper, so heads spanning several subgoals and selective tails keep
   the pipeline.  The chosen plan's cost is what :func:`estimate_cost`
   reports, and what the optimizer (:mod:`repro.rewriting.optimizer`)
   compares candidate plans by.
3. **Operator construction** — every subgoal becomes a
   :class:`~repro.exec.plan.HashJoinStep` whose index key combines the
   subgoal's constants and parameters with its already-bound variables
   (positions sorted ascending, so isomorphic subgoals in different plans —
   e.g. the disjuncts of a union rewriting — share one relation index as
   their build side).  Comparison subgoals become filters of the earliest
   step that binds all their variables; ground comparisons (constants and
   parameters only) become the plan's ``checks``, decided once per binding.
   Row layouts are per step and **liveness-aware**: a step keeps only the
   variables the head, a later subgoal or a later comparison still reads, so
   existential variables are dropped (and the rows deduplicated) by the step
   that last uses them, and a subgoal none of whose new variables survive
   compiles to a semi-join.  Each step generates its kernel as it is built
   (see :mod:`repro.exec.plan`); a witness plan's steps drop nothing.

**Parameters** are variables of the query bound from outside the pipeline
(``try_compile(..., parameters={variable: value})``): they never occupy a row
column, compile to reads of the plan's ``params`` tuple, and
:meth:`~repro.exec.plan.PhysicalPlan.bind` rebinds them by position.
"""

from __future__ import annotations

from math import prod
from typing import Any, Collection, Dict, List, Mapping, Optional, Tuple

from repro.datalog.atoms import Atom, Comparison
from repro.datalog.queries import ConjunctiveQuery, UnionQuery
from repro.datalog.terms import Constant, Term, Variable
from repro.engine.database import Database
from repro.exec.plan import Filter, HashJoinStep, PhysicalPlan, Source
from repro.exec.stats import DatabaseStatistics, statistics_for


#: One pick of :func:`order_body`: the rows in flight before the subgoal, its
#: estimated matches per row, the rows alive after it, the distinct-value
#: bound of each variable bound before it, and whether it is a semi-join.
_Pick = Tuple[float, float, float, Dict[Variable, int], bool]


def order_body(
    query: ConjunctiveQuery,
    database: Database,
    stats: Optional[DatabaseStatistics] = None,
    parameters: Collection[Variable] = (),
    first: Optional[int] = None,
    picks: Optional[List[_Pick]] = None,
) -> List[Atom]:
    """Cost-based left-deep join order for the query's body subgoals.

    ``parameters`` restrict a position the way a constant does (and, like a
    constant, connect nothing).  ``first`` is the index of a subgoal the
    order must open with; ``picks``, when given, receives each pick's
    estimates.
    """
    stats = stats if stats is not None else statistics_for(database)
    picks = picks if picks is not None else []
    remaining = list(query.body)
    ordered: List[Atom] = []
    # The variables the ordered subgoals bind, each with a bound on the
    # distinct values it can still take.
    domain: Dict[Variable, int] = {}
    alive = 1.0  # estimated rows in flight
    while remaining:
        best: Optional[Tuple[Tuple[int, float, float, int], Dict[Variable, int], bool]] = None
        for index, atom in enumerate(remaining):
            if first is not None and not ordered and index != first:
                continue
            restricted: List[int] = []
            connected = not ordered
            seen = dict(domain)
            for position, term in enumerate(atom.args):
                if isinstance(term, Constant) or term in parameters:
                    restricted.append(position)
                    continue
                if term in domain:
                    restricted.append(position)
                    connected = True
                distinct = stats.distinct(atom.predicate, position)
                seen[term] = min(seen.get(term, distinct), distinct)
            estimated = stats.estimated_rows(atom.predicate, tuple(restricted))
            # What is read after this subgoal: the head, the other subgoals,
            # and the comparisons it leaves undecided.  Everything else is
            # dropped here, so no more rows survive than those variables have
            # value combinations.
            read = set(query.head.variables())
            for other in remaining:
                if other is not atom:
                    read.update(other.variables())
            for comparison in query.comparisons:
                if not all(v in seen or v in parameters for v in comparison.variables()):
                    read.update(comparison.variables())
            live = min(alive * estimated, prod(seen[v] for v in read if v in seen))
            # Prefer connected subgoals (or any subgoal for the first pick);
            # among those, the fewest live rows, then the smallest estimated
            # extension.  Index is the deterministic tie-break.
            key = (0 if connected else 1, live, estimated, index)
            if best is None or key < best[0]:
                best = (key, seen, read.isdisjoint(set(seen) - set(domain)))
        assert best is not None
        (_rank, live, estimated, index), seen, semi_join = best
        picks.append((alive, estimated, live, domain, semi_join))
        alive, domain = live, seen
        ordered.append(remaining.pop(index))
    return ordered


def _pipeline_cost(picks: List[_Pick]) -> float:
    """Index entries a pipeline touches (see the module docstring)."""
    opening, *rest = picks
    return opening[2] + sum(a * (1.0 if semi else max(1.0, e)) for a, e, _l, _d, semi in rest)


def _witness_cost(
    query: ConjunctiveQuery, ordered: List[Atom], picks: List[_Pick], stats: DatabaseStatistics
) -> float:
    """Index entries a witness plan opening on ``ordered[0]`` touches (see the
    module docstring); every comparison variable counts as memo key."""
    opening = ordered[0]
    rows = stats.cardinality(opening.predicate)
    if not rows:
        return 0.0
    position = {term: p for p, term in reversed(list(enumerate(opening.args)))}
    keys = min(rows, prod(stats.distinct(opening.predicate, position[v]) for v in query.head.variables()))
    passing = picks[0][1] / rows
    found = [min(1.0, pick[1]) for pick in picks[1:]]
    success = passing * prod(found)
    tried = keys * min(rows / keys, 1 / success) if success else rows
    cost, reach = keys + tried, tried * passing
    for level, (_alive, estimated, _live, domain, _semi_join) in enumerate(picks[1:], 1):
        read = {v for atom in ordered[level:] for v in atom.variables()}
        read.update(v for comparison in query.comparisons for v in comparison.variables())
        lookups = min(reach, prod(domain[v] for v in read if v in domain))
        after = prod(found[level:])
        entries = min(estimated, 1 / after) if after else estimated
        cost += lookups * max(1.0, entries)
        reach = lookups * entries
    return cost


def _choose_order(
    query: ConjunctiveQuery,
    database: Database,
    stats: DatabaseStatistics,
    parameters: Collection[Variable],
) -> Tuple[List[Atom], bool, float]:
    """The body order to compile, whether it opens a witness plan (a tie
    keeps the pipeline), and its estimated cost."""
    picks: List[_Pick] = []
    best = order_body(query, database, stats, parameters, picks=picks)
    cost, witness = (_pipeline_cost(picks) if picks else 0.0), False
    if len(best) < 2:
        return best, witness, cost
    head = set(query.head.variables())
    for index, atom in enumerate(query.body):
        if head.issubset(atom.variables()):
            picks = []
            ordered = order_body(query, database, stats, parameters, index, picks)
            estimate = _witness_cost(query, ordered, picks, stats)
            if estimate < cost:
                best, cost, witness = ordered, estimate, True
    return best, witness, cost


def estimate_cost(query: "ConjunctiveQuery | UnionQuery", database: Database) -> float:
    """Index entries the plan :func:`try_compile` picks for ``query`` is
    estimated to touch (the cost it was picked by), summed over a union's
    disjuncts.  Nothing runs: the plan is priced from the statistics alone."""
    if isinstance(query, UnionQuery):
        return sum(estimate_cost(disjunct, database) for disjunct in query.disjuncts)
    query.reject_function_terms(f"query {query.name}")
    return _choose_order(query, database, statistics_for(database), ())[2]


def try_compile(
    query: ConjunctiveQuery,
    database: Database,
    stats: Optional[DatabaseStatistics] = None,
    parameters: Optional[Mapping[Variable, Any]] = None,
) -> PhysicalPlan:
    """Compile ``query`` into a :class:`PhysicalPlan`.

    ``parameters`` maps the variables bound from outside the pipeline to the
    values the returned plan is bound to, in ``params`` order.  A function
    term raises :class:`~repro.errors.UnsupportedFeatureError`.
    """
    query.reject_function_terms(f"query {query.name}")
    parameters = parameters or {}
    given: Dict[Variable, Source] = {
        variable: (None, index) for index, variable in enumerate(parameters)
    }
    # A ground comparison is decided when the plan is bound, not per row.
    checks = [c for c in query.comparisons if given.keys() >= set(c.variables())]
    pending = [c for c in query.comparisons if c not in checks]

    stats = stats if stats is not None else statistics_for(database)
    ordered, witness, _cost = _choose_order(query, database, stats, given.keys())
    # Each comparison attaches to the earliest step binding all its variables
    # (those the body never binds are unreachable — the interpreter silently
    # never evaluates them, and neither do we).
    attached: List[List[Comparison]] = []
    bound: set = set(given)
    for atom in ordered:
        bound.update(atom.variables())
        ready = [c for c in pending if bound.issuperset(c.variables())]
        attached.append(ready)
        pending = [c for c in pending if c not in ready]
    # Liveness: what the head, later subgoals and later comparisons still read
    # after each step.  Everything else is dropped by the step that binds it.
    live_after: List[frozenset] = []
    needed = set(query.head.variables())
    for atom, comparisons in zip(reversed(ordered), reversed(attached)):
        live_after.append(frozenset(needed))
        needed.update(atom.variables())
        for comparison in comparisons:
            needed.update(comparison.variables())
    live_after.reverse()

    # The variables of an in-flight row; a witness plan's levels never drop
    # one (its rows are the opening key's head columns, ``kept``).
    layout: Tuple[Variable, ...] = ()
    kept: Tuple[Variable, ...] = ()
    head = set(query.head.variables())
    steps: List[HashJoinStep] = []
    for atom, comparisons, live in zip(ordered, attached, live_after):
        sources = dict(given)
        sources.update((variable, (True, slot)) for slot, variable in enumerate(layout))
        keyed: List[Tuple[int, Source]] = []
        eq_pairs: List[Tuple[int, int]] = []
        first_new: Dict[Variable, int] = {}
        for position, term in enumerate(atom.args):
            if isinstance(term, Constant) or term in sources:
                keyed.append((position, _source(term, sources)))
            elif term in first_new:
                eq_pairs.append((first_new[term], position))
            else:
                assert isinstance(term, Variable)
                first_new[term] = position
        # Sorted key positions so every plan joining this relation on the
        # same columns (notably sibling union disjuncts) shares one index.
        keyed.sort(key=lambda item: item[0])
        # Filters see the full row: the input columns, then the new ones.
        full = layout + tuple(first_new)
        sources.update(
            (variable, (True, len(layout) + k)) for k, variable in enumerate(first_new)
        )
        keep = tuple(
            slot for slot, variable in enumerate(full) if variable in (head if witness else live)
        )
        kept = tuple(full[slot] for slot in keep)
        steps.append(
            HashJoinStep(
                predicate=atom.predicate,
                arity=len(atom.args),
                key_positions=tuple(p for p, _source in keyed),
                key_sources=tuple(source for _p, source in keyed),
                eq_pairs=tuple(eq_pairs),
                new_positions=tuple(first_new.values()),
                filters=tuple(_filter(c, sources) for c in comparisons),
                width=len(layout),
                keep=keep,
                # Projecting hashes every row anyway: a set built by the last
                # step would be hashed twice.
                rehashed=len(steps) + 1 == len(ordered) and query.head.args != kept,
                # A witness opening walks the keys of its head columns.
                scan_keys=tuple(first_new[v] for v in kept) if witness and not steps else None,
                witness=witness,
            )
        )
        layout = full if witness else kept

    slots = {variable: slot for slot, variable in enumerate(kept)}
    projection: List[Source] = []
    unbound: List[str] = []
    for term in query.head.args:
        if isinstance(term, Constant):
            projection.append((False, term.value))
        elif isinstance(term, Variable) and term in slots:
            projection.append((True, slots[term]))
        else:
            unbound.append(str(term))
            projection.append((False, None))
    return PhysicalPlan(
        query.name,
        steps,
        tuple(projection),
        unbound_head_terms=tuple(unbound),
        checks=tuple(_filter(c, given) for c in checks),
        params=tuple(parameters.values()),
        witness=witness,
    )


def _source(term: Term, sources: Mapping[Variable, Source]) -> Source:
    if isinstance(term, Constant):
        return (False, term.value)
    assert isinstance(term, Variable)
    return sources[term]


def _filter(comparison: Comparison, sources: Mapping[Variable, Source]) -> Filter:
    return (comparison.op, _source(comparison.left, sources), _source(comparison.right, sources))
