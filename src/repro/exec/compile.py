"""Compile conjunctive queries into physical plans.

Compilation has three phases:

1. **Admission** — :func:`is_compilable` rejects queries containing function
   terms (Skolem terms introduced by the inverse-rules algorithm); those take
   the interpreter fallback (:mod:`repro.engine.evaluate`).
2. **Join ordering** — :func:`order_body` picks a left-deep pipeline order by
   estimated output cardinality, using the per-relation/per-position
   statistics of :mod:`repro.exec.stats`: start from the subgoal with the
   smallest estimated size after constant restrictions, then repeatedly take
   the connected subgoal (sharing a bound variable) with the smallest
   estimated extension; disconnected subgoals (cartesian products) are
   deferred until nothing connected remains.
3. **Operator construction** — every subgoal becomes a
   :class:`~repro.exec.plan.HashJoinStep` whose index key combines the
   subgoal's constants with its already-bound variables (positions sorted
   ascending, so isomorphic subgoals in different plans — e.g. the disjuncts
   of a union rewriting — share one relation index as their build side).
   Comparison subgoals become row filters attached to the earliest step that
   binds all their variables; ground comparisons are folded at compile time.
   Row layouts are per step and **liveness-aware**: a step keeps only the
   variables the head, a later subgoal or a later comparison still reads, so
   existential variables are dropped (and the rows deduplicated) by the step
   that last uses them, and a subgoal none of whose new variables survive
   compiles to a semi-join.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.datalog.atoms import Atom, Comparison
from repro.datalog.queries import ConjunctiveQuery
from repro.datalog.terms import Constant, FunctionTerm, Term, Variable
from repro.engine.database import Database
from repro.exec.plan import (
    HashJoinStep,
    PhysicalPlan,
    Source,
    compare_values,
    make_comparison_filter,
)
from repro.exec.stats import DatabaseStatistics, statistics_for


def _term_has_function(term: Term) -> bool:
    return isinstance(term, FunctionTerm)


def is_compilable(query: ConjunctiveQuery) -> bool:
    """Whether the set-at-a-time compiler supports this query.

    Function terms (anywhere: head, body, comparisons) need the interpreter's
    term-level grounding and are the fallback trigger.
    """
    for atom in (query.head, *query.body):
        if any(_term_has_function(term) for term in atom.args):
            return False
    for comparison in query.comparisons:
        if _term_has_function(comparison.left) or _term_has_function(comparison.right):
            return False
    return True


def order_body(
    query: ConjunctiveQuery, database: Database, stats: Optional[DatabaseStatistics] = None
) -> List[Atom]:
    """Cost-based left-deep join order for the query's body subgoals."""
    stats = stats if stats is not None else statistics_for(database)
    remaining = list(query.body)
    ordered: List[Atom] = []
    bound: set = set()
    while remaining:
        best_index = 0
        best_key: Optional[Tuple[int, float, int]] = None
        for index, atom in enumerate(remaining):
            restricted: List[int] = []
            connected = False
            for position, term in enumerate(atom.args):
                if isinstance(term, Constant):
                    restricted.append(position)
                elif isinstance(term, Variable) and term in bound:
                    restricted.append(position)
                    connected = True
            estimated = stats.estimated_rows(atom.predicate, tuple(restricted))
            # Prefer connected subgoals (or any subgoal for the first pick);
            # among those, the smallest estimated extension wins.  Index is
            # the deterministic tie-break.
            rank = 0 if (connected or not ordered) else 1
            key = (rank, estimated, index)
            if best_key is None or key < best_key:
                best_key = key
                best_index = index
        chosen = remaining.pop(best_index)
        ordered.append(chosen)
        bound.update(chosen.variables())
    return ordered


def try_compile(
    query: ConjunctiveQuery,
    database: Database,
    stats: Optional[DatabaseStatistics] = None,
) -> Optional[PhysicalPlan]:
    """Compile ``query`` into a :class:`PhysicalPlan`, or None if unsupported."""
    if not is_compilable(query):
        return None

    # Ground comparisons fold at compile time; a false one empties the plan.
    pending: List[Comparison] = []
    for comparison in query.comparisons:
        if not comparison.variables():
            left = comparison.left
            right = comparison.right
            assert isinstance(left, Constant) and isinstance(right, Constant)
            if not compare_values(comparison.op, left.value, right.value):
                return PhysicalPlan(query.name, (), (), always_empty=True)
        else:
            pending.append(comparison)

    ordered = order_body(query, database, stats)
    # Each comparison attaches to the earliest step binding all its variables
    # (those the body never binds are unreachable — the interpreter silently
    # never evaluates them, and neither do we).
    attached: List[List[Comparison]] = []
    bound: set = set()
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

    layout: Tuple[Variable, ...] = ()  # the variables of an in-flight row
    steps: List[HashJoinStep] = []
    for atom, comparisons, live in zip(ordered, attached, live_after):
        slots = {variable: slot for slot, variable in enumerate(layout)}
        keyed: List[Tuple[int, Source]] = []
        eq_pairs: List[Tuple[int, int]] = []
        first_new: Dict[Variable, int] = {}
        for position, term in enumerate(atom.args):
            if isinstance(term, Constant):
                keyed.append((position, (False, term.value)))
            elif isinstance(term, Variable):
                if term in slots:
                    keyed.append((position, (True, slots[term])))
                elif term in first_new:
                    eq_pairs.append((first_new[term], position))
                else:
                    first_new[term] = position
        # Sorted key positions so every plan joining this relation on the
        # same columns (notably sibling union disjuncts) shares one index.
        keyed.sort(key=lambda item: item[0])
        # Filters see the full row: the input columns, then the new ones.
        full = layout + tuple(first_new)
        for variable in first_new:
            slots[variable] = len(slots)
        keep = tuple(slot for slot, variable in enumerate(full) if variable in live)
        steps.append(
            HashJoinStep(
                predicate=atom.predicate,
                arity=len(atom.args),
                key_positions=tuple(p for p, _source in keyed),
                key_sources=tuple(source for _p, source in keyed),
                eq_pairs=tuple(eq_pairs),
                new_positions=tuple(first_new.values()),
                filters=tuple(
                    make_comparison_filter(
                        c.op, _source(c.left, slots), _source(c.right, slots)
                    )
                    for c in comparisons
                ),
                width=len(layout),
                keep=keep,
            )
        )
        layout = tuple(full[slot] for slot in keep)

    slots = {variable: slot for slot, variable in enumerate(layout)}
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
    )


def _source(term: Term, slots: Dict[Variable, int]) -> Source:
    if isinstance(term, Constant):
        return (False, term.value)
    assert isinstance(term, Variable)
    return (True, slots[term])
