"""Counting-based incremental maintenance of conjunctive views.

The classical counting (multiplicity) algorithm: alongside each view extent,
keep the number of *derivations* of every output row — the number of
satisfying assignments of the view body producing it.  A delta then adjusts
counts instead of recomputing extents, which makes deletions exact: a row
leaves the extent only when its last derivation disappears.

For a view body ``A1, ..., An`` and a batch delta applied as deletions
``Δ⁻`` followed by insertions ``Δ⁺`` (three database states
``S0 --Δ⁻--> S1 --Δ⁺--> S2``), the signed count changes are the standard
delta rules, one per subgoal occurrence:

* lost derivations (sign −1), classified by the **first** subgoal using a
  deleted tuple::

      A1@S1, ..., A(i-1)@S1,  Δ⁻Ai,  A(i+1)@S0, ..., An@S0

* gained derivations (sign +1), classified by the first subgoal using an
  inserted tuple::

      A1@S1, ..., A(i-1)@S1,  Δ⁺Ai,  A(i+1)@S2, ..., An@S2

Each rule is one run of the interpreter's join,
:func:`repro.engine.evaluate.join_subgoals`: the (small) delta tuples are
the rows of its first subgoal, and every other subgoal reads its relation's
state, probed through the base relation's incrementally-maintained hash
indexes.  No database state is ever copied — ``S0`` and ``S1`` are realized
as the current state ``S2`` plus small overlay sets.

Self-joins are handled because every subgoal *occurrence* gets its own rule;
comparison subgoals are checked as soon as they are ground.  Definitions
using function terms are rejected with :class:`UnsupportedViewDefinition`
(the store falls back to full recomputation for those views), and a count
that would go negative raises :class:`CountInconsistencyError` (defensive:
it means the tracked counts no longer match the database).
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.errors import MaterializationError
from repro.datalog.atoms import Atom
from repro.datalog.queries import ConjunctiveQuery
from repro.datalog.terms import Constant, Term, Variable
from repro.engine.database import Database
from repro.engine.evaluate import (
    EvaluationStatistics,
    evaluate_substitutions,
    join_subgoals,
    order_subgoals,
)
from repro.engine.relation import Relation
from repro.materialize.delta import Delta, Row


class UnsupportedViewDefinition(MaterializationError):
    """The definition uses a feature the counting rules cannot maintain."""


class CountInconsistencyError(MaterializationError):
    """A derivation count would go negative — tracked state is out of sync."""


def check_supported(definition: ConjunctiveQuery) -> None:
    """Raise :class:`UnsupportedViewDefinition` for non-maintainable definitions.

    The counting rules handle plain conjunctive definitions: variables and
    constants in the head, the body and the comparisons.  Function terms
    (Skolems) would require maintaining invented values and are rejected.
    """
    terms: List[Term] = list(definition.head.args)
    for atom in definition.body:
        terms.extend(atom.args)
    for comparison in definition.comparisons:
        terms.extend((comparison.left, comparison.right))
    for term in terms:
        if not isinstance(term, (Variable, Constant)):
            raise UnsupportedViewDefinition(
                f"view {definition.name} uses unsupported term {term!s}; "
                "only variables and constants can be maintained incrementally"
            )


def derivation_counts(definition: ConjunctiveQuery, database: Database) -> Counter:
    """Full derivation counts: output row -> number of satisfying assignments."""
    check_supported(definition)
    counts: Counter = Counter()
    head_args = definition.head.args
    for binding in evaluate_substitutions(definition, database):
        counts[_project_head(head_args, binding)] += 1
    return counts


def delta_counts(
    definition: ConjunctiveQuery, database: Database, delta: Delta
) -> Counter:
    """Signed derivation-count changes caused by ``delta``.

    ``database`` must be the state **after** the (effective) delta was
    applied; ``delta`` must be effective — deletions were present before,
    insertions were absent before (``Database.apply_delta`` returns exactly
    this).  The result maps output rows to signed count adjustments.
    """
    check_supported(definition)
    # The delta rules realize S0/S1 as the current state plus overlays built
    # from the two sides independently, which is only coherent when they are
    # disjoint.  Normalized deltas always are (insertions win construction),
    # and effective deltas are subsets of normalized ones — this guards
    # against a hand-built mapping smuggled past the Delta constructor.
    for name in delta.predicates():
        overlap = delta.inserted_rows(name) & delta.removed_rows(name)
        if overlap:
            raise MaterializationError(
                f"delta for {name} lists {len(overlap)} row(s) as both inserted "
                "and removed; counting maintenance needs disjoint sides"
            )
    body = definition.body
    changes: Counter = Counter()
    versions = _VersionedStates(database, delta)
    for index, atom in enumerate(body):
        removed = delta.removed_rows(atom.predicate)
        if removed:
            others = versions.sources(body, index, later="S0")
            _count_rule(definition, index, removed, others, -1, changes)
        inserted = delta.inserted_rows(atom.predicate)
        if inserted:
            others = versions.sources(body, index, later="S2")
            _count_rule(definition, index, inserted, others, +1, changes)
    return changes


def apply_count_changes(
    counts: Counter, changes: Counter
) -> Tuple[FrozenSet[Row], FrozenSet[Row]]:
    """Fold signed changes into ``counts`` (mutated); returns (inserted, removed).

    ``inserted`` are rows whose count rose from zero, ``removed`` rows whose
    count fell to zero — exactly the extent delta.
    """
    inserted: Set[Row] = set()
    removed: Set[Row] = set()
    for row, change in changes.items():
        if change == 0:
            continue
        old = counts.get(row, 0)
        new = old + change
        if new < 0:
            raise CountInconsistencyError(
                f"derivation count for row {row!r} would become {new}"
            )
        if new == 0:
            if old > 0:
                removed.add(row)
            counts.pop(row, None)
        else:
            counts[row] = new
            if old == 0:
                inserted.add(row)
    return frozenset(inserted), frozenset(removed)


# ---------------------------------------------------------------------------
# Delta-rule join machinery
# ---------------------------------------------------------------------------


class _Versioned:
    """One relation *state* realized as the live relation ± small overlays."""

    __slots__ = ("relation", "plus", "minus")

    def __init__(
        self,
        relation: Optional[Relation],
        plus: FrozenSet[Row] = frozenset(),
        minus: FrozenSet[Row] = frozenset(),
    ):
        self.relation = relation
        self.plus = plus
        self.minus = minus

    def size(self) -> int:
        base = len(self.relation) if self.relation is not None else 0
        return base + len(self.plus)

    def candidates(
        self, positions: Tuple[int, ...], key: Tuple[Any, ...]
    ) -> List[Row]:
        rows: List[Row] = []
        if self.relation is not None:
            base: Sequence[Row]
            if positions:
                base = self.relation.index_on(positions).get(key, ())
            else:
                base = tuple(self.relation)
            if self.minus:
                rows.extend(row for row in base if row not in self.minus)
            else:
                rows.extend(base)
        for row in self.plus:
            if all(row[p] == value for p, value in zip(positions, key)):
                rows.append(row)
        return rows


class _VersionedStates:
    """The three database states S0/S1/S2 around one applied delta."""

    def __init__(self, database: Database, delta: Delta):
        self._database = database
        self._delta = delta

    def state(self, predicate: str, tag: str) -> _Versioned:
        relation = self._database.relation(predicate)
        inserted = self._delta.inserted_rows(predicate)
        removed = self._delta.removed_rows(predicate)
        if tag == "S2" or (not inserted and not removed):
            return _Versioned(relation)
        if tag == "S1":  # before insertions: hide what the delta added
            return _Versioned(relation, minus=inserted)
        if tag == "S0":  # original state: also restore what the delta removed
            return _Versioned(relation, plus=removed, minus=inserted)
        raise MaterializationError(f"unknown state tag {tag!r}")  # pragma: no cover

    def sources(
        self, body: Sequence[Atom], seed_index: int, later: str
    ) -> List[Tuple[Atom, _Versioned]]:
        """The other subgoals of one delta rule, each with its state (earlier
        @S1, later @``later``)."""
        return [
            (atom, self.state(atom.predicate, "S1" if j < seed_index else later))
            for j, atom in enumerate(body)
            if j != seed_index
        ]


def _project_head(head_args: Sequence[Term], binding: Dict[Variable, Any]) -> Row:
    row = []
    for term in head_args:
        if isinstance(term, Constant):
            row.append(term.value)
        else:
            row.append(binding[term])
    return tuple(row)


def _count_rule(
    definition: ConjunctiveQuery,
    seed_index: int,
    seed_rows: FrozenSet[Row],
    others: List[Tuple[Atom, _Versioned]],
    sign: int,
    changes: Counter,
) -> None:
    """Count the derivations of one delta rule and fold them into ``changes``.

    The seed subgoal comes first and reads ``seed_rows`` (a row of another
    arity matches nothing; the join matches every row against the seed's
    constants, so its source need not filter on them); the others follow in
    the interpreter's order for what the seed binds.
    """
    seed = definition.body[seed_index]
    seeds = [row for row in seed_rows if len(row) == len(seed.args)]
    order = order_subgoals(
        [atom for atom, _ in others], lambda k: others[k][1].size(), seed.variables()
    )
    subgoals = [(seed, lambda positions, key: seeds)]
    subgoals += [(others[k][0], others[k][1].candidates) for k in order]
    head_args = definition.head.args
    for binding in join_subgoals(subgoals, definition.comparisons, EvaluationStatistics()):
        changes[_project_head(head_args, binding)] += sign
