"""Containment and equivalence of conjunctive queries and unions thereof."""

from __future__ import annotations

from typing import Iterable, Optional, Union

from repro.datalog.atoms import Comparison
from repro.datalog.queries import ConjunctiveQuery, UnionQuery, as_union
from repro.containment.constraints import _constraints_of
from repro.containment.interpreted import _contained_by_cases, _has_witness
from repro.containment.memo import global_containment_memo

QueryLike = Union[ConjunctiveQuery, UnionQuery]


def is_satisfiable(query: ConjunctiveQuery) -> bool:
    """Whether the query can return an answer over some database.

    A conjunctive query is unsatisfiable exactly when its comparison subgoals
    are contradictory (the relational part alone is always satisfiable over
    its canonical database).
    """
    return _constraints_of(query).is_satisfiable()


def _cq_contained(query: ConjunctiveQuery, container: ConjunctiveQuery) -> bool:
    """Containment of a single CQ in a single CQ.

    This is the one place that orders the tests, cheapest first.
    Satisfiability (an unsatisfiable query is contained in everything), then,
    inside the shared memo (:mod:`repro.containment.memo`), the identity tier
    and the necessary-condition guards.  Then the single-mapping witness
    test: for a pure pair it is the whole decision procedure, which the memo
    runs with or without fingerprinting by search difficulty; for a pair with
    comparisons it is the sound half, and only a pair no one mapping
    witnesses pays for fingerprints, the verdict cache and the preorder
    enumeration.
    """
    if not is_satisfiable(query):
        return True
    memo = global_containment_memo()
    if query.comparisons or container.comparisons:
        return memo.contained(query, container, _contained_by_cases, cheap=_has_witness)
    return memo.contained(query, container, _has_witness)


def is_contained(query: QueryLike, container: QueryLike) -> bool:
    """Whether ``query ⊑ container`` (every answer of ``query`` is one of ``container``).

    Both arguments may be conjunctive queries or unions.  For union
    containers the test uses the Sagiv–Yannakakis characterization: a CQ is
    contained in a union iff it is contained in one disjunct — which is valid
    for pure CQs; in the presence of comparison subgoals the disjunct-wise
    test remains sound but may miss containments that only hold by case
    analysis over orderings, so a ``False`` answer for queries with
    comparisons against a union is conservative.
    """
    query_union = as_union(query)
    container_union = as_union(container)
    for disjunct in query_union.disjuncts:
        if not any(
            _cq_contained(disjunct, candidate) for candidate in container_union.disjuncts
        ):
            return False
    return True


def is_contained_in_union(query: ConjunctiveQuery, disjuncts: Iterable[ConjunctiveQuery]) -> bool:
    """Convenience wrapper: ``query ⊑ union(disjuncts)``."""
    return is_contained(query, UnionQuery(list(disjuncts)))


def union_contained_in(disjuncts: Iterable[ConjunctiveQuery], container: QueryLike) -> bool:
    """Convenience wrapper: ``union(disjuncts) ⊑ container``."""
    return is_contained(UnionQuery(list(disjuncts)), container)


def is_equivalent(left: QueryLike, right: QueryLike) -> bool:
    """Whether the two queries return the same answers over every database."""
    return is_contained(left, right) and is_contained(right, left)


def union_equivalent(left: Iterable[ConjunctiveQuery], right: Iterable[ConjunctiveQuery]) -> bool:
    """Equivalence of two unions given as iterables of disjuncts."""
    return is_equivalent(UnionQuery(list(left)), UnionQuery(list(right)))
