"""Containment of conjunctive queries with arithmetic comparison subgoals.

For queries with comparisons the simple homomorphism test is sound but not
complete: ``Q1 ⊑ Q2`` can hold even though no single containment mapping
works for every database, because different linear orders of ``Q1``'s
variables may call for different mappings.  The classical complete test
(Klug; van der Meyden) quantifies over the *total preorders* of the relevant
terms of ``Q1`` that are consistent with ``Q1``'s comparisons: for each such
preorder there must be a containment mapping from ``Q2`` to ``Q1`` whose
induced comparisons are implied by that preorder.

The number of total preorders grows like the ordered Bell numbers, so the test
is exponential in the number of *order-relevant* terms.  The implementation
keeps that set as small as possible (only terms that can interact with a
comparison on either side), builds the preorders one term at a time without
extending one that already contradicts the query's comparisons, and refuses
inputs whose relevant-term set exceeds ``MAX_ORDERED_TERMS``; within that
limit it is sound and complete over dense domains.

The sound half comes first: one mapping whose induced comparisons ``query``'s
own already imply (:func:`_has_witness`; every pair equivalent up to renaming
has one) settles the pair, so the enumeration and its limit apply only to a
pair without one, whatever the number of order-relevant terms.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import UnsupportedFeatureError
from repro.datalog.atoms import Atom, Comparison, ComparisonOperator
from repro.datalog.queries import ConjunctiveQuery
from repro.datalog.substitution import Substitution
from repro.datalog.terms import Constant, Term, Variable
from repro.containment.constraints import ComparisonSet, _constraints_of
from repro.containment.homomorphism import containment_mappings, find_containment_mapping

#: Hard cap on the number of terms whose orderings are enumerated.
MAX_ORDERED_TERMS = 8


def _ordered_partitions(
    items: Sequence[Term],
    consistent: Callable[[List[List[Term]]], bool] = lambda partition: True,
) -> Iterator[List[List[Term]]]:
    """All ordered set partitions (total preorders) of ``items`` that
    ``consistent`` accepts.

    Each yielded value is a list of blocks; members of a block are considered
    equal, and blocks are strictly increasing left to right.  A partition of
    ``items[1:]`` that ``consistent`` rejects is never extended, so the test
    must be monotone: it rejects every extension of a partition it rejects.
    """
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in _ordered_partitions(rest, consistent):
        # Insert `first` into an existing block or as a new block at any position.
        for index in range(len(partition)):
            updated = [list(block) for block in partition]
            updated[index].append(first)
            if consistent(updated):
                yield updated
        for index in range(len(partition) + 1):
            updated = [list(block) for block in partition]
            updated.insert(index, [first])
            if consistent(updated):
                yield updated


def _relevant_terms(query: ConjunctiveQuery, other: ConjunctiveQuery) -> List[Term]:
    """Terms of ``query`` whose relative order can matter for the containment test.

    These are: terms appearing in ``query``'s own comparisons, constants
    appearing in ``other``'s comparisons, and terms of ``query`` occurring in
    body positions onto which a comparison-constrained variable of ``other``
    could be mapped (same predicate, same argument position).
    """
    relevant: List[Term] = []

    def add(term: Term) -> None:
        if term not in relevant:
            relevant.append(term)

    for comparison in query.comparisons:
        add(comparison.left)
        add(comparison.right)
    for comparison in other.comparisons:
        for term in (comparison.left, comparison.right):
            if isinstance(term, Constant):
                add(term)
    constrained_vars: Set[Variable] = set()
    for comparison in other.comparisons:
        constrained_vars.update(comparison.variables())
    constrained_positions: Set[Tuple[str, int]] = set()
    for atom in other.body:
        for position, term in enumerate(atom.args):
            if isinstance(term, Variable) and term in constrained_vars:
                constrained_positions.add((atom.predicate, position))
    for atom in query.body:
        for position, term in enumerate(atom.args):
            if (atom.predicate, position) in constrained_positions:
                add(term)
    # Head terms of `query` can be images of `other`'s head terms, which may be
    # comparison-constrained as well.
    other_head_constrained = any(
        isinstance(t, Variable) and t in constrained_vars for t in other.head.args
    )
    if other_head_constrained:
        for term in query.head.args:
            add(term)
    return relevant


def _preorder_comparisons(partition: List[List[Term]]) -> List[Comparison]:
    """The comparisons describing one total preorder (block equalities + strict order)."""
    out: List[Comparison] = []
    for block in partition:
        anchor = block[0]
        for member in block[1:]:
            out.append(Comparison(anchor, ComparisonOperator.EQ, member))
    for left_block, right_block in zip(partition, partition[1:]):
        out.append(Comparison(left_block[0], ComparisonOperator.LT, right_block[0]))
    return out


def _has_witness(query: ConjunctiveQuery, container: ConjunctiveQuery) -> bool:
    """Whether one containment mapping already proves ``query ⊑ container``.

    The sufficient condition: a mapping ``h`` from ``container`` into ``query``
    with ``h(container.comparisons)`` implied by ``query``'s own comparisons;
    also necessary when neither side has comparisons (Chandra–Merlin).
    """
    if not container.comparisons:
        return find_containment_mapping(container, query) is not None
    constraints = _constraints_of(query)
    for mapping in containment_mappings(container, query):
        if constraints.implies_all(mapping.apply_comparisons(container.comparisons)):
            return True
    return False


def _contained_by_cases(
    query: ConjunctiveQuery,
    container: ConjunctiveQuery,
    max_ordered_terms: int = MAX_ORDERED_TERMS,
) -> bool:
    """The complete test, for a satisfiable ``query`` no single mapping settles.

    Every total preorder of the order-relevant terms consistent with
    ``query``'s comparisons must have a containment mapping of its own.
    Raises :class:`UnsupportedFeatureError` when there are too many such terms.
    """
    relevant = _relevant_terms(query, container)
    if len(relevant) > max_ordered_terms:
        raise UnsupportedFeatureError(
            f"containment with comparisons over {len(relevant)} order-relevant terms "
            f"exceeds the enumeration limit of {max_ordered_terms}"
        )
    comparisons = tuple(query.comparisons)

    def scenario_of(partition: List[List[Term]]) -> ComparisonSet:
        # Every term of a query comparison is relevant, so a partition of
        # some of the terms meets the comparisons among those terms.
        ordered = {term for block in partition for term in block}
        own = tuple(c for c in comparisons if c.left in ordered and c.right in ordered)
        return ComparisonSet(own + tuple(_preorder_comparisons(partition)))

    # An ordering of some of the terms that contradicts the query's own
    # comparisons contradicts them however the other terms are placed, so
    # the enumeration prunes it instead of expanding it ordered-Bell-fold.
    checked: List = [None, None]  # the partition checked last, its scenario

    def consistent(partial: List[List[Term]]) -> bool:
        checked[:] = [partial, scenario_of(partial)]
        return checked[1].is_satisfiable()

    for partition in _ordered_partitions(relevant, consistent):
        # A partition is yielded right after its check, whose scenario it reuses.
        scenario = checked[1] if checked[0] is partition else scenario_of(partition)
        collapsed = _collapse(query, partition)
        witnessed = False
        for mapping in containment_mappings(container, collapsed):
            induced = mapping.apply_comparisons(container.comparisons)
            if scenario.implies_all(induced):
                witnessed = True
                break
        if not witnessed:
            return False
    return True


def interpreted_contained(
    query: ConjunctiveQuery,
    container: ConjunctiveQuery,
    max_ordered_terms: int = MAX_ORDERED_TERMS,
) -> bool:
    """Whether ``query ⊑ container`` for conjunctive queries with comparisons.

    Raises :class:`UnsupportedFeatureError` when no single mapping witnesses
    the containment and there are too many order-relevant terms to enumerate.
    """
    if not _constraints_of(query).is_satisfiable():
        return True  # the empty query is contained in everything
    return _has_witness(query, container) or _contained_by_cases(
        query, container, max_ordered_terms
    )


def _collapse(query: ConjunctiveQuery, partition: List[List[Term]]) -> ConjunctiveQuery:
    """The query with terms identified by one ordering block merged.

    Each block of the partition describes terms that are equal in the
    scenario; merging them (preferring a constant representative) lets the
    containment-mapping search treat the scenario's canonical database
    faithfully — e.g. a container constant can map onto a query variable that
    the scenario pins to that constant.
    """
    mapping = {}
    for block in partition:
        constants = [t for t in block if isinstance(t, Constant)]
        representative: Term = constants[0] if constants else block[0]
        for term in block:
            if isinstance(term, Variable) and term != representative:
                mapping[term] = representative
    if not mapping:
        return query
    return query.apply(Substitution(mapping), require_safe=False)
