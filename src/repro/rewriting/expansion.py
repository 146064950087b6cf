"""Expansion (unfolding) of view-based queries into base-schema queries.

A rewriting is a query whose body atoms range over view predicates (and, for
partial rewritings, base predicates).  Its *expansion* replaces each view atom
with the view definition's body, after

1. unifying the view's head arguments with the atom's arguments, and
2. renaming the view's existential variables to fresh variables, so that two
   different atoms over the same view never share existential witnesses (an
   atom repeated verbatim is the same conjunct and unfolds to the same
   subgoals).

The expansion is what gets compared against the original query: a rewriting
is complete when its expansion is equivalent to the query, and contained when
its expansion is contained in the query.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple, Union

from repro.errors import RewritingError
from repro.datalog.atoms import Atom, Comparison
from repro.datalog.freshen import FreshVariableFactory
from repro.datalog.queries import ConjunctiveQuery, UnionQuery
from repro.datalog.substitution import Substitution, unify_terms
from repro.datalog.terms import Variable
from repro.datalog.views import View, ViewSet
from repro.containment.memo import BoundedCache

#: Set inside :func:`expansion_cache_disabled`: unfold the way the seed did.
_seed_unfolding = False


def expand_atom(
    atom: Atom,
    view: View,
    factory: FreshVariableFactory,
) -> Optional[Tuple[Tuple[Atom, ...], Tuple[Comparison, ...]]]:
    """Expand a single view atom into the view definition's subgoals.

    Returns ``(body_atoms, comparisons)`` over the base schema, or ``None``
    when the atom's arguments cannot be unified with the view's head (which
    can only happen when constants clash); a ``None`` expansion denotes an
    unsatisfiable conjunct.

    A head of distinct variables (every view the workload generators make) is
    unfolded by one substitution.  A head with a repeated variable or a
    constant (``v(X, X)``, ``v(X, 3)``) takes the general rename-then-unify
    path, as does every atom inside :func:`expansion_cache_disabled`, so the
    E14 reference pipeline checks the short path against the general one.
    """
    if atom.predicate != view.name:
        raise RewritingError(f"atom {atom} is not over view {view.name}")
    if len(atom.args) != view.arity:
        raise RewritingError(
            f"atom {atom} has {len(atom.args)} arguments but view {view.name} "
            f"has arity {view.arity}"
        )
    definition = view.definition
    head_args = view.head.args
    if (
        not _seed_unfolding
        and len(set(head_args)) == len(head_args)
        and all(arg.__class__ is Variable for arg in head_args)
    ):
        # No unification needed: one substitution sends each head variable to
        # the atom's argument and each existential variable to a fresh one.
        mapping = dict(zip(head_args, atom.args))
        for var in definition.variables():
            if var not in mapping:
                mapping[var] = factory.fresh(var.name)
        unfolding = Substitution(mapping)
        return (
            unfolding.apply_atoms(view.body),
            unfolding.apply_comparisons(definition.comparisons),
        )
    # Rename the entire view definition apart from anything seen so far.
    renaming = Substitution(
        {var: factory.fresh(var.name) for var in definition.variables()}
    )
    body = renaming.apply_atoms(view.body)
    comparisons = renaming.apply_comparisons(definition.comparisons)

    # Unify the renamed head arguments with the atom's arguments.  Arguments of
    # the atom are never rewritten (they belong to the rewriting), so we build
    # the substitution on the renamed view variables only.
    unifier: Optional[Substitution] = Substitution.empty()
    for head_term, atom_term in zip(head_args, atom.args):
        unifier = unify_terms(renaming.apply_term(head_term), atom_term, unifier)
        if unifier is None:
            return None
    return unifier.apply_atoms(body), unifier.apply_comparisons(comparisons)


class _CandidateExpander:
    """Unfolds the queries of one rewriting request, each distinct view atom once.

    The candidates one ``rewrite()`` call assembles share most of their view
    atoms, so an atom's unfolding is kept for the life of the expander and
    spliced into every query that uses it (separate queries may share
    existential variables soundly).  One fresh-variable factory serves all
    unfoldings; it avoids ``reserved`` and the variables of every query
    expanded so far.  A later query that carries a variable named like an
    existential one already issued (a view definition may use any name, the
    callers' ``_M…`` / ``_B…`` included) would have it captured by a kept
    unfolding, so such a query is unfolded on its own instead.
    """

    def __init__(self, views: ViewSet, reserved: Iterable[Variable] = ()):
        self._views = views
        self._factory = FreshVariableFactory(reserved=reserved)
        self._unfolded: Dict[
            Atom, Optional[Tuple[Tuple[Atom, ...], Tuple[Comparison, ...]]]
        ] = {}
        self._issued: Set[Variable] = set()

    def expand(self, query: ConjunctiveQuery) -> Optional[ConjunctiveQuery]:
        """``query`` with every view atom unfolded; ``None`` if one is unsatisfiable."""
        variables = query.variables()
        if not self._issued.isdisjoint(variables):
            return expand_query(query, self._views)
        self._factory.reserve(variables)
        unfolded = self._unfolded
        body: List[Atom] = []
        comparisons: List[Comparison] = list(query.comparisons)
        for atom in query.body:
            view = self._views.get(atom.predicate)
            if view is None:
                body.append(atom)
                continue
            if atom not in unfolded:
                expansion = unfolded[atom] = expand_atom(atom, view, self._factory)
                if expansion is not None:
                    self._issued.update(
                        var
                        for subgoal in expansion[0]
                        for var in subgoal.variables()
                        if var not in atom.args
                    )
            else:
                expansion = unfolded[atom]
            if expansion is None:
                return None
            body.extend(expansion[0])
            comparisons.extend(expansion[1])
        return ConjunctiveQuery(query.head, body, comparisons, require_safe=False)


def expand_query(
    query: ConjunctiveQuery,
    views: ViewSet,
) -> Optional[ConjunctiveQuery]:
    """Expand every view atom in ``query``'s body; keep base atoms as they are.

    Returns ``None`` when some view atom's expansion is unsatisfiable.  The
    result keeps the original head, so the expansion can be compared directly
    with the query being rewritten.
    """
    return _CandidateExpander(views).expand(query)


#: Bounded cache of expansions keyed by (query, view-set version token).
#: Expansion is deterministic (the fresh-variable factory is seeded from the
#: query's own variables), so the cached object is exactly what a fresh
#: ``expand_query`` call would build; queries and expansions are immutable,
#: so sharing the object across callers is safe.  It serves the callers that
#: reach a candidate through :mod:`repro.rewriting.verify` — the exhaustive
#: and partial searches, and anyone verifying a rewriting by hand — where the
#: soundness check, the completeness check and the result record would each
#: unfold the candidate again.  MiniCon and bucket do not come here: they
#: unfold through one :class:`_CandidateExpander` per ``rewrite()`` call.
_EXPANSION_CACHE = BoundedCache(2048)

#: Sentinel distinguishing a cached ``None`` (unsatisfiable) from a miss.
_UNSATISFIABLE = object()


def clear_expansion_cache() -> None:
    """Drop every cached expansion (cold-start benchmarks reset between runs)."""
    _EXPANSION_CACHE.clear()


@contextmanager
def expansion_cache_disabled() -> Iterator[None]:
    """Scope in which every ``cached_expand_query`` call recomputes.

    Used by the E14 benchmark's reference pipeline to reproduce the seed
    behaviour of unfolding a candidate from scratch at every call site, each
    view atom by the general path of :func:`expand_atom`.
    """
    global _seed_unfolding
    previous = _seed_unfolding
    _seed_unfolding = True
    try:
        yield
    finally:
        _seed_unfolding = previous


def cached_expand_query(
    query: ConjunctiveQuery,
    views: ViewSet,
) -> Optional[ConjunctiveQuery]:
    """Memoized :func:`expand_query` (same result, computed once per candidate)."""
    if _seed_unfolding:
        return expand_query(query, views)
    key = (query, views.version_token())
    cached = _EXPANSION_CACHE.get(key)
    if cached is not None:
        return None if cached is _UNSATISFIABLE else cached
    expansion = expand_query(query, views)
    _EXPANSION_CACHE.put(key, _UNSATISFIABLE if expansion is None else expansion)
    return expansion


def cached_expand_rewriting(
    rewriting: Union[ConjunctiveQuery, UnionQuery],
    views: ViewSet,
) -> Union[ConjunctiveQuery, UnionQuery, None]:
    """Memoized :func:`expand_rewriting` (disjunct-wise, through the cache)."""
    if isinstance(rewriting, UnionQuery):
        expanded = [cached_expand_query(q, views) for q in rewriting.disjuncts]
        kept = [q for q in expanded if q is not None]
        if not kept:
            return None
        if len(kept) == 1:
            return kept[0]
        return UnionQuery(kept)
    return cached_expand_query(rewriting, views)


def expand_rewriting(
    rewriting: Union[ConjunctiveQuery, UnionQuery],
    views: ViewSet,
) -> Union[ConjunctiveQuery, UnionQuery, None]:
    """Expand a rewriting (conjunctive or union) over a set of views.

    For a union, unsatisfiable disjuncts are dropped; the result is ``None``
    when every disjunct is unsatisfiable.
    """
    if isinstance(rewriting, UnionQuery):
        expanded = [expand_query(q, views) for q in rewriting.disjuncts]
        kept = [q for q in expanded if q is not None]
        if not kept:
            return None
        if len(kept) == 1:
            return kept[0]
        return UnionQuery(kept)
    return expand_query(rewriting, views)


def uses_only_views(query: ConjunctiveQuery, views: ViewSet) -> bool:
    """Whether every body atom of ``query`` is over a view predicate."""
    return all(views.is_view_predicate(atom.predicate) for atom in query.body)


def views_used(query: Union[ConjunctiveQuery, UnionQuery], views: ViewSet) -> Tuple[str, ...]:
    """The names of the views referenced by a rewriting, in order of first use."""
    names: List[str] = []
    disjuncts = query.disjuncts if isinstance(query, UnionQuery) else (query,)
    for disjunct in disjuncts:
        for atom in disjunct.body:
            if views.is_view_predicate(atom.predicate) and atom.predicate not in names:
                names.append(atom.predicate)
    return tuple(names)
