"""A predicate → views relevance index for candidate pruning.

Bucket and MiniCon candidate generation scan *every* view for every query and
rediscover, per request, that most views mention none of the query's
relations.  The index precomputes, once per view set, which views mention
which relation signatures; per query it then produces a
``candidate_filter`` (see :mod:`repro.rewriting.candidates`) that the
algorithms consult before doing any per-view work.

Two pruning modes are provided, matching the soundness requirements of the
algorithms:

``overlap``
    Keep views sharing at least one body signature with the query.  A view
    with no overlapping signature produces no bucket entries and no MCDs (the
    algorithms match subgoals by signature), so pruning it cannot change any
    result of the bucket or MiniCon algorithms.

``cover``
    Keep views whose *every* body signature occurs in the query.  The
    candidate atoms of :mod:`repro.rewriting.candidates` require a
    homomorphism of the entire view body into the query body, which is
    impossible when the view mentions a relation the query does not; this is
    the right mode for the exhaustive (equivalent-rewriting) search.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.datalog.queries import ConjunctiveQuery
from repro.datalog.views import View, ViewSet

#: Relation signature: (predicate name, arity).
Signature = Tuple[str, int]

#: The pruning modes accepted by :meth:`ViewRelevanceIndex.make_filter`.
MODES = ("overlap", "cover")


class ViewRelevanceIndex:
    """Maps relation signatures to the views whose definitions mention them."""

    def __init__(self, views: "ViewSet | Iterable[View]"):
        view_set = views if isinstance(views, ViewSet) else ViewSet(list(views))
        self.views = view_set
        self._by_signature: Dict[Signature, List[str]] = {}
        self._view_signatures: Dict[str, FrozenSet[Signature]] = {}
        for view in view_set:
            signatures = view.definition.predicates()
            self._view_signatures[view.name] = signatures
            for signature in signatures:
                self._by_signature.setdefault(signature, []).append(view.name)
        # Pruning counters (reported through Engine.stats()).
        self.queries_filtered = 0
        self.views_admitted = 0
        self.views_pruned = 0

    # -- lookups ---------------------------------------------------------------
    def views_for_signature(self, signature: Signature) -> Tuple[str, ...]:
        """Names of the views mentioning a relation signature."""
        return tuple(self._by_signature.get(signature, ()))

    def signatures(self) -> Tuple[Signature, ...]:
        """All indexed relation signatures (deterministic order)."""
        return tuple(sorted(self._by_signature))

    def relevant_names(self, query: ConjunctiveQuery, mode: str = "overlap") -> Set[str]:
        """Names of views passing the given pruning mode for ``query``."""
        if mode not in MODES:
            raise ValueError(f"unknown relevance mode {mode!r}; expected one of {MODES}")
        query_signatures = query.predicates()
        overlapping: Set[str] = set()
        for signature in query_signatures:
            overlapping.update(self._by_signature.get(signature, ()))
        if mode == "overlap":
            return overlapping
        return {
            name
            for name in overlapping
            if self._view_signatures[name] <= query_signatures
        }

    def relevant_views(self, query: ConjunctiveQuery, mode: str = "overlap") -> ViewSet:
        """The subset of the indexed views relevant to ``query`` (order preserved)."""
        return self.views.restrict(self.relevant_names(query, mode))

    # -- filter construction -----------------------------------------------------
    def make_filter(
        self, query: ConjunctiveQuery, mode: str = "overlap"
    ) -> Callable[[ConjunctiveQuery, View], bool]:
        """A ``candidate_filter`` closure for one query.

        The relevant-name set is computed once here, so the per-view check the
        algorithms perform is a set lookup.
        """
        names = self.relevant_names(query, mode)
        self.queries_filtered += 1

        def candidate_filter(_query: ConjunctiveQuery, view: View) -> bool:
            if view.name in names:
                self.views_admitted += 1
                return True
            self.views_pruned += 1
            return False

        return candidate_filter

    def stats(self) -> Dict[str, int]:
        """Pruning counters plus index shape."""
        return {
            "views": len(self.views),
            "signatures": len(self._by_signature),
            "queries_filtered": self.queries_filtered,
            "views_admitted": self.views_admitted,
            "views_pruned": self.views_pruned,
        }
