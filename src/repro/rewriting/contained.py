"""Maximally-contained rewritings as unions of conjunctive view queries.

When no equivalent rewriting exists (the common case in data integration,
where views describe incomplete sources), the best view-only plan is the
union of all contained conjunctive rewritings.  The union produced by the
bucket or MiniCon algorithm is maximal among unions of conjunctive queries
over the views: every view-only conjunctive plan contained in the query is
contained in it.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.errors import RewritingError
from repro.datalog.queries import ConjunctiveQuery, UnionQuery
from repro.datalog.views import View, ViewSet
from repro.containment.containment import is_contained
from repro.rewriting.bucket import BucketRewriter
from repro.rewriting.minicon import MiniConRewriter
from repro.rewriting.plans import Rewriting, RewritingKind, RewritingResult


def _prune_subsumed(rewritings: List[Rewriting]) -> List[Rewriting]:
    """Drop rewritings whose expansion is contained in another one's expansion.

    The expansions are the objects the generating algorithm recorded, so no
    disjunct is unfolded again, and the pairwise containment checks on them
    are served by the memo's identity tier on repeats.
    """
    expansions = [rewriting.expansion for rewriting in rewritings]
    keep: List[bool] = [True] * len(rewritings)
    for i, expansion_i in enumerate(expansions):
        if expansion_i is None:
            keep[i] = False
            continue
        for j, expansion_j in enumerate(expansions):
            if i == j or not keep[j] or expansion_j is None:
                continue
            if is_contained(expansion_i, expansion_j):
                # Break ties deterministically: prefer the earlier disjunct.
                # The cheap index comparison goes first so the reverse
                # containment check is skipped entirely when the tie-break
                # could not save the disjunct anyway (j < i).
                if not (j > i and is_contained(expansion_j, expansion_i)):
                    keep[i] = False
                    break
    return [r for r, kept in zip(rewritings, keep) if kept]


def _union_of_contained(
    result: RewritingResult, algorithm: str, prune: bool = True
) -> Optional[Rewriting]:
    """The union plan over the contained rewritings a generator run reported.

    Query and expansion of the plan are assembled from the recorded
    rewritings — nothing is generated or unfolded a second time.  Returns
    ``None`` when ``result`` holds no contained conjunctive rewriting.
    """
    contained = [
        r
        for r in result.rewritings
        if isinstance(r.query, ConjunctiveQuery)
        and r.kind in (RewritingKind.CONTAINED, RewritingKind.EQUIVALENT)
    ]
    if not contained:
        return None
    if prune and len(contained) > 1:
        contained = _prune_subsumed(contained)
    several = len(contained) > 1
    # Duplicates up to the cheap canonical form go (first occurrence stays).
    distinct: Dict[ConjunctiveQuery, Rewriting] = {}
    for rewriting in contained:
        distinct.setdefault(rewriting.query.canonical(), rewriting)
    disjuncts = [r.query for r in distinct.values()]
    expansions = [r.expansion for r in distinct.values() if r.expansion is not None]
    kind = RewritingKind.MAXIMALLY_CONTAINED
    # If one disjunct is already equivalent, the union is equivalent as well.
    if any(r.kind is RewritingKind.EQUIVALENT for r in result.rewritings):
        kind = RewritingKind.EQUIVALENT
    return Rewriting(
        query=UnionQuery(disjuncts) if several else disjuncts[0],
        kind=kind,
        algorithm=f"{algorithm}-union",
        views_used=tuple(
            dict.fromkeys(atom.predicate for disjunct in disjuncts for atom in disjunct.body)
        ),
        expansion=(
            None if not expansions
            else expansions[0] if len(expansions) == 1
            else UnionQuery(expansions)
        ),
    )


def maximally_contained_rewriting(
    query: ConjunctiveQuery,
    views: "ViewSet | Iterable[View]",
    algorithm: str = "minicon",
    prune: bool = True,
    candidate_filter=None,
) -> Optional[Rewriting]:
    """The maximally-contained union rewriting of ``query`` over ``views``.

    Returns ``None`` when no contained conjunctive rewriting exists at all.
    ``algorithm`` selects the generator of contained rewritings (``"minicon"``
    or ``"bucket"``); ``prune`` removes disjuncts subsumed by other disjuncts,
    which keeps the union small without changing its meaning.
    ``candidate_filter`` is the optional per-view pruning predicate of
    :mod:`repro.rewriting.candidates`, forwarded to the generator.
    """
    view_set = views if isinstance(views, ViewSet) else ViewSet(list(views))
    if algorithm == "minicon":
        rewriter: "MiniConRewriter | BucketRewriter" = MiniConRewriter(
            view_set, candidate_filter=candidate_filter
        )
    elif algorithm == "bucket":
        rewriter = BucketRewriter(view_set, candidate_filter=candidate_filter)
    else:
        raise RewritingError(
            f"unknown algorithm {algorithm!r} for maximally-contained rewriting "
            "(expected 'minicon' or 'bucket')"
        )
    return _union_of_contained(rewriter.rewrite(query), algorithm, prune)
