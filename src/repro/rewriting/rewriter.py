"""The front door: :func:`rewrite` selects an algorithm and packages the result."""

from __future__ import annotations

import time
from typing import Callable, Iterable, Optional, Union

from repro.errors import RewritingError
from repro.datalog.queries import ConjunctiveQuery
from repro.datalog.views import View, ViewSet
from repro.rewriting.bucket import BucketRewriter
from repro.rewriting.contained import _union_of_contained, maximally_contained_rewriting
from repro.rewriting.exhaustive import ExhaustiveRewriter
from repro.rewriting.inverse_rules import InverseRulesRewriter
from repro.rewriting.minicon import MiniConRewriter
from repro.rewriting.partial import partial_rewritings
from repro.rewriting.plans import Rewriting, RewritingKind, RewritingResult

#: Algorithms accepted by :func:`rewrite`.
ALGORITHMS = ("exhaustive", "bucket", "minicon", "inverse-rules")

#: Modes accepted by :func:`rewrite`.
MODES = ("equivalent", "contained", "maximally-contained", "partial")


#: Optional per-view pruning predicate, see :mod:`repro.rewriting.candidates`.
CandidateFilter = Callable[[ConjunctiveQuery, View], bool]


def _make_rewriter(
    algorithm: str, views: ViewSet, candidate_filter: Optional[CandidateFilter] = None
):
    if algorithm == "exhaustive":
        return ExhaustiveRewriter(views, find_all=False, candidate_filter=candidate_filter)
    if algorithm == "bucket":
        return BucketRewriter(views, candidate_filter=candidate_filter)
    if algorithm == "minicon":
        return MiniConRewriter(views, candidate_filter=candidate_filter)
    if algorithm == "inverse-rules":
        # Inverse rules range over every view by construction; there is
        # nothing to prune per query.
        return InverseRulesRewriter(views)
    raise RewritingError(
        f"unknown algorithm {algorithm!r}; expected one of {', '.join(ALGORITHMS)}"
    )


def rewrite(
    query: ConjunctiveQuery,
    views: "ViewSet | Iterable[View]",
    algorithm: str = "minicon",
    mode: str = "equivalent",
    candidate_filter: Optional[CandidateFilter] = None,
) -> RewritingResult:
    """Rewrite ``query`` over ``views``.

    Parameters
    ----------
    query:
        The conjunctive query to rewrite.
    views:
        The available materialized views.
    algorithm:
        ``"exhaustive"`` (the paper's bounded search), ``"bucket"``,
        ``"minicon"`` or ``"inverse-rules"``.
    mode:
        * ``"equivalent"`` — look for complete rewritings only;
        * ``"contained"`` — report every contained conjunctive rewriting;
        * ``"maximally-contained"`` — additionally assemble the union plan;
        * ``"partial"`` — equivalent rewritings that may keep base relations.
    candidate_filter:
        Optional ``(query, view) -> bool`` pruning predicate forwarded to the
        algorithms that support it (exhaustive, bucket, minicon).  A sound
        filter only rejects views that cannot contribute to any rewriting.

    Returns
    -------
    RewritingResult
        All rewritings found, with ``result.best`` as the preferred plan.
    """
    if mode not in MODES:
        raise RewritingError(f"unknown mode {mode!r}; expected one of {', '.join(MODES)}")
    view_set = views if isinstance(views, ViewSet) else ViewSet(list(views))
    started = time.perf_counter()

    if mode == "partial":
        result = RewritingResult(query=query, views=view_set, algorithm="minicon-partial")
        result.rewritings = partial_rewritings(query, view_set)
        result.elapsed = time.perf_counter() - started
        return result

    rewriter = _make_rewriter(algorithm, view_set, candidate_filter)
    result = rewriter.rewrite(query)

    if mode == "equivalent" and algorithm != "inverse-rules":
        result.rewritings = [
            r for r in result.rewritings if r.kind is RewritingKind.EQUIVALENT
        ]
    elif mode == "maximally-contained" and algorithm in ("bucket", "minicon"):
        if getattr(rewriter, "reference_pipeline", False):
            # The E14 baseline keeps the seed's shape: a second generator run.
            union = maximally_contained_rewriting(
                query, view_set, algorithm=algorithm, candidate_filter=candidate_filter
            )
        else:
            union = _union_of_contained(result, algorithm)
        if union is not None:
            result.rewritings.append(union)
    result.elapsed = time.perf_counter() - started
    return result
