"""View usability and usefulness.

The paper distinguishes three increasingly strong properties of a view ``V``
with respect to a query ``Q``:

* **relevance** — some subgoal of ``V`` can cover some subgoal of ``Q`` (a
  cheap syntactic filter: the view shows up in some bucket / MCD);
* **usability** — ``V`` appears in *some* complete rewriting of ``Q``
  (deciding this is NP-complete; we decide it by the bounded exhaustive
  search restricted to rewritings that mention ``V``);
* **usefulness** — using ``V`` actually reduces the cost of answering ``Q``
  (a cost-model statement, checked against the engine's measured cost on a
  concrete database).
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.datalog.queries import ConjunctiveQuery
from repro.datalog.views import View, ViewSet
from repro.engine.database import Database
from repro.engine.evaluate import materialize_views, measured_cost
from repro.rewriting.candidates import candidate_atoms_for_view
from repro.rewriting.exhaustive import ExhaustiveRewriter
from repro.rewriting.minicon import MiniConRewriter
from repro.rewriting.partial import partial_rewritings
from repro.rewriting.plans import RewritingKind


def view_is_relevant(query: ConjunctiveQuery, view: View) -> bool:
    """Cheap necessary condition: the view can cover at least one query subgoal.

    For equivalent rewritings this uses the candidate-atom construction (the
    whole view body must map into the query body); a view that fails this test
    can still participate in *contained* rewritings, so relevance here is
    relative to complete rewritings — matching the paper's usage.
    """
    return bool(candidate_atoms_for_view(query, view))


def view_is_usable(
    query: ConjunctiveQuery,
    view: View,
    other_views: "ViewSet | Iterable[View]" = (),
    allow_partial: bool = True,
) -> bool:
    """Whether ``view`` participates in some complete rewriting of ``query``.

    ``other_views`` are the additional views that may be combined with
    ``view``; when ``allow_partial`` is true, rewritings may also keep base
    relations (the paper's notion of usability in query optimization), so a
    view covering only part of the query still counts as usable.
    """
    others = list(other_views) if not isinstance(other_views, ViewSet) else list(other_views)
    all_views = ViewSet([view] + [v for v in others if v.name != view.name])

    # View-only rewritings first (pure "answering using views" setting).
    searcher = ExhaustiveRewriter(all_views, find_all=True)
    for rewriting in searcher.rewrite(query).equivalent_rewritings():
        if view.name in rewriting.views_used:
            return True
    if not allow_partial:
        return False
    # Partial rewritings: views plus base relations.
    for rewriting in partial_rewritings(query, all_views):
        if view.name in rewriting.views_used:
            return True
    return False


def view_is_useful(
    query: ConjunctiveQuery,
    view: View,
    database: Database,
    other_views: "ViewSet | Iterable[View]" = (),
    threshold: float = 1.0,
) -> bool:
    """Whether answering ``query`` through ``view`` is cheaper than answering it directly.

    The check materializes the views over ``database``, finds the best
    rewriting that uses ``view`` (complete or partial), and compares the
    measured evaluation work of that plan against the measured work of the
    original query.  The view is useful when the original's work exceeds
    ``threshold`` times the plan's (1.0 = any improvement; no work saved on
    an empty database is no improvement).
    """
    others = list(other_views) if not isinstance(other_views, ViewSet) else list(other_views)
    all_views = ViewSet([view] + [v for v in others if v.name != view.name])

    plans = []
    searcher = ExhaustiveRewriter(all_views, find_all=True)
    plans.extend(
        r for r in searcher.rewrite(query).equivalent_rewritings() if view.name in r.views_used
    )
    plans.extend(
        r for r in partial_rewritings(query, all_views) if view.name in r.views_used
    )
    if not plans:
        return False

    view_instance = materialize_views(all_views, database)
    # Partial plans read base relations too, so give them the merged database.
    merged = view_instance.merge(database)
    base_work, _ = measured_cost(query, database)
    best_work = min(
        measured_cost(p.query, merged if p.kind is RewritingKind.PARTIAL else view_instance)[0]
        for p in plans
    )
    return base_work > threshold * best_work
