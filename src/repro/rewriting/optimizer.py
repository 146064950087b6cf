"""Cost-based selection among candidate plans (original query vs rewritings).

The paper's query-optimization story does not end with *finding* rewritings:
the optimizer must decide which plan to run — the original query over the base
relations, a complete rewriting over the views, or a partial rewriting mixing
both.  :func:`choose_best_plan` makes that decision with the compiler's own
cost estimate (:func:`repro.exec.estimate_cost`), and :class:`PlanChoice`
records enough context to explain it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain
from typing import Iterable, List, Optional, Union

from repro.datalog.queries import ConjunctiveQuery, UnionQuery
from repro.datalog.views import View, ViewSet
from repro.containment.minimize import minimize
from repro.engine.database import Database
from repro.engine.evaluate import materialize_views
from repro.exec import estimate_cost
from repro.rewriting.partial import partial_rewritings
from repro.rewriting.plans import Rewriting, RewritingKind
from repro.rewriting.rewriter import rewrite


@dataclass
class PlanChoice:
    """One candidate plan together with its estimated cost."""

    #: "base" for the original query, otherwise the producing algorithm.
    source: str
    #: The executable plan (over base relations, views, or a mix).
    plan: Union[ConjunctiveQuery, UnionQuery]
    #: Estimated index entries touched (lower is better).
    cost: float
    #: The rewriting object the plan came from (``None`` for the base plan).
    rewriting: Optional[Rewriting] = None

    @property
    def uses_views(self) -> bool:
        return self.rewriting is not None


@dataclass
class OptimizationResult:
    """Outcome of :func:`choose_best_plan`: the winner plus every alternative."""

    best: PlanChoice
    alternatives: List[PlanChoice]

    @property
    def speedup_over_base(self) -> float:
        """How much cheaper the chosen plan is than the base plan (>= 1.0 when it wins)."""
        base = next((c for c in self.alternatives if c.source == "base"), None)
        if base is None or self.best.cost <= 0:
            return 1.0
        return base.cost / self.best.cost


def enumerate_plans(
    query: ConjunctiveQuery, views: "ViewSet | Iterable[View]"
) -> List[Rewriting]:
    """Every equivalent plan over the views: MiniCon's equivalent rewritings,
    then the partial rewritings (views plus base relations).

    Only equivalent (complete or partial) rewritings are returned — the
    optimizer must never trade answers for speed.  Plans are minimized so the
    cost comparison is between the plans an optimizer would actually run.
    """
    view_set = views if isinstance(views, ViewSet) else ViewSet(list(views))
    result = rewrite(query, view_set, algorithm="minicon", mode="equivalent")
    plans: List[Rewriting] = []
    seen = set()
    for rewriting in chain(result.equivalent_rewritings(), partial_rewritings(query, view_set)):
        assert isinstance(rewriting.query, ConjunctiveQuery)
        reduced = minimize(rewriting.query)
        key = reduced.canonical()
        if key in seen:
            continue
        seen.add(key)
        plans.append(replace(rewriting, query=reduced))
    return plans


def choose_best_plan(
    query: ConjunctiveQuery, views: "ViewSet | Iterable[View]", database: Database
) -> OptimizationResult:
    """Pick the cheapest way to answer ``query`` given materialized ``views``.

    The candidates are the base plan (the query itself over the base
    relations) and every plan of :func:`enumerate_plans`, each priced by
    :func:`repro.exec.estimate_cost` — the compiler's estimate of the plan it
    would run, over the data that plan reads.  Nothing is evaluated.  The
    base plan is always a candidate, so if no rewriting is cheaper, it wins.
    """
    view_set = views if isinstance(views, ViewSet) else ViewSet(list(views))
    view_instance = materialize_views(view_set, database)
    combined = view_instance.merge(database)

    choices: List[PlanChoice] = [
        PlanChoice(source="base", plan=query, cost=estimate_cost(query, database))
    ]
    for rewriting in enumerate_plans(query, view_set):
        data = combined if rewriting.kind is RewritingKind.PARTIAL else view_instance
        choices.append(
            PlanChoice(
                source=rewriting.algorithm,
                plan=rewriting.query,
                cost=estimate_cost(rewriting.query, data),
                rewriting=rewriting,
            )
        )
    best = min(choices, key=lambda choice: choice.cost)
    return OptimizationResult(best=best, alternatives=choices)
