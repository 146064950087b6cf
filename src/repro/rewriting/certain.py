"""Certain answers of a query over materialized view instances.

Under the *sound views* (open-world) assumption, a view instance only tells us
that its tuples are answers of the view over some unknown base database; the
*certain answers* of a query are the tuples returned over **every** base
database consistent with the view instance.  Two ways of computing them are
provided, and the E9 benchmark checks they agree:

* ``method="inverse-rules"`` — evaluate the inverse-rules datalog program over
  the view instance and drop answers containing Skolem values;
* ``method="rewriting"`` — evaluate the maximally-contained union rewriting
  (from MiniCon or the bucket algorithm) directly over the view instance.

Both methods are sound and complete for conjunctive queries and views without
comparison subgoals.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Tuple

from repro.errors import RewritingError
from repro.datalog.queries import ConjunctiveQuery
from repro.datalog.views import View, ViewSet
from repro.engine.database import Database
from repro.engine.evaluate import evaluate
from repro.rewriting.contained import maximally_contained_rewriting
from repro.rewriting.inverse_rules import InverseRulesRewriter


def certain_answers(
    query: ConjunctiveQuery,
    views: "ViewSet | Iterable[View]",
    view_instance: Database,
    method: str = "inverse-rules",
) -> FrozenSet[Tuple]:
    """The certain answers of ``query`` given a view instance.

    ``view_instance`` must contain one relation per view, named after the
    view, holding the tuples the source reported (see
    :func:`repro.engine.evaluate.materialize_views` for building one from a
    base database).
    """
    view_set = views if isinstance(views, ViewSet) else ViewSet(list(views))
    if method == "inverse-rules":
        return InverseRulesRewriter(view_set).certain_answers(query, view_instance)
    if method in ("rewriting", "minicon", "bucket"):
        algorithm = "minicon" if method == "rewriting" else method
        plan = maximally_contained_rewriting(query, view_set, algorithm=algorithm)
        if plan is None:
            return frozenset()
        return evaluate(plan.query, view_instance)
    raise RewritingError(
        f"unknown certain-answer method {method!r} "
        "(expected 'inverse-rules', 'rewriting', 'minicon' or 'bucket')"
    )
