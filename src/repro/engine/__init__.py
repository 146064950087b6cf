"""In-memory relational / datalog engine substrate.

The engine exists for two reasons:

* to *verify* rewritings empirically (a rewriting evaluated over materialized
  view instances must return the same answers as the original query over the
  base database), and
* to reproduce the query-optimization use case of the paper: compare the cost
  of answering a query directly against the cost of answering it through its
  rewriting over (smaller) materialized views.

The substrate is deliberately simple — sets of tuples with incrementally
maintained hash indexes — and :func:`evaluate` routes through the compiled
set-at-a-time engine of :mod:`repro.exec` by default, with this package's
backtracking interpreter as the reference and the lazy-enumeration engine.
Values are opaque to it: the inverse-rules fixpoint
(:mod:`repro.rewriting.inverse_rules`) is the one place that invents any.
Fast enough to serve, complete enough to run every experiment in the
benchmark harness.
"""

from repro.engine.relation import Relation
from repro.engine.database import Database
from repro.engine.evaluate import (
    EvaluationStatistics,
    evaluate,
    evaluate_boolean,
    evaluate_substitutions,
    materialize_views,
    measured_cost,
)

__all__ = [
    "Database",
    "EvaluationStatistics",
    "Relation",
    "evaluate",
    "evaluate_boolean",
    "evaluate_substitutions",
    "materialize_views",
    "measured_cost",
]
