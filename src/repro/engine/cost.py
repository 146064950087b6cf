"""A simple cost model for comparing query plans.

The PODS'95 paper motivates view usability by cost: a view is *useful* when
answering the query through it is cheaper than answering the query directly
from the base relations.  Any monotone cost model suffices to exercise that
argument; this module provides two:

* :func:`estimate_cost` — a textbook cardinality estimate: the expected size
  of the intermediate results of a left-deep join over the subgoals, using
  relation sizes and distinct-value counts for join selectivities.  The
  counts come from :mod:`repro.exec.stats` — the same version-validated
  statistics snapshots that drive the compiled executor's join ordering —
  so repeated estimates over a stable database never rescan a column.
* :func:`measured_cost` — actually evaluate the query and report the work
  counters of the evaluator (probes + extensions: index entries touched plus
  rows emitted, counted by whichever engine ran).  This is the value used in
  the E7 benchmark tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Optional, Tuple

from repro.datalog.atoms import Atom
from repro.datalog.queries import ConjunctiveQuery, UnionQuery
from repro.datalog.terms import Constant, Variable
from repro.engine.database import Database
from repro.engine.evaluate import EvaluationStatistics, evaluate


@dataclass
class CostModel:
    """Tunable constants of the estimator."""

    #: Cost charged per tuple scanned or produced.
    tuple_cost: float = 1.0
    #: Default selectivity of an equality join when statistics are missing.
    default_join_selectivity: float = 0.1
    #: Default selectivity of a comparison subgoal.
    comparison_selectivity: float = 0.33


def _distinct_values(database: Database, atom: Atom, position: int) -> int:
    from repro.exec.stats import statistics_for  # deferred: repro.exec imports engine

    return statistics_for(database).distinct(atom.predicate, position)


def estimate_cost(
    query: "ConjunctiveQuery | UnionQuery",
    database: Database,
    model: Optional[CostModel] = None,
) -> float:
    """Estimated cost (expected intermediate tuples) of evaluating ``query``.

    The estimate walks the subgoals in the order written, maintaining an
    estimated cardinality of the partial join and a set of bound variables.
    Each new subgoal multiplies cardinality by its relation size and divides
    by the product of the distinct-value counts of the join columns.  The cost
    is the sum of the intermediate cardinalities (a proxy for work), scaled by
    ``tuple_cost``.
    """
    model = model or CostModel()
    if isinstance(query, UnionQuery):
        return sum(estimate_cost(q, database, model) for q in query.disjuncts)

    bound: set = set()
    cardinality = 1.0
    total = 0.0
    for atom in query.body:
        relation = database.relation(atom.predicate)
        size = len(relation) if relation is not None else 0
        if size == 0:
            return total  # empty relation: the plan short-circuits
        selectivity = 1.0
        for position, term in enumerate(atom.args):
            if isinstance(term, Constant):
                selectivity /= _distinct_values(database, atom, position)
            elif isinstance(term, Variable) and term in bound:
                selectivity /= max(
                    _distinct_values(database, atom, position), 1
                )
        cardinality = cardinality * size * max(selectivity, 1e-9)
        cardinality = max(cardinality, 0.0)
        total += cardinality
        bound.update(atom.variables())
    for _ in query.comparisons:
        cardinality *= model.comparison_selectivity
        total += cardinality
    return total * model.tuple_cost


def measured_cost(
    query: "ConjunctiveQuery | UnionQuery",
    database: Database,
    executor: Optional[Any] = None,
) -> Tuple[float, EvaluationStatistics]:
    """Evaluate the query and report (work, statistics).

    ``work`` is the evaluator's probe + extension count — a deterministic,
    platform-independent proxy for running time that the benchmark tables use
    alongside wall-clock timings.  ``executor`` selects the engine measured
    (default: the compiled engine).  Every engine returns the same answer set
    and fills the same counter *names*, but each counts its own work: the
    interpreter one unit per candidate tuple and per binding extension, the
    compiled pipeline ``probes`` = index entries touched, ``extensions`` =
    rows a step emits after its own dedup, ``answers`` = rows reaching
    projection — fewer wherever it projects existential variables away early.
    """
    stats = EvaluationStatistics()
    evaluate(query, database, stats, executor=executor)
    return float(stats.work), stats


def plan_comparison(
    original: "ConjunctiveQuery | UnionQuery",
    rewritten: "ConjunctiveQuery | UnionQuery",
    base_database: Database,
    view_database: Database,
) -> Dict[str, float]:
    """Compare the measured cost of a query against its rewriting over views.

    Returns a dictionary with the measured work of both plans and the speedup
    factor (original / rewritten; > 1 means the rewriting is cheaper).
    """
    original_cost, _ = measured_cost(original, base_database)
    rewritten_cost, _ = measured_cost(rewritten, view_database)
    speedup = original_cost / rewritten_cost if rewritten_cost > 0 else float("inf")
    return {
        "original_work": original_cost,
        "rewritten_work": rewritten_cost,
        "speedup": speedup,
    }
