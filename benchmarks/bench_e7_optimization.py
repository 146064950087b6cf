"""E7 — Table: query-optimization benefit of answering through views (R4).

For the university and enterprise scenarios, at increasing database scale
factors, the table compares the evaluator's work for (a) the original query
over the base relations and (b) the best rewriting over the materialized
views, and reports the speedup — the paper's argument for why views are worth
using at all.  Answer sets are asserted identical.
"""

import pytest

from repro.containment import minimize
from repro.engine import evaluate, materialize_views, measured_cost
from repro.rewriting import rewrite
from repro.experiments.tables import format_table
from repro.workloads.schemas import enterprise_schema, university_schema

SCENARIOS = {"university": university_schema, "enterprise": enterprise_schema}
SCALES = [100, 300, 900]


def _optimization_rows():
    rows = []
    for scenario_name, factory in SCENARIOS.items():
        scenario = factory()
        query = scenario.query
        plan = rewrite(query, scenario.views, algorithm="minicon").best
        plan_query = minimize(plan.query)
        for scale in SCALES:
            database = scenario.make_database(scale, seed=17)
            instance = materialize_views(scenario.views, database)
            base_work, base_stats = measured_cost(query, database)
            view_work, view_stats = measured_cost(plan_query, instance)
            base_answers = evaluate(query, database)
            view_answers = evaluate(plan_query, instance)
            rows.append(
                [
                    scenario_name,
                    scale,
                    database.size(),
                    base_work,
                    view_work,
                    base_work / view_work if view_work else float("inf"),
                    base_answers == view_answers,
                ]
            )
    return rows


HEADERS = [
    "scenario",
    "scale",
    "|D|",
    "base-plan work",
    "view-plan work",
    "speedup",
    "answers match",
]


def render(rows=None) -> str:
    """E7's table as text; ``benchmarks/golden/e7.txt`` holds the expected copy."""
    if rows is None:
        rows = _optimization_rows()
    return format_table(
        rows, headers=HEADERS, title="E7: evaluation work — base relations vs materialized views"
    )


def test_e7_optimization_table(benchmark):
    rows = benchmark.pedantic(_optimization_rows, rounds=1, iterations=1)
    benchmark.extra_info["experiment"] = "E7"
    print()
    print(render(rows))
    assert all(row[-1] for row in rows)
    # The view plan wins on every scale point of both scenarios.
    assert all(row[5] > 1.0 for row in rows)


@pytest.mark.parametrize("scenario_name", list(SCENARIOS))
def test_e7_base_plan_evaluation(benchmark, scenario_name):
    scenario = SCENARIOS[scenario_name]()
    database = scenario.make_database(300, seed=17)
    result = benchmark(evaluate, scenario.query, database)
    benchmark.extra_info["experiment"] = "E7"
    benchmark.extra_info["plan"] = "base"
    benchmark.extra_info["answers"] = len(result)


@pytest.mark.parametrize("scenario_name", list(SCENARIOS))
def test_e7_view_plan_evaluation(benchmark, scenario_name):
    scenario = SCENARIOS[scenario_name]()
    database = scenario.make_database(300, seed=17)
    instance = materialize_views(scenario.views, database)
    plan = minimize(rewrite(scenario.query, scenario.views, algorithm="minicon").best.query)
    result = benchmark(evaluate, plan, instance)
    benchmark.extra_info["experiment"] = "E7"
    benchmark.extra_info["plan"] = "views"
    benchmark.extra_info["answers"] = len(result)
