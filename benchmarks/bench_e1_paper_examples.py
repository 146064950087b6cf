"""E1 — Paper worked examples: equivalent rewritings found and verified.

Reproduces the paper's worked examples as a table: for each scenario query we
report whether an equivalent rewriting exists, which views it uses, and that
the expansion verifies.  The benchmarked operation is the full rewriting call
(MiniCon) on each scenario's primary query.
"""

import pytest

from repro.rewriting import is_complete_rewriting, rewrite
from repro.experiments.tables import format_table
from repro.workloads.schemas import enterprise_schema, paper_example, university_schema

SCENARIOS = {
    "paper-example": paper_example,
    "university": university_schema,
    "enterprise": enterprise_schema,
}


def _table_rows():
    rows = []
    for scenario_name, factory in SCENARIOS.items():
        scenario = factory()
        for query_name, query in scenario.queries.items():
            result = rewrite(query, scenario.views, algorithm="minicon", mode="equivalent")
            best = result.best
            verified = (
                is_complete_rewriting(best.query, query, scenario.views) if best else False
            )
            rows.append(
                [
                    scenario_name,
                    query_name,
                    query.size(),
                    result.has_equivalent,
                    best.query.size() if best else "-",
                    ", ".join(best.views_used) if best else "-",
                    verified,
                ]
            )
    return rows


@pytest.mark.parametrize("scenario_name", list(SCENARIOS))
def test_e1_rewrite_scenario(benchmark, scenario_name):
    scenario = SCENARIOS[scenario_name]()
    result = benchmark(
        rewrite, scenario.query, scenario.views, algorithm="minicon", mode="equivalent"
    )
    benchmark.extra_info["experiment"] = "E1"
    benchmark.extra_info["scenario"] = scenario_name
    benchmark.extra_info["has_equivalent"] = result.has_equivalent
    assert result.has_equivalent


def test_e1_table(benchmark):
    rows = benchmark(_table_rows)
    benchmark.extra_info["experiment"] = "E1"
    benchmark.extra_info["queries"] = len(rows)
    print()
    print(
        format_table(
            rows,
            headers=[
                "scenario",
                "query",
                "|Q|",
                "equivalent rewriting",
                "|Q'|",
                "views used",
                "expansion verified",
            ],
            title="E1: worked examples — complete rewritings found and verified",
        )
    )
    # Every scenario's primary query must admit a verified complete rewriting.
    primary = [row for row in rows if row[1] in ("mutual_same_topic", "advisor_teaches", "regional_sales")]
    assert all(row[3] and row[6] for row in primary)
