#!/usr/bin/env python3
"""Query optimization with materialized views (the paper's R4 motivation).

A warehouse-style workload over an orders/products/customers schema: the
optimizer should answer the three-way join through a materialized join view
plus one dimension table instead of recomputing everything from the base
relations.  The example

1. generates a synthetic database at several scale factors,
2. finds complete and *partial* rewritings (views plus base relations),
3. measures the evaluator's work for the original plan and the rewritten
   plans, and prints the speedup table, and
4. shows the `view_is_useful` decision the paper's cost argument is about.

Run with:  python examples/query_optimization.py
"""

import repro
from repro.containment import minimize
from repro.engine import evaluate, materialize_views, measured_cost
from repro.rewriting import view_is_useful
from repro.experiments.tables import format_table
from repro.workloads.schemas import enterprise_schema


def main() -> None:
    scenario = enterprise_schema()
    query = scenario.queries["regional_sales"]
    views = scenario.views

    print("Query:", query)
    print("Views:")
    for view in views:
        print(" ", view)
    print()

    rows = []
    for scale in (100, 400, 1600):
        database = scenario.make_database(scale, seed=7)
        view_instance = materialize_views(views, database).merge(database)

        original_cost, _ = measured_cost(query, database)

        # Two engines over the same catalog and data: one hunting complete
        # (view-only) rewritings, one allowed to keep base relations.
        complete_engine = repro.connect(views=views, data=database)
        partial_engine = repro.connect(views=views, data=database, mode="partial")
        direct_answers = complete_engine.query(query).answers().rows

        plans = []
        complete = complete_engine.query(query).rewrite().best
        if complete is not None:
            plans.append(("complete", complete))
        partial = partial_engine.query(query).rewrite().best
        if partial is not None:
            plans.append(("partial", partial))

        for label, plan in plans:
            # MiniCon plans may carry redundant view atoms; minimizing the
            # rewriting (at the view level) is sound and gives the plan the
            # optimizer would actually run.
            plan_query = minimize(plan.query)
            plan_cost, _ = measured_cost(plan_query, view_instance)
            answers = evaluate(plan_query, view_instance)
            rows.append(
                [
                    scale,
                    label,
                    plan_query.size(),
                    original_cost,
                    plan_cost,
                    original_cost / plan_cost if plan_cost else float("inf"),
                    answers == direct_answers,
                ]
            )

    print(
        format_table(
            rows,
            headers=[
                "scale",
                "plan",
                "subgoals",
                "base work",
                "view work",
                "speedup",
                "answers match",
            ],
            title="Evaluation work: base-relation plan vs view-based plans",
        )
    )
    print()

    # The paper's "usefulness" question: does materializing the join view pay off?
    database = scenario.make_database(800, seed=7)
    join_view = views["v_order_product"]
    other_views = views.restrict(["v_customer"])
    useful = view_is_useful(query, join_view, database, other_views)
    print(f"Is {join_view.name} useful for this query on the scale-800 database? {useful}")


if __name__ == "__main__":
    main()
