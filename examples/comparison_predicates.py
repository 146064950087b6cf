#!/usr/bin/env python3
"""Rewriting queries with arithmetic comparison predicates (the paper's R3).

Comparisons make both containment and rewriting harder: a view whose filter is
*stronger* than the query's cannot be used for an equivalent rewriting, while
one whose filter is implied by the query's can.  The example walks through the
interesting cases on a salary schema and shows the interpreted containment
test doing the case analysis that no single containment mapping can.

Run with:  python examples/comparison_predicates.py
"""

import repro
from repro import parse_query
from repro.containment import is_contained, is_equivalent
from repro.engine import evaluate


def main() -> None:
    # Employees with a salary above 100k, and views with assorted filters.
    # The engine owns the views and the data; the containment asides below
    # use the lower-level API directly.
    engine = repro.connect(
        views="""
        v_high_paid(E, D, S) :- emp(E, D, S), S > 50.
        v_very_high(E, D, S) :- emp(E, D, S), S > 200.
        v_research(D) :- dept(D, 'research').
        """,
        data={
            "emp": [
                ("ann", "d1", 120),
                ("bob", "d1", 90),
                ("eve", "d2", 300),
                ("joe", "d1", 210),
            ],
            "dept": [("d1", "research"), ("d2", "sales")],
        },
    )
    prepared = engine.query(
        "q(E, S) :- emp(E, D, S), dept(D, 'research'), S > 100."
    )

    print("Query:", prepared.query)
    for view in engine.views:
        print("View :", view)
    print()

    # --- containment with comparisons ---------------------------------------
    tight = parse_query("p(E) :- emp(E, D, S), S > 150.")
    loose = parse_query("p(E) :- emp(E, D, S), S > 100.")
    print("S>150 query contained in S>100 query?", is_contained(tight, loose))
    print("S>100 query contained in S>150 query?", is_contained(loose, tight))

    # Containment that needs a case split over variable orderings.
    symmetric = parse_query("b() :- likes(X, Y), likes(Y, X).")
    half = parse_query("b() :- likes(A, B), A <= B.")
    print("Symmetric-likes query contained in the ordered half?",
          is_contained(symmetric, half))
    print()

    # --- rewriting ---------------------------------------------------------------
    result = prepared.rewrite()
    print("Equivalent rewriting found?", result.has_equivalent)
    best = result.best
    print("Rewriting :", best.query)
    print("Expansion :", best.expansion)
    print("Expansion equivalent to query?",
          is_equivalent(best.expansion, prepared.query))
    print("Uses views:", ", ".join(best.views_used))
    print()

    # The view with the too-strict filter is never used.
    assert "v_very_high" not in best.views_used

    # --- execute over data -----------------------------------------------------
    answer = prepared.answers()
    print("Answers          :", answer.sorted_rows())
    print("Computed from    :", answer.provenance.source,
          "via", answer.provenance.rewriting)
    assert answer.rows == evaluate(prepared.query, engine.database)


if __name__ == "__main__":
    main()
