"""E8 — Table: rewriting with arithmetic comparison predicates (R3).

Each row is a query/view configuration with comparison subgoals; the table
reports whether an equivalent rewriting exists and whether the outcome matches
the paper's prediction (a view is usable only when its filter is implied by
the query's).  The benchmarked operations are the interpreted containment test
and the full rewriting call on the comparison-bearing inputs.
"""

import pytest

from repro import parse_query, parse_views
from repro.containment import is_contained
from repro.rewriting import rewrite
from repro.experiments.tables import format_table

#: (name, query, views, expected existence of an equivalent rewriting)
CASES = [
    (
        "filter implied (S>50 view for S>100 query)",
        "q(E) :- emp(E, S), S > 100.",
        "v(A, B) :- emp(A, B), B > 50.",
        True,
    ),
    (
        "filter too strong (S>200 view)",
        "q(E) :- emp(E, S), S > 100.",
        "v(A, B) :- emp(A, B), B > 200.",
        False,
    ),
    (
        "identical filter",
        "q(E) :- emp(E, S), S > 100.",
        "v(A) :- emp(A, B), B > 100.",
        True,
    ),
    (
        "filter on hidden column, compensated by rewriting",
        "q(E, S) :- emp(E, S), S != 0.",
        "v(A, B) :- emp(A, B).",
        True,
    ),
    (
        "two-sided interval vs one-sided view",
        "q(E) :- emp(E, S), S > 100, S < 200.",
        "v(A, B) :- emp(A, B), B > 100.",
        True,
    ),
    (
        "join with comparison across relations",
        "q(E) :- emp(E, S), cap(C), S < C.",
        "v(A, B) :- emp(A, B). w(C) :- cap(C).",
        True,
    ),
    (
        "equality filter equals constant view",
        "q(E) :- emp(E, S), S = 7.",
        "v(A) :- emp(A, 7).",
        True,
    ),
]


def _case_rows():
    rows = []
    for name, query_text, views_text, expected in CASES:
        query = parse_query(query_text)
        views = parse_views(views_text)
        result = rewrite(query, views, algorithm="exhaustive", mode="equivalent")
        rows.append(
            [
                name,
                len(query.comparisons),
                result.has_equivalent,
                expected,
                result.has_equivalent == expected,
            ]
        )
    return rows


HEADERS = ["case", "#comparisons", "rewriting found", "paper prediction", "matches"]


def render(rows=None) -> str:
    """E8's table as text; ``benchmarks/golden/e8.txt`` holds the expected copy."""
    if rows is None:
        rows = _case_rows()
    return format_table(rows, headers=HEADERS, title="E8: rewriting with comparison predicates")


def test_e8_comparison_table(benchmark):
    rows = benchmark(_case_rows)
    benchmark.extra_info["experiment"] = "E8"
    print()
    print(render(rows))
    assert all(row[-1] for row in rows)


def test_e8_interpreted_containment(benchmark):
    tight = parse_query("q(X) :- r(X, Y), Y > 7, Y < 20.")
    loose = parse_query("q(X) :- r(X, Y), Y > 5.")
    outcome = benchmark(is_contained, tight, loose)
    benchmark.extra_info["experiment"] = "E8"
    assert outcome


def test_e8_case_split_containment(benchmark):
    query = parse_query("q() :- r(X, Y), r(Y, X).")
    container = parse_query("q() :- r(A, B), A <= B.")
    outcome = benchmark(is_contained, query, container)
    benchmark.extra_info["experiment"] = "E8"
    assert outcome


@pytest.mark.parametrize("case_index", [0, 1, 4])
def test_e8_rewrite_with_comparisons(benchmark, case_index):
    name, query_text, views_text, expected = CASES[case_index]
    query = parse_query(query_text)
    views = parse_views(views_text)
    result = benchmark(rewrite, query, views, algorithm="exhaustive", mode="equivalent")
    benchmark.extra_info["experiment"] = "E8"
    benchmark.extra_info["case"] = name
    assert result.has_equivalent == expected
