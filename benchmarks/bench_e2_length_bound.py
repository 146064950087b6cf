"""E2 — The rewriting-length bound (paper result R1).

If a complete rewriting exists, one exists with at most ``n`` view subgoals,
where ``n`` is the number of subgoals of the (minimized) query.  The table
sweeps random query/view ensembles and chain workloads, reporting for each the
bound, whether a rewriting exists, and the size of the smallest rewriting
found — the bound must never be exceeded.
"""

import pytest

from repro.containment.minimize import minimize
from repro.experiments.tables import format_table
from repro.rewriting.exhaustive import ExhaustiveRewriter
from repro.workloads.generators import chain_query, chain_views, random_query, random_views


def _ensembles():
    cases = []
    for length in (2, 3, 4):
        cases.append((f"chain-{length}", chain_query(length), chain_views(length)))
    for seed in range(6):
        query = random_query(num_subgoals=3, num_relations=3, seed=seed)
        views = random_views(num_views=5, num_subgoals=2, num_relations=3, seed=seed + 40)
        cases.append((f"random-{seed}", query, views))
    return cases


def _bound_rows():
    rows = []
    for name, query, views in _ensembles():
        bound = minimize(query).size()
        result = ExhaustiveRewriter(views, find_all=True).rewrite(query)
        if result.has_equivalent:
            smallest = min(r.query.size() for r in result.equivalent_rewritings())
        else:
            smallest = None
        rows.append(
            [
                name,
                query.size(),
                bound,
                result.has_equivalent,
                smallest if smallest is not None else "-",
                (smallest is None) or (smallest <= bound),
            ]
        )
    return rows


HEADERS = ["workload", "|Q|", "bound n", "rewriting exists", "smallest |Q'|", "bound holds"]


def render(rows=None) -> str:
    """E2's table as text; ``benchmarks/golden/e2.txt`` holds the expected copy."""
    if rows is None:
        rows = _bound_rows()
    return format_table(
        rows,
        headers=HEADERS,
        title="E2: rewriting-length bound (R1) — smallest rewriting never exceeds n",
    )


def test_e2_length_bound_table(benchmark):
    rows = benchmark(_bound_rows)
    benchmark.extra_info["experiment"] = "E2"
    benchmark.extra_info["cases"] = len(rows)
    print()
    print(render(rows))
    assert all(row[-1] for row in rows)


@pytest.mark.parametrize("length", [2, 3, 4])
def test_e2_exhaustive_search_chain(benchmark, length):
    query = chain_query(length)
    views = chain_views(length)
    rewriter = ExhaustiveRewriter(views, find_all=True)
    result = benchmark(rewriter.rewrite, query)
    benchmark.extra_info["experiment"] = "E2"
    benchmark.extra_info["length"] = length
    benchmark.extra_info["rewritings"] = len(result.rewritings)
    assert result.has_equivalent
