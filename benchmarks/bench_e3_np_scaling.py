"""E3 — NP-hardness of rewriting existence (paper result R2).

Deciding whether a complete rewriting exists is NP-complete.  The figure shows
the cost of the bounded exhaustive search growing exponentially with query
size on the hardest input shape: chain queries over a *single* relation name,
where every view subgoal unifies with every query subgoal.  MiniCon is plotted
on the same series to show that the practical algorithm, while far faster on
these inputs, also degrades as the query grows.
"""

import time

import pytest

from repro.experiments.tables import format_series
from repro.rewriting.exhaustive import ExhaustiveRewriter
from repro.rewriting.minicon import MiniConRewriter
from repro.workloads.generators import chain_query, chain_views

LENGTHS = [2, 3, 4, 5]
TITLE = "E3: rewriting-existence cost vs query size (single-relation chains, seconds)"


def _workload(length):
    query = chain_query(length, distinct_relations=False)
    views = chain_views(length, segment_lengths=[1, 2], distinct_relations=False)
    return query, views


def _sweep():
    series = {"exhaustive": [], "minicon": [], "candidates (exhaustive)": []}
    for length in LENGTHS:
        query, views = _workload(length)
        started = time.perf_counter()
        exhaustive_result = ExhaustiveRewriter(views).rewrite(query)
        series["exhaustive"].append(time.perf_counter() - started)
        series["candidates (exhaustive)"].append(float(exhaustive_result.candidates_examined))
        started = time.perf_counter()
        MiniConRewriter(views).rewrite(query)
        series["minicon"].append(time.perf_counter() - started)
    return series


def _figure(series) -> str:
    return format_series(series, x_values=LENGTHS, x_label="query size n", title=TITLE)


def render(series=None) -> str:
    """E3's figure as text without its timing columns, which vary run to run;
    ``benchmarks/golden/e3.txt`` holds the expected copy."""
    if series is None:
        series = _sweep()
    candidates = [int(count) for count in series["candidates (exhaustive)"]]
    return format_series(
        {"candidates (exhaustive)": candidates},
        x_values=LENGTHS,
        x_label="query size n",
        title="E3: rewriting-existence work vs query size (single-relation chains)",
    )


def test_e3_scaling_figure(benchmark):
    series = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    benchmark.extra_info["experiment"] = "E3"
    benchmark.extra_info["lengths"] = LENGTHS
    print()
    print(_figure(series))
    # The exhaustive search's work grows monotonically (and sharply) with n.
    candidates = series["candidates (exhaustive)"]
    assert all(b >= a for a, b in zip(candidates, candidates[1:]))
    assert candidates[-1] / max(candidates[0], 1.0) >= 8.0


@pytest.mark.parametrize("length", LENGTHS)
def test_e3_exhaustive_existence(benchmark, length):
    query, views = _workload(length)
    rewriter = ExhaustiveRewriter(views)
    result = benchmark(rewriter.rewrite, query)
    benchmark.extra_info["experiment"] = "E3"
    benchmark.extra_info["length"] = length
    benchmark.extra_info["candidates_examined"] = result.candidates_examined
    assert result.has_equivalent
