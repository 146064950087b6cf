"""E10 — Ablation: why MiniCon wins — MCD pruning vs bucket cross-product.

The design choice the follow-up literature credits for MiniCon's performance
is that MCD formation reasons about variable roles *before* any candidates are
combined, while the bucket algorithm defers all reasoning to per-candidate
containment checks.  The ablation quantifies that on chain and star
workloads: candidate combinations examined, rewritings produced, and the cost
of MiniCon's (redundant, for comparison-free inputs) verification step.
"""

import time

import pytest

from repro.experiments.tables import format_table
from repro.rewriting.bucket import BucketRewriter
from repro.rewriting.minicon import MiniConRewriter
from repro.workloads.generators import chain_query, chain_views, star_query, star_views


def _workloads():
    chain = (
        "chain-5",
        chain_query(5),
        chain_views(5, segment_lengths=[1, 2]),
    )
    star = (
        "star-5 (centre exposed)",
        star_query(5),
        star_views(
            5,
            arm_subsets=[[i] for i in range(1, 6)] + [[i, i + 1] for i in range(1, 5)],
            expose_center=True,
        ),
    )
    star_hidden = (
        "star-5 (centre hidden)",
        star_query(5),
        star_views(5, expose_center=False),
    )
    return [chain, star, star_hidden]


def _ablation_rows():
    rows = []
    for name, query, views in _workloads():
        configurations = [
            ("minicon", MiniConRewriter(views, verify_rewritings=True)),
            ("minicon, no verify", MiniConRewriter(views, verify_rewritings=False)),
            ("bucket", BucketRewriter(views)),
        ]
        for label, rewriter in configurations:
            started = time.perf_counter()
            result = rewriter.rewrite(query)
            elapsed = time.perf_counter() - started
            rows.append(
                [
                    name,
                    label,
                    result.candidates_examined,
                    len(result.rewritings),
                    result.has_equivalent,
                    elapsed * 1000.0,
                ]
            )
    return rows


HEADERS = [
    "workload",
    "configuration",
    "candidates examined",
    "rewritings",
    "equivalent found",
    "time (ms)",
]
TITLE = "E10: ablation — MCD pruning vs bucket cross-product"


def render(rows=None) -> str:
    """E10's table as text without its ``time (ms)`` column, which varies run
    to run; ``benchmarks/golden/e10.txt`` holds the expected copy."""
    if rows is None:
        rows = _ablation_rows()
    return format_table([row[:-1] for row in rows], headers=HEADERS[:-1], title=TITLE)


def test_e10_ablation_table(benchmark):
    rows = benchmark.pedantic(_ablation_rows, rounds=1, iterations=1)
    benchmark.extra_info["experiment"] = "E10"
    print()
    print(format_table(rows, headers=HEADERS, title=TITLE))
    by_key = {(row[0], row[1]): row for row in rows}
    # On the hidden-centre star, MiniCon examines nothing while bucket still
    # enumerates combinations.
    assert by_key[("star-5 (centre hidden)", "minicon")][2] == 0
    assert by_key[("star-5 (centre hidden)", "bucket")][2] >= 1
    # Same rewriting-existence verdict from both algorithms everywhere.
    for name, _, _ in _workloads():
        assert (
            by_key[(name, "minicon")][4] == by_key[(name, "bucket")][4]
        ), f"existence disagreement on {name}"


@pytest.mark.parametrize("verify", [True, False])
def test_e10_minicon_verification_cost(benchmark, verify):
    name, query, views = _workloads()[0]
    rewriter = MiniConRewriter(views, verify_rewritings=verify)
    result = benchmark.pedantic(rewriter.rewrite, args=(query,), rounds=2, iterations=1)
    benchmark.extra_info["experiment"] = "E10"
    benchmark.extra_info["verify"] = verify
    benchmark.extra_info["rewritings"] = len(result.rewritings)


def test_e10_bucket_reference(benchmark):
    name, query, views = _workloads()[0]
    rewriter = BucketRewriter(views)
    result = benchmark.pedantic(rewriter.rewrite, args=(query,), rounds=1, iterations=1)
    benchmark.extra_info["experiment"] = "E10"
    benchmark.extra_info["candidates_examined"] = result.candidates_examined
