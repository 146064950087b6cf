"""E9 — Table: maximally-contained rewritings and certain answers (R5).

Data-integration setting: sources materialize incomplete views of a hidden
database.  The table compares three ways of computing certain answers —
inverse rules, the MiniCon union, and the bucket union — and checks that they
agree and that every certain answer is a true answer of the hidden database.
The benchmarked operations are the three certain-answer pipelines.
"""

import pytest

from repro import parse_query, parse_views
from repro.engine import evaluate, materialize_views
from repro.rewriting import certain_answers
from repro.experiments.tables import format_table
from repro.workloads.data import random_chain_database
from repro.workloads.generators import chain_query, chain_views
from repro.workloads.schemas import paper_example


def _settings():
    """(name, query, views, hidden database) configurations."""
    configurations = []

    # Chain query with only prefix/suffix sources: genuinely incomplete.
    query = chain_query(3)
    views = chain_views(3, segment_lengths=[1]).restrict(["v_0_1", "v_2_1"])
    database = random_chain_database(3, tuples_per_relation=60, domain_size=10, seed=23)
    configurations.append(("chain-3, missing middle source", query, views, database))

    # Chain query with all length-1 sources: lossless.
    views_full = chain_views(3, segment_lengths=[1])
    configurations.append(("chain-3, all sources", query, views_full, database))

    # Citation scenario: indirect-citation query over overlapping sources.
    scenario = paper_example()
    citation_query = parse_query(
        "q(X, Y) :- cites(X, Z), cites(Z, Y), same_topic(X, Y)."
    )
    citation_views = parse_views(
        """
        src_mutual(A, B) :- cites(A, B), cites(B, A).
        src_topic(A, B) :- same_topic(A, B).
        src_chain(A, B) :- cites(A, C), cites(C, B), same_topic(A, C).
        """
    )
    configurations.append(
        ("citations, three sources", citation_query, citation_views, scenario.make_database(50, 3))
    )
    return configurations


def _certain_rows():
    rows = []
    for name, query, views, database in _settings():
        instance = materialize_views(views, database)
        truth = evaluate(query, database)
        by_inverse = certain_answers(query, views, instance, method="inverse-rules")
        by_minicon = certain_answers(query, views, instance, method="minicon")
        by_bucket = certain_answers(query, views, instance, method="bucket")
        rows.append(
            [
                name,
                len(truth),
                len(by_inverse),
                len(by_minicon),
                len(by_bucket),
                by_inverse == by_minicon == by_bucket,
                by_inverse <= truth,
            ]
        )
    return rows


def test_e9_certain_answer_table(benchmark):
    rows = benchmark.pedantic(_certain_rows, rounds=1, iterations=1)
    benchmark.extra_info["experiment"] = "E9"
    print()
    print(
        format_table(
            rows,
            headers=[
                "setting",
                "true answers",
                "inverse rules",
                "minicon union",
                "bucket union",
                "methods agree",
                "sound",
            ],
            title="E9: certain answers from incomplete sources",
        )
    )
    assert all(row[5] and row[6] for row in rows)


@pytest.mark.parametrize("method", ["inverse-rules", "minicon", "bucket"])
def test_e9_certain_answer_methods(benchmark, method):
    name, query, views, database = _settings()[2]
    instance = materialize_views(views, database)
    answers = benchmark(certain_answers, query, views, instance, method=method)
    benchmark.extra_info["experiment"] = "E9"
    benchmark.extra_info["setting"] = name
    benchmark.extra_info["method"] = method
    benchmark.extra_info["answers"] = len(answers)
    assert answers <= evaluate(query, database)
