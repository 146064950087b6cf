"""The optimized cold rewriting path agrees with the reference pipeline.

A maximally-contained MiniCon request through the indexed search, the
containment memo, the shared per-request unfolding and the one-pass union
must report the same rewritings, of the same kinds, as the reference
pipeline in :mod:`tests.oracles`, and its best plan must return the same
answers over a materialized view instance.  Workloads are the paper's three
query shapes, each at two view counts.
"""

from __future__ import annotations

import pytest

from repro.containment.memo import global_containment_memo
from repro.datalog.atoms import Atom
from repro.datalog.queries import ConjunctiveQuery, UnionQuery
from repro.datalog.terms import Variable
from repro.datalog.views import View, ViewSet
from repro.engine.evaluate import evaluate, materialize_views
from repro.rewriting.rewriter import rewrite
from repro.workloads.data import random_chain_database, random_database, random_graph_database
from repro.workloads.generators import chain_query, chain_views, complete_query, complete_views

from tests.oracles import reference_maximally_contained


def deep_star(arms):
    """A star with two-step arms: ``q(C, X1..Xa) :- e_i(C, Mi), f_i(Mi, Xi)``.

    Views cover whole arms (the middle variable is existential), adjacent arm
    pairs, and the two half-arm relations.
    """
    center = Variable("C")
    body, head_args = [], [center]
    for arm in range(1, arms + 1):
        middle, leaf = Variable(f"M{arm}"), Variable(f"X{arm}")
        body += [Atom(f"e{arm}", [center, middle]), Atom(f"f{arm}", [middle, leaf])]
        head_args.append(leaf)
    query = ConjunctiveQuery(Atom("q", head_args), body)
    views = []
    for arm in range(1, arms + 1):
        middle, leaf = Variable(f"M{arm}"), Variable(f"X{arm}")
        name = f"v_arm{arm}"
        views.append(View(name, ConjunctiveQuery(
            Atom(name, [center, leaf]),
            [Atom(f"e{arm}", [center, middle]), Atom(f"f{arm}", [middle, leaf])],
        )))
        e_name, f_name = f"v_e{arm}", f"v_f{arm}"
        views.append(View(e_name, ConjunctiveQuery(
            Atom(e_name, [center, middle]), [Atom(f"e{arm}", [center, middle])])))
        views.append(View(f_name, ConjunctiveQuery(
            Atom(f_name, [middle, leaf]), [Atom(f"f{arm}", [middle, leaf])])))
    for arm in range(1, arms):
        m1, x1 = Variable(f"M{arm}"), Variable(f"X{arm}")
        m2, x2 = Variable(f"M{arm + 1}"), Variable(f"X{arm + 1}")
        name = f"v_pair{arm}"
        views.append(View(name, ConjunctiveQuery(
            Atom(name, [center, x1, x2]),
            [
                Atom(f"e{arm}", [center, m1]),
                Atom(f"f{arm}", [m1, x1]),
                Atom(f"e{arm + 1}", [center, m2]),
                Atom(f"f{arm + 1}", [m2, x2]),
            ],
        )))
    return query, ViewSet(views)


def chain(segments):
    query = chain_query(6)
    database = random_chain_database(6, tuples_per_relation=40, domain_size=25, seed=1)
    return query, chain_views(6, segment_lengths=segments), database


def star(arms):
    query, views = deep_star(arms)
    relations = {f"{kind}{arm}": 2 for arm in range(1, 4) for kind in "ef"}
    database = random_database(relations, tuples_per_relation=40, domain_size=20, seed=2)
    return query, views, database


def complete(view_count):
    views = complete_views(3, view_count, view_size=3, seed=1)
    database = random_graph_database(num_nodes=20, num_edges=80, seed=3)
    return complete_query(3), views, database


WORKLOADS = {
    "chain-segments<=2": lambda: chain([1, 2]),
    "chain-segments<=3": lambda: chain([1, 2, 3]),
    "star-arms=2": lambda: star(2),
    "star-arms=3": lambda: star(3),
    "complete-views=2": lambda: complete(2),
    "complete-views=3": lambda: complete(3),
}


def signature(result):
    """Every rewriting as (kind, sorted canonical disjuncts), order-insensitive."""
    out = []
    for rewriting in result.rewritings:
        disjuncts = (
            rewriting.query.disjuncts
            if isinstance(rewriting.query, UnionQuery)
            else (rewriting.query,)
        )
        out.append((rewriting.kind.value, tuple(sorted(str(d.canonical()) for d in disjuncts))))
    return sorted(out)


def best_plan_answers(result, instance):
    best = result.best
    return frozenset() if best is None else evaluate(best.query, instance)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_optimized_minicon_matches_reference_pipeline(workload):
    query, views, database = WORKLOADS[workload]()
    global_containment_memo().clear()
    optimized = rewrite(query, views, algorithm="minicon", mode="maximally-contained")
    reference = reference_maximally_contained(query, views)
    assert optimized.rewritings, "the workload must produce rewritings to compare"
    assert signature(optimized) == signature(reference)
    instance = materialize_views(views, database)
    assert best_plan_answers(optimized, instance) == best_plan_answers(reference, instance)
