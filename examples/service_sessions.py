#!/usr/bin/env python3
"""Serving query traffic through one engine.

The quickstart example asks one engine one question.  This example shows the
same engine amortizing work across *traffic*: repeated queries — including
isomorphic variants with different variable names and subgoal orders — are
served from the fingerprint cache, answers are evaluated through cached
rewritings over materialized views, and a whole workload is replayed through
``engine.batch()``:

1. ``repro.connect()`` opens the engine (views + data, caches, view index);
2. three phrasings of one query cost one rewriting computation;
3. ``apply()`` maintains the view extents incrementally and keeps answers
   correct; mutating the database behind the engine's back still works (the
   version counter forces a coarse refresh);
4. ``batch()`` replays a workload and reports throughput;
5. ``stats()`` exposes catalog, caches, store and executor state.

Run with:  python examples/service_sessions.py
"""

import repro
from repro.engine import evaluate

VIEWS = """
v_enrolled_taught(S, C, P) :- enrolled(S, C), teaches(P, C).
v_advises(P, S) :- advises(P, S).
v_grades(S, C, G) :- grade(S, C, G).
"""


def main() -> None:
    engine = repro.connect(
        views=VIEWS,
        data={
            "enrolled": [("ann", "db"), ("bob", "db"), ("ann", "ai"), ("eve", "ai")],
            "teaches": [("smith", "db"), ("jones", "ai")],
            "advises": [("smith", "ann"), ("jones", "eve"), ("smith", "bob")],
            "grade": [("ann", "db", "a")],
        },
    )

    # -- the same query, phrased three different ways ------------------------
    requests = [
        "q(Student, Course) :- enrolled(Student, Course), "
        "teaches(Prof, Course), advises(Prof, Student).",
        # isomorphic: renamed variables, reordered subgoals
        "q(S, C) :- advises(P, S), enrolled(S, C), teaches(P, C).",
        "q(A, B) :- teaches(T, B), advises(T, A), enrolled(A, B).",
    ]
    for text in requests:
        result = engine.query(text).rewrite()
        tag = "cache hit " if engine.last_cache_hit else "cache miss"
        print(f"[{tag}] best plan: {result.best.query}")
    print()

    # -- answers come from the views, stay correct under updates --------------
    prepared = engine.query(requests[0])
    print("answers:", prepared.answers().sorted_rows())

    # The fast path: a delta through the engine maintains extents and evicts
    # only the affected cache entries.
    log = engine.apply("+ enrolled(eve, db).\n+ advises(smith, eve).")
    print("delta touched:", sorted(log.affected_predicates()))
    print("after delta:", prepared.answers().sorted_rows())

    # The coarse path: out-of-band mutation still yields correct answers.
    engine.database.add_fact("enrolled", ("bob", "ai"))
    answer = prepared.answers()
    assert answer.rows == evaluate(prepared.query, engine.database)
    print("after out-of-band insert:", answer.sorted_rows())
    print()

    # -- batch a workload ------------------------------------------------------
    report = engine.batch(requests * 20, with_answers=True)
    print(
        f"batch: {report.requests} requests, {report.cache_hits} cache hits, "
        f"{report.throughput:.0f} q/s"
    )

    # -- introspection --------------------------------------------------------
    stats = engine.stats()
    session = stats["session"]
    print(
        "engine: "
        f"{stats['queries_served']} queries served, "
        f"{stats['deltas_applied']} deltas applied, "
        f"rewrite cache {session['rewrite_cache']['hits']}h/"
        f"{session['rewrite_cache']['misses']}m, "
        f"{session['view_index']['views_pruned']} views pruned by the index"
    )


if __name__ == "__main__":
    main()
