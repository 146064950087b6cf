#!/usr/bin/env python3
"""Quickstart: answer a query using materialized views through ``repro.connect``.

The scenario is the paper's motivating one: a query must be answered, but the
base relations are expensive (or unavailable) and a set of materialized views
is at hand.  The example

1. opens an engine over a query, three views and a small database,
2. asks for answers — the engine rewrites the query over the views, compiles
   a physical plan, and reports the *provenance* of what it did,
3. explains the decision tree (rewriting choice → plan steps → caches),
4. shows the same rewriting through each algorithm via the supported
   lower-level API, verifying the rewriting by expansion.

Run with:  python examples/quickstart.py
"""

import repro
from repro.containment import is_equivalent
from repro.engine import evaluate
from repro.rewriting import expand_rewriting, rewrite

VIEWS = """
v_enrolled_taught(S, C, P) :- enrolled(S, C), teaches(P, C).
v_advises(P, S) :- advises(P, S).
v_course_only(C) :- teaches(P, C).
"""

QUERY = (
    "q(Student, Course) :- enrolled(Student, Course), "
    "teaches(Prof, Course), advises(Prof, Student)."
)


def main() -> None:
    # A query over a tiny university schema: students enrolled in a course
    # taught by their own advisor.  One connect() call validates the catalog
    # and attaches the data.
    engine = repro.connect(
        views=VIEWS,
        data={
            "enrolled": [("ann", "db"), ("bob", "db"), ("ann", "ai"), ("eve", "ai")],
            "teaches": [("smith", "db"), ("jones", "ai")],
            "advises": [("smith", "ann"), ("jones", "eve"), ("smith", "bob")],
        },
    )
    prepared = engine.query(QUERY)
    print("Query:")
    print(f"  {prepared.query}")
    print("Views:")
    for view in engine.views:
        print(f"  {view}")
    print()

    # --- answers with provenance --------------------------------------------
    answer = prepared.answers()
    print("Answers:", answer.sorted_rows())
    print(f"  computed from : {answer.provenance.source}")
    print(f"  via rewriting : {answer.provenance.rewriting}")
    print(f"  views used    : {', '.join(answer.provenance.views_used)}")
    print()

    # --- the full decision tree ---------------------------------------------
    print(prepared.explain().to_text())
    print()

    # --- each algorithm, through the supported lower-level API --------------
    for algorithm in ("exhaustive", "bucket", "minicon"):
        result = rewrite(prepared.query, engine.views, algorithm=algorithm)
        print(f"[{algorithm}] examined {result.candidates_examined} candidates "
              f"in {result.elapsed * 1000:.1f} ms")
        if not result.has_equivalent:
            print("  no equivalent rewriting found")
            continue
        best = result.best
        print(f"  best rewriting : {best.query}")
        expansion = expand_rewriting(best.query, engine.views)
        print(f"  equivalent to the query? {is_equivalent(expansion, prepared.query)}")
    print()

    # --- the facade's answers equal direct evaluation -----------------------
    direct = evaluate(prepared.query, engine.database)
    print("Facade answers equal direct evaluation?", answer.rows == direct)


if __name__ == "__main__":
    main()
