#!/usr/bin/env python3
"""The compiled execution engine: plans, statistics, and the speedup.

The paper's query-optimization argument only lands if executing rewritings
is cheap.  This example

1. opens an engine over a chain database and query through
   ``repro.connect`` (every engine evaluates through the compiled
   set-at-a-time engine),
2. prints the physical plan through ``engine.query(...).explain()``,
3. checks the engine agrees with the reference interpreter,
   ``evaluate(..., executor="interpreted")``,
4. times both evaluators to show the set-at-a-time speedup, and
5. shows the plan cache serving a repeated (isomorphic) query.

Run with:  python examples/execution_engine.py
"""

import time

import repro
from repro import parse_query
from repro.engine import evaluate
from repro.exec import CompiledExecutor, statistics_for
from repro.workloads.data import random_chain_database


def main() -> None:
    database = random_chain_database(4, tuples_per_relation=800, domain_size=150, seed=7)
    query = parse_query("q(X0, X4) :- r1(X0, X1), r2(X1, X2), r3(X2, X3), r4(X3, X4).")
    engine = repro.connect(data=database)

    # -- statistics drive the join order ------------------------------------
    stats = statistics_for(database)
    print("statistics feeding the plan compiler:")
    for name in ("r1", "r2", "r3", "r4"):
        print(
            f"  {name}: {stats.cardinality(name)} rows, "
            f"{stats.distinct(name, 0)}/{stats.distinct(name, 1)} distinct per column"
        )

    # -- the compiled physical plan ----------------------------------------
    explanation = engine.query(query).explain()
    print()
    print(explanation.to_text())
    assert explanation.evaluation.plans[0].strategy == "compiled"

    # -- the engine agrees with the reference interpreter --------------------
    compiled = engine.query(query).answers()
    assert compiled.rows == evaluate(query, database, executor="interpreted")
    print(f"\nthe engine and the interpreter return the same {len(compiled)} answers")

    # -- the speedup ---------------------------------------------------------
    compiled_executor = CompiledExecutor()
    rounds = 3
    timings = {}
    for label, executor in (("compiled", compiled_executor), ("interpreted", "interpreted")):
        started = time.perf_counter()
        for _ in range(rounds):
            evaluate(query, database, executor=executor)
        timings[label] = (time.perf_counter() - started) / rounds
    print(
        f"compiled {timings['compiled'] * 1e3:.1f} ms vs "
        f"interpreted {timings['interpreted'] * 1e3:.1f} ms per evaluation "
        f"({timings['interpreted'] / timings['compiled']:.1f}x)"
    )

    # -- plan caching across isomorphic queries ------------------------------
    isomorphic = parse_query("q(A, E) :- r1(A, B), r2(B, C), r3(C, D), r4(D, E).")
    evaluate(isomorphic, database, executor=compiled_executor)
    cache = compiled_executor.stats()
    print(
        f"plan cache after the isomorphic variant: "
        f"{cache['plan_hits']} hits / {cache['plan_misses']} misses"
    )
    assert cache["plan_hits"] >= 1


if __name__ == "__main__":
    main()
