#!/usr/bin/env python3
"""Data integration with incomplete sources (the paper's R5 direction).

In a mediator system the views describe *sources*: each source materializes a
view over a global schema the mediator never sees directly, and sources are
sound but possibly incomplete.  Answering a user query then means computing
the certain answers from whatever the sources return.  The example

1. sets up a citation-database global schema with three overlapping sources,
2. shows that the user query has no equivalent rewriting over the sources,
3. builds the maximally-contained rewriting (MiniCon and bucket) and the
   inverse-rules datalog program, and
4. computes certain answers with both methods and compares them against the
   hidden "true" database.

Run with:  python examples/data_integration.py
"""

import repro
from repro import parse_query, parse_views
from repro.engine import evaluate, materialize_views
from repro.rewriting import maximally_contained_rewriting
from repro.rewriting.inverse_rules import inverse_rules_program
from repro.workloads.schemas import paper_example

SOURCES = """
src_mutual(A, B) :- cites(A, B), cites(B, A).
src_topic(A, B) :- same_topic(A, B).
src_chain(A, B) :- cites(A, C), cites(C, B), same_topic(A, C).
"""


def main() -> None:
    # Global schema: cites(paper, paper), same_topic(paper, paper).
    # The user asks for indirect citations between same-topic papers.
    query = parse_query(
        "q(X, Y) :- cites(X, Z), cites(Z, Y), same_topic(X, Y)."
    )
    sources = parse_views(SOURCES)

    print("User query          :", query)
    print("Source descriptions :")
    for view in sources:
        print("  ", view)
    print()

    # --- no equivalent rewriting exists --------------------------------------
    mediator = repro.connect(views=sources)
    equivalent = mediator.query(query).rewrite()
    print("Equivalent rewriting over the sources?", equivalent.has_equivalent)

    # --- maximally-contained rewriting ---------------------------------------
    for algorithm in ("minicon", "bucket"):
        plan = maximally_contained_rewriting(query, sources, algorithm=algorithm)
        print(f"\nMaximally-contained rewriting ({algorithm}):")
        for disjunct in plan.disjuncts():
            print("  ", disjunct)

    # --- inverse rules --------------------------------------------------------
    program = inverse_rules_program(query, sources)
    print("\nInverse-rules datalog program:")
    for rule in program:
        print("  ", rule)

    # --- certain answers over a concrete instance ------------------------------
    # The "true" database lives only at the sources' side; the mediator sees
    # just the materialized source relations — exactly what
    # connect(view_instance=...) models.
    scenario = paper_example()
    hidden_database = scenario.make_database(40, seed=11)
    source_instance = materialize_views(sources, hidden_database)
    mediator = repro.connect(views=sources, view_instance=source_instance)

    by_rewriting = mediator.query(query).certain(method="rewriting").rows
    by_inverse = mediator.query(query).certain(method="inverse-rules").rows
    truth = evaluate(query, hidden_database)

    print("\nCertain answers (rewriting)     :", len(by_rewriting))
    print("Certain answers (inverse rules) :", len(by_inverse))
    print("Methods agree?                  :", by_rewriting == by_inverse)
    print("True answers on hidden database :", len(truth))
    print("Certain ⊆ true?                 :", by_rewriting <= truth)
    missed = len(truth) - len(by_rewriting)
    print(f"Answers not derivable from the sources (information loss): {missed}")


if __name__ == "__main__":
    main()
