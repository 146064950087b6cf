#!/usr/bin/env python3
"""Materialized views that survive data churn — through the engine.

An engine's materialized extents are maintained *incrementally*: applying a
delta adjusts per-row derivation counts instead of recomputing extents, which
makes deletions exact, and the change log scopes cache invalidation to the
predicates actually touched:

1. ``repro.connect`` materializes the views; the store underneath tracks
   *derivation counts* per output row;
2. ``engine.apply`` batches insertions and deletions; the counting delta
   rules maintain the extents — deletions included — and the returned
   :class:`ChangeLog` reports exactly which predicates and views changed;
3. cached answers for untouched predicates survive the churn (delta-scoped
   invalidation, not a whole-cache flush).

Run with:  python examples/incremental_maintenance.py
"""

import repro

VIEWS = """
v_route(A, C) :- flight(A, B), flight(B, C).
v_cheap(A, B) :- fare(A, B, P), P < 100.
v_hotel(C, H) :- hotel(C, H).
"""


def main() -> None:
    engine = repro.connect(
        views=VIEWS,
        data={
            "flight": [("sfo", "ord"), ("ord", "jfk"), ("sfo", "den"), ("den", "jfk")],
            "fare": [("sfo", "ord", 120), ("sfo", "den", 80), ("den", "jfk", 95)],
            "hotel": [("jfk", "plaza"), ("ord", "hilton")],
        },
    )

    # -- 1. materialize, with derivation counts ------------------------------
    print("initial extents:")
    for view in engine.views:
        print(f"  {view.name}: {sorted(engine.extent(view.name))}")
    # sfo->jfk is derivable through ord AND den: two derivations, one row.
    store = engine.store()
    print("derivations of v_route(sfo, jfk):",
          store.derivation_count("v_route", ("sfo", "jfk")))

    # -- 2. a delta with a deletion ------------------------------------------
    # Dropping sfo->ord kills one derivation of (sfo, jfk); the row SURVIVES
    # because the den route still supports it.  Naive insert-only maintenance
    # (or deleting any matching row) would get this wrong.
    log = engine.apply("- flight(sfo, ord).")
    print("\nafter deleting flight(sfo, ord):", log)
    print("v_route:", sorted(engine.extent("v_route")))
    print("derivations of v_route(sfo, jfk):",
          store.derivation_count("v_route", ("sfo", "jfk")))

    # Deleting the den leg too removes the last derivation -> row disappears.
    log = engine.apply(repro.Delta.deletion("flight", [("sfo", "den")]))
    print("after deleting flight(sfo, den):", log)
    print("v_route:", sorted(engine.extent("v_route")))
    assert engine.verify() == []  # maintained extents equal recomputation

    # -- 3. delta-scoped cache invalidation ----------------------------------
    served = repro.connect(
        views=VIEWS,
        data={
            "flight": [("sfo", "ord"), ("ord", "jfk")],
            "hotel": [("jfk", "plaza")],
        },
    )
    q_route = served.query("q(A, C) :- flight(A, B), flight(B, C).")
    q_hotel = served.query("qh(C, H) :- hotel(C, H).")
    q_route.answers()
    q_hotel.answers()

    # The delta touches only `flight`: the hotel entry must survive.
    log = served.apply("+ flight(jfk, bos).")
    print("\nservice delta log:", log)
    print("affected predicates:", sorted(log.affected_predicates()))
    print("hotel query after churn -> served from answer cache:",
          q_hotel.answers().provenance.answered_from_cache)
    route_answer = q_route.answers()
    print("route query answers (evicted, recomputed fresh):",
          route_answer.sorted_rows())

    stats = served.stats()["session"]
    print("\nsession stats: retained", stats["delta_retained"],
          "evicted", stats["delta_evictions"],
          "| store:", stats["store"]["views_maintained"], "views maintained,",
          stats["store"]["full_refreshes"], "full refresh(es)")


if __name__ == "__main__":
    main()
