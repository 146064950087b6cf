"""Tests for the MaterializedViewStore: maintenance, fallback, staleness."""

import pytest

from repro import connect
from repro.datalog.atoms import Atom
from repro.datalog.parser import parse_views
from repro.datalog.queries import ConjunctiveQuery
from repro.datalog.terms import FunctionTerm, Variable
from repro.datalog.views import View, ViewSet
from repro.errors import MaterializationError, UnsupportedFeatureError
from repro.engine.database import Database
from repro.materialize.changelog import (
    STRATEGY_INCREMENTAL,
    STRATEGY_RECOMPUTE,
    STRATEGY_UNAFFECTED,
)
from repro.materialize.compare import assert_consistent, verify_extents
from repro.materialize.delta import Delta, parse_delta
from repro.materialize.store import MaterializedViewStore

VIEWS = parse_views(
    """
    v_rs(A, B) :- r(A, C), s(C, B).
    v_r(A, B) :- r(A, B).
    v_t(A, B) :- t(A, B).
    """
)


def make_store():
    db = Database.from_dict({"r": [(1, 2)], "s": [(2, 3)], "t": [(9, 9)]})
    return MaterializedViewStore(VIEWS, db), db


class TestMaterialization:
    def test_initial_extents(self):
        store, _db = make_store()
        assert store.extent("v_rs") == frozenset({(1, 3)})
        assert store.extent("v_r") == frozenset({(1, 2)})
        assert store.extent("v_t") == frozenset({(9, 9)})
        assert_consistent(store)

    def test_unknown_view_raises(self):
        store, _db = make_store()
        with pytest.raises(MaterializationError):
            store.extent("nope")
        with pytest.raises(MaterializationError):
            store.refresh("nope")

    def test_as_database_is_live(self):
        store, _db = make_store()
        instance = store.as_database()
        store.apply_delta(Delta.insertion("r", [(1, 5), (5, 2)]))
        # Same object, maintained in place.
        assert instance is store.as_database()
        assert instance.tuples("v_rs") == frozenset({(1, 3), (5, 3)})


class TestApplyDelta:
    def test_changelog_scopes_to_affected_views(self):
        store, _db = make_store()
        log = store.apply_delta(Delta.insertion("r", [(7, 2)]))
        assert log.base_predicates == frozenset({"r"})
        assert set(log.changed_views) == {"v_rs", "v_r"}
        assert log.view_change("v_rs").strategy == STRATEGY_INCREMENTAL
        assert log.view_change("v_t").strategy == STRATEGY_UNAFFECTED
        assert log.affected_predicates() == frozenset({"r", "v_rs", "v_r"})
        assert store.views_skipped == 1

    def test_text_delta_is_maintained_like_a_built_one(self):
        store, _db = make_store()
        log = store.apply_delta(parse_delta("+ r(7, 2)."))
        assert log.delta.inserted_rows("r") == frozenset({(7, 2)})
        assert store.extent("v_rs") == frozenset({(1, 3), (7, 3)})

    def test_deletion_through_shared_join_witness(self):
        # Removing the only s-tuple empties v_rs but leaves v_r alone.
        store, _db = make_store()
        log = store.apply_delta(Delta.deletion("s", [(2, 3)]))
        assert store.extent("v_rs") == frozenset()
        assert store.extent("v_r") == frozenset({(1, 2)})
        assert log.view_change("v_rs").removed == frozenset({(1, 3)})
        assert_consistent(store)

    def test_noop_delta_changes_nothing(self):
        store, _db = make_store()
        log = store.apply_delta(Delta.insertion("r", [(1, 2)]))  # already present
        assert log.delta.is_empty()
        assert log.is_empty
        assert not log.changed_views

    def test_derivation_count_visible(self):
        store, _db = make_store()
        store.apply_delta(Delta.insertion("r", [(1, 7)]))
        store.apply_delta(Delta.insertion("s", [(7, 3)]))
        # (1, 3) now derivable through C=2 and C=7.
        assert store.derivation_count("v_rs", (1, 3)) == 2
        store.apply_delta(Delta.deletion("s", [(2, 3)]))
        assert store.extent("v_rs") == frozenset({(1, 3)})
        assert store.derivation_count("v_rs", (1, 3)) == 1

    def test_changelog_to_dict(self):
        store, _db = make_store()
        log = store.apply_delta(Delta.insertion("r", [(7, 2)]))
        payload = log.to_dict()
        assert payload["base_predicates"] == ["r"]
        assert payload["delta_size"] == 1
        assert {v["view"] for v in payload["views"]} == {"v_rs", "v_r", "v_t"}


class TestFallbackAndStaleness:
    def test_function_term_view_is_refused_not_recomputed(self):
        head = Atom("v_fn", [Variable("X")])
        body = [Atom("r", [Variable("X"), FunctionTerm("f", [Variable("X")])])]
        with pytest.raises(UnsupportedFeatureError):
            connect(views=ViewSet([View("v_fn", ConjunctiveQuery(head, body))]))

    def test_inconsistent_counts_fall_back_to_recompute(self):
        store, _db = make_store()
        store._counts["v_r"].clear()  # the counters lose track of (1, 2)
        log = store.apply_delta(Delta.deletion("r", [(1, 2)]))
        assert log.view_change("v_r").strategy == STRATEGY_RECOMPUTE
        assert store.views_recomputed == 1
        assert_consistent(store)

    def test_out_of_band_mutation_self_heals(self):
        store, db = make_store()
        db.add_fact("r", (8, 2))  # behind the store's back
        assert store.is_stale()
        assert store.extent("v_rs") == frozenset({(1, 3), (8, 3)})
        assert not store.is_stale()
        assert store.full_refreshes == 2

    def test_views_affected_by(self):
        store, _db = make_store()
        assert store.views_affected_by(["r"]) == ("v_rs", "v_r")
        assert store.views_affected_by(["t"]) == ("v_t",)
        assert store.views_affected_by(["nope"]) == ()

    def test_verify_extents_reports_mismatch(self):
        store, _db = make_store()
        # Sabotage the maintained instance to prove the checker sees it.
        store.as_database().add_fact("v_rs", (0, 0))
        mismatches = verify_extents(store)
        assert len(mismatches) == 1
        assert mismatches[0].view == "v_rs"
        assert mismatches[0].spurious == frozenset({(0, 0)})


class TestChurnConsistency:
    def test_long_mixed_stream_stays_exact(self):
        import random

        rng = random.Random(7)
        db = Database.from_dict(
            {
                "r": [(rng.randrange(10), rng.randrange(10)) for _ in range(80)],
                "s": [(rng.randrange(10), rng.randrange(10)) for _ in range(80)],
                "t": [(rng.randrange(10), rng.randrange(10)) for _ in range(20)],
            }
        )
        store = MaterializedViewStore(VIEWS, db)
        for _step in range(25):
            inserted, removed = {}, {}
            for name in ("r", "s", "t"):
                rows = sorted(db.tuples(name))
                if rows:
                    removed.setdefault(name, set()).update(
                        rng.sample(rows, min(2, len(rows)))
                    )
                inserted.setdefault(name, set()).update(
                    (rng.randrange(10), rng.randrange(10)) for _ in range(2)
                )
            store.apply_delta(Delta(inserted=inserted, removed=removed))
            assert_consistent(store)
        assert store.views_recomputed == 0
