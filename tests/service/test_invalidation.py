"""Service-cache invalidation edges: delta-scoped eviction and view swaps."""

import pytest

from repro import connect
from repro.datalog.parser import parse_query, parse_views
from repro.datalog.views import ViewSet
from repro.engine.database import Database
from repro.engine.evaluate import evaluate
from repro.errors import MaterializationError
from repro.materialize.delta import Delta

VIEWS = parse_views(
    """
    v_rs(A, B) :- r(A, C), s(C, B).
    v_t(A, B) :- t(A, B).
    """
)

Q_RS = parse_query("q(X, Z) :- r(X, Y), s(Y, Z).")
Q_T = parse_query("qt(X, Y) :- t(X, Y).")


def open_engine(views=VIEWS, database=None):
    # The in-memory backend attaches ``database`` itself, so a test can also
    # mutate it behind the engine's back.
    return connect(views=views, data=database)


def make_session():
    db = Database.from_dict({"r": [(1, 2)], "s": [(2, 3)], "t": [(9, 9)]})
    return open_engine(database=db), db


def answer(session, query):
    return session.query(query).answers().rows


def from_cache(session, query):
    """Serve ``query``; whether its rows came from the answer cache."""
    return session.query(query).answers().provenance.answered_from_cache


class TestDeltaScopedInvalidation:
    def test_irrelevant_delta_entries_survive(self):
        session, _db = make_session()
        answer(session, Q_RS)
        answer(session, Q_T)
        log = session.apply(Delta.insertion("t", [(4, 4)]))
        assert log.base_predicates == frozenset({"t"})
        # The r/s entry survives; only the t entry was evicted.
        assert from_cache(session, Q_RS) is True
        assert session.delta_retained == 1
        assert session.delta_evictions == 1

    def test_relevant_delta_entries_evicted_and_fresh(self):
        session, _db = make_session()
        stale = answer(session, Q_RS)
        log = session.apply(Delta.insertion("r", [(8, 2)]))
        assert "v_rs" in log.changed_views
        fresh = session.query(Q_RS).answers()
        assert fresh.provenance.answered_from_cache is False
        assert fresh.rows == stale | {(8, 3)}

    def test_deletion_is_observed_not_served_stale(self):
        # The PR-1 regression: a deletion must never leave a stale cached
        # answer (or a stale materialized extent) observable.
        session, db = make_session()
        assert answer(session, Q_RS) == frozenset({(1, 3)})
        session.apply(Delta.deletion("s", [(2, 3)]))
        assert answer(session, Q_RS) == frozenset()
        assert answer(session, Q_RS) == evaluate(Q_RS, db)

    def test_noop_delta_keeps_everything(self):
        session, _db = make_session()
        answer(session, Q_RS)
        log = session.apply(Delta.insertion("r", [(1, 2)]))  # already present
        assert log.delta.is_empty()
        assert from_cache(session, Q_RS) is True

    def test_rewrite_cache_survives_data_churn(self):
        session, _db = make_session()
        session.query(Q_RS).rewrite()
        session.apply(Delta.insertion("r", [(6, 2)]))
        session.query(Q_RS).rewrite()
        assert session.last_cache_hit is True

    def test_out_of_band_mutation_still_coarse_but_correct(self):
        session, db = make_session()
        answer(session, Q_RS)
        answer(session, Q_T)
        db.remove_fact("s", (2, 3))  # not via apply_delta
        # Coarse path: everything flushed, but answers are correct.
        flushed = session.query(Q_RS).answers()
        assert flushed.rows == frozenset()
        assert flushed.provenance.answered_from_cache is False
        answer(session, Q_T)
        # Q_T was flushed too (the cost of bypassing apply_delta) — re-served
        # correctly after a miss on the first post-churn access.
        assert answer(session, Q_T) == frozenset({(9, 9)})


class TestViewSetEdges:
    def test_view_added_mid_session(self):
        session, _db = make_session()
        answer(session, Q_RS)
        before = session.invalidations
        session.set_views(VIEWS.extend(parse_views("v_r(A, B) :- r(A, B).")))
        assert session.invalidations == before + 1
        # Served correctly against the new view set, as a miss.
        served = session.query(Q_RS).answers()
        assert served.rows == frozenset({(1, 3)})
        assert served.provenance.answered_from_cache is False

    def test_view_removed_mid_session(self):
        session, _db = make_session()
        answer(session, Q_T)
        session.set_views(VIEWS.restrict(["v_rs"]))
        served = session.query(Q_T).answers()
        assert served.provenance.answered_from_cache is False
        assert served.rows == frozenset({(9, 9)})  # falls back to direct evaluation

    def test_identical_view_set_keeps_caches(self):
        session, _db = make_session()
        answer(session, Q_RS)
        session.set_views(parse_views(
            """
            v_rs(A, B) :- r(A, C), s(C, B).
            v_t(A, B) :- t(A, B).
            """
        ))
        assert from_cache(session, Q_RS) is True

    def test_empty_view_set(self):
        db = Database.from_dict({"r": [(1, 2)], "s": [(2, 3)]})
        session = open_engine(ViewSet(), database=db)
        assert answer(session, Q_RS) == frozenset({(1, 3)})
        assert from_cache(session, Q_RS) is True
        log = session.apply(Delta.insertion("r", [(5, 2)]))
        assert log.view_changes == ()
        assert answer(session, Q_RS) == frozenset({(1, 3), (5, 3)})

    def test_apply_delta_without_database_raises(self):
        session = open_engine()
        with pytest.raises(MaterializationError):
            session.apply(Delta.insertion("r", [(1, 1)]))


class TestStatsSurface:
    def test_delta_counters_in_stats(self):
        session, _db = make_session()
        answer(session, Q_RS)
        answer(session, Q_T)
        session.apply(Delta.insertion("t", [(5, 5)]))
        stats = session.stats()["session"]
        assert stats["deltas_applied"] == 1
        assert stats["delta_evictions"] == 1
        assert stats["delta_retained"] == 1
        assert stats["store"]["deltas_applied"] == 1
        assert stats["materialized"] is True
