"""Tests for the batch API (``Engine.batch``)."""

import pytest

from repro import connect
from repro.errors import ReproError
from repro.datalog.parser import parse_query, parse_views
from repro.engine.database import Database

VIEWS = parse_views(
    """
    v_rs(A, B) :- r(A, C), s(C, B).
    v_r(A, B) :- r(A, B).
    v_s(A, B) :- s(A, B).
    """
)

QUERY_TEXT = "q(X, Z) :- r(X, Y), s(Y, Z)."
ISOMORPH_TEXT = "q(A, B) :- s(C, B), r(A, C)."


def make_db():
    return Database.from_dict({"r": [(1, 2), (3, 4)], "s": [(2, 5), (4, 6)]})


def open_engine(database=None):
    return connect(views=VIEWS, data=database)


class TestSequentialBatch:
    def test_repeated_queries_hit_cache(self):
        report = open_engine().batch([QUERY_TEXT, QUERY_TEXT, ISOMORPH_TEXT])
        assert report.requests == 3
        assert report.cache_hits == 2
        assert report.errors == 0
        assert report.items[0].equivalent
        assert report.items[0].best is not None
        assert report.throughput > 0

    def test_accepts_query_objects(self):
        report = open_engine().batch([parse_query(QUERY_TEXT)])
        assert report.requests == 1
        assert report.items[0].fingerprint

    def test_answers(self):
        report = open_engine(make_db()).batch([QUERY_TEXT], with_answers=True)
        assert report.items[0].answers == 2

    def test_answers_require_database(self):
        with pytest.raises(ReproError):
            open_engine().batch([QUERY_TEXT], with_answers=True)

    def test_parse_errors_are_reported_not_raised(self):
        report = open_engine().batch(["not a query"])
        assert report.errors == 1
        assert report.items[0].error is not None

    def test_report_dict_roundtrip(self):
        report = open_engine().batch([QUERY_TEXT, QUERY_TEXT])
        data = report.to_dict()
        assert data["requests"] == 2
        assert data["cache_hits"] == 1
        assert len(data["items"]) == 2
        assert data["session_stats"] is not None

    def test_batches_run_in_process_only(self):
        engine = open_engine()
        report = engine.batch([QUERY_TEXT])
        assert "processes" not in report.to_dict()
        assert not hasattr(report, "processes")
        with pytest.raises(TypeError):
            engine.batch([QUERY_TEXT], processes=2)

    def test_batch_shares_the_engines_caches_and_metrics(self):
        engine = open_engine(make_db())
        engine.query(QUERY_TEXT).answers()
        report = engine.batch([QUERY_TEXT, ISOMORPH_TEXT], with_answers=True)
        assert [item.cache_hit for item in report.items] == [True, True]
        assert [item.answers for item in report.items] == [2, 2]
        answers = engine.stats()["session"]["answer_cache"]
        assert (answers["hits"], answers["misses"]) == (2, 1)
        assert 'repro_requests_total{verb="rewrite",outcome="ok"} 2' in engine.metrics()
