"""Tests for the batch API."""

import pytest

from repro.errors import ReproError
from repro.datalog.parser import parse_query, parse_views
from repro.engine.database import Database
from repro.service.batch import BatchReport, run_batch

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


class TestSequentialBatch:
    def test_repeated_queries_hit_cache(self):
        report = run_batch([QUERY_TEXT, QUERY_TEXT, ISOMORPH_TEXT], VIEWS)
        assert report.requests == 3
        assert report.cache_hits == 2
        assert report.errors == 0
        assert report.items[0].equivalent
        assert report.items[0].best is not None
        assert report.throughput > 0

    def test_accepts_query_objects(self):
        report = run_batch([parse_query(QUERY_TEXT)], VIEWS)
        assert report.requests == 1
        assert report.items[0].fingerprint

    def test_answers(self):
        report = run_batch(
            [QUERY_TEXT], VIEWS, database=make_db(), with_answers=True
        )
        assert report.items[0].answers == 2

    def test_answers_require_database(self):
        with pytest.raises(ReproError):
            run_batch([QUERY_TEXT], VIEWS, with_answers=True)

    def test_parse_errors_are_reported_not_raised(self):
        report = run_batch(["not a query"], VIEWS)
        assert report.errors == 1
        assert report.items[0].error is not None

    def test_report_dict_roundtrip(self):
        report = run_batch([QUERY_TEXT, QUERY_TEXT], VIEWS)
        data = report.to_dict()
        assert data["requests"] == 2
        assert data["cache_hits"] == 1
        assert len(data["items"]) == 2
        assert data["session_stats"] is not None

    def test_batches_run_in_process_only(self):
        report = run_batch([QUERY_TEXT], VIEWS)
        assert "processes" not in report.to_dict()
        assert not hasattr(report, "processes")
        with pytest.raises(TypeError):
            run_batch([QUERY_TEXT], VIEWS, processes=2)
