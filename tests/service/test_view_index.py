"""Tests for the predicate → views relevance index."""

import pytest

from repro.datalog.parser import parse_query, parse_views
from repro.rewriting.bucket import BucketRewriter
from repro.rewriting.exhaustive import ExhaustiveRewriter
from repro.rewriting.minicon import MiniConRewriter
from repro.service.view_index import ViewRelevanceIndex

VIEWS = parse_views(
    """
    v_rs(A, B) :- r(A, C), s(C, B).
    v_r(A, B) :- r(A, B).
    v_s(A, B) :- s(A, B).
    v_t(A) :- t(A, A).
    v_mixed(A, B) :- r(A, C), t(C, B).
    """
)

QUERY = parse_query("q(X, Z) :- r(X, Y), s(Y, Z).")


class TestIndexLookups:
    def test_overlap_mode(self):
        index = ViewRelevanceIndex(VIEWS)
        assert index.relevant_names(QUERY, "overlap") == {"v_rs", "v_r", "v_s", "v_mixed"}

    def test_cover_mode(self):
        index = ViewRelevanceIndex(VIEWS)
        # v_mixed mentions t/2, absent from the query, so cover drops it.
        assert index.relevant_names(QUERY, "cover") == {"v_rs", "v_r", "v_s"}

    def test_unknown_mode_rejected(self):
        index = ViewRelevanceIndex(VIEWS)
        with pytest.raises(ValueError):
            index.relevant_names(QUERY, "bogus")


class TestFilterSoundness:
    """Pruning must never change what the algorithms find."""

    def _results(self, rewriter_cls, mode):
        index = ViewRelevanceIndex(VIEWS)
        unfiltered = rewriter_cls(VIEWS).rewrite(QUERY)
        filtered = rewriter_cls(
            VIEWS, candidate_filter=index.make_filter(QUERY, mode)
        ).rewrite(QUERY)
        return unfiltered, filtered, index

    @pytest.mark.parametrize(
        "rewriter_cls,mode",
        [
            (MiniConRewriter, "overlap"),
            (BucketRewriter, "overlap"),
            (ExhaustiveRewriter, "cover"),
        ],
    )
    def test_same_rewritings_with_and_without_filter(self, rewriter_cls, mode):
        unfiltered, filtered, index = self._results(rewriter_cls, mode)
        assert sorted(str(r.query) for r in unfiltered.rewritings) == sorted(
            str(r.query) for r in filtered.rewritings
        )
        assert index.views_pruned > 0  # the filter actually did something

    def test_maximally_contained_mode_forwards_filter(self):
        from repro.rewriting.rewriter import rewrite

        index = ViewRelevanceIndex(VIEWS)
        unfiltered = rewrite(QUERY, VIEWS, algorithm="minicon", mode="maximally-contained")
        filtered = rewrite(
            QUERY, VIEWS, algorithm="minicon", mode="maximally-contained",
            candidate_filter=index.make_filter(QUERY, "overlap"),
        )
        assert sorted(str(r.query) for r in unfiltered.rewritings) == sorted(
            str(r.query) for r in filtered.rewritings
        )
        # The union is assembled from the filtered run's own rewritings (the
        # generator no longer runs a second time), so the one pruned view is
        # pruned exactly once.
        assert index.stats()["views_pruned"] == 1

    def test_stats_counters(self):
        index = ViewRelevanceIndex(VIEWS)
        flt = index.make_filter(QUERY, "overlap")
        for view in VIEWS:
            flt(QUERY, view)
        stats = index.stats()
        assert stats["queries_filtered"] == 1
        assert stats["views_admitted"] == 4
        assert stats["views_pruned"] == 1
        assert stats["views"] == 5
