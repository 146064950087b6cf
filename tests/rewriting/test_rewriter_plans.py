"""Tests for the rewrite() front door and the rewriting result containers."""

import pytest

from repro.errors import RewritingError
from repro.datalog.parser import parse_query, parse_views
from repro.datalog.queries import UnionQuery
from repro.rewriting.plans import Rewriting, RewritingKind, RewritingResult
from repro.rewriting.rewriter import ALGORITHMS, MODES, rewrite


class TestRewriteFrontDoor:
    @pytest.mark.parametrize("algorithm", ["exhaustive", "bucket", "minicon"])
    def test_equivalent_mode(self, algorithm, chain3_query, chain3_views):
        result = rewrite(chain3_query, chain3_views, algorithm=algorithm, mode="equivalent")
        assert result.has_equivalent
        assert all(r.kind is RewritingKind.EQUIVALENT for r in result.rewritings)
        assert result.elapsed >= 0.0

    def test_default_call_names_the_views_it_uses(self):
        result = rewrite(
            parse_query("q(X, Z) :- r(X, Y), s(Y, Z)."),
            parse_views("v_rs(A, B) :- r(A, C), s(C, B)."),
        )
        assert result.has_equivalent
        assert result.best.views_used == ("v_rs",)

    def test_contained_mode_keeps_contained_rewritings(self, citation_views):
        query = parse_query("q(X, Y) :- cites(X, Z), cites(Z, Y), same_topic(X, Y).")
        result = rewrite(query, citation_views, algorithm="minicon", mode="contained")
        assert result.rewritings
        assert any(r.kind is RewritingKind.CONTAINED for r in result.rewritings)

    def test_maximally_contained_mode_appends_union(self, citation_query, citation_views):
        result = rewrite(
            citation_query, citation_views, algorithm="minicon", mode="maximally-contained"
        )
        kinds = {r.kind for r in result.rewritings}
        assert RewritingKind.MAXIMALLY_CONTAINED in kinds or RewritingKind.EQUIVALENT in kinds

    def test_partial_mode(self, chain3_query):
        views = parse_views("v_rs(A, B) :- r(A, C), s(C, B).")
        result = rewrite(chain3_query, views, mode="partial")
        assert result.rewritings
        assert all(r.kind is RewritingKind.PARTIAL for r in result.rewritings)

    def test_inverse_rules_algorithm(self, chain3_query, chain3_views):
        result = rewrite(chain3_query, chain3_views, algorithm="inverse-rules")
        assert result.rewritings[0].kind is RewritingKind.MAXIMALLY_CONTAINED

    def test_unknown_algorithm(self, chain3_query, chain3_views):
        with pytest.raises(RewritingError):
            rewrite(chain3_query, chain3_views, algorithm="quantum")

    def test_unknown_mode(self, chain3_query, chain3_views):
        with pytest.raises(RewritingError):
            rewrite(chain3_query, chain3_views, mode="sideways")

    def test_views_accepted_as_plain_list(self, chain3_query, chain3_views):
        result = rewrite(chain3_query, list(chain3_views), algorithm="minicon")
        assert result.has_equivalent

    def test_constants_are_exported(self):
        assert "minicon" in ALGORITHMS
        assert "equivalent" in MODES


class TestRewritingContainers:
    def _make(self, query_text, kind, algorithm="minicon"):
        return Rewriting(
            query=parse_query(query_text), kind=kind, algorithm=algorithm, views_used=("v",)
        )

    def test_best_prefers_smallest_equivalent(self, chain3_query, chain3_views):
        result = RewritingResult(query=chain3_query, views=chain3_views, algorithm="x")
        result.rewritings = [
            self._make("q(X, W) :- v1(X, Y), v2(Y, Z), v3(Z, W).", RewritingKind.EQUIVALENT),
            self._make("q(X, W) :- v12(X, Z), v3(Z, W).", RewritingKind.EQUIVALENT),
            self._make("q(X, W) :- v_all(X, W).", RewritingKind.CONTAINED),
        ]
        assert result.best.query.size() == 2

    def test_best_falls_back_to_maximally_contained(self, chain3_query, chain3_views):
        result = RewritingResult(query=chain3_query, views=chain3_views, algorithm="x")
        result.rewritings = [
            self._make("q(X, W) :- v(X, W).", RewritingKind.CONTAINED),
            self._make("q(X, W) :- v2(X, W).", RewritingKind.MAXIMALLY_CONTAINED),
        ]
        assert result.best.kind is RewritingKind.MAXIMALLY_CONTAINED

    def test_best_none_when_empty(self, chain3_query, chain3_views):
        result = RewritingResult(query=chain3_query, views=chain3_views, algorithm="x")
        assert result.best is None
        assert not result
        assert len(result) == 0

    def test_rewriting_disjuncts_and_size(self):
        union = UnionQuery(
            [parse_query("q(X) :- v1(X)."), parse_query("q(X) :- v2(X), v3(X).")]
        )
        rewriting = Rewriting(query=union, kind=RewritingKind.MAXIMALLY_CONTAINED, algorithm="x")
        assert len(rewriting.disjuncts()) == 2
        assert rewriting.size() == 3

    def test_is_equivalent_flag(self):
        partial = self._make("q(X) :- v(X), r(X).", RewritingKind.PARTIAL)
        contained = self._make("q(X) :- v(X).", RewritingKind.CONTAINED)
        assert partial.is_equivalent
        assert not contained.is_equivalent

    def test_str_mentions_algorithm(self):
        rewriting = self._make("q(X) :- v(X).", RewritingKind.EQUIVALENT, algorithm="bucket")
        assert "bucket" in str(rewriting)
