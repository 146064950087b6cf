"""Tests for maximally-contained rewritings, partial rewritings and view usability."""

import pytest

from repro.errors import RewritingError
from repro.datalog.parser import parse_query, parse_view, parse_views
from repro.datalog.queries import UnionQuery
from repro.containment.containment import is_contained, is_equivalent
from repro.engine.database import Database
from repro.engine.evaluate import materialize_views, measured_cost
from repro.rewriting.contained import maximally_contained_rewriting
from repro.rewriting.expansion import expand_rewriting
from repro.rewriting.partial import partial_rewritings
from repro.rewriting.plans import RewritingKind
from repro.rewriting.usability import view_is_relevant, view_is_usable, view_is_useful


class TestMaximallyContained:
    def test_union_of_incomparable_disjuncts(self, citation_views):
        # Indirect citation with a common topic: no equivalent rewriting
        # exists, and two incomparable contained rewritings do (through
        # v_mutual twice, and through v_chain).
        query = parse_query("q(X, Y) :- cites(X, Z), cites(Z, Y), same_topic(X, Y).")
        plan = maximally_contained_rewriting(query, citation_views)
        assert plan is not None
        assert plan.kind is RewritingKind.MAXIMALLY_CONTAINED
        assert isinstance(plan.query, UnionQuery)
        assert len(plan.query) == 2
        expansion = plan.expansion
        assert expansion is not None
        assert is_contained(expansion, query)
        assert not is_contained(query, expansion)

    def test_equivalent_disjunct_marks_plan_equivalent(self, chain3_query, chain3_views):
        plan = maximally_contained_rewriting(chain3_query, chain3_views)
        assert plan is not None
        assert plan.kind is RewritingKind.EQUIVALENT

    def test_none_when_no_view_applies(self):
        query = parse_query("q(X) :- t(X).")
        views = parse_views("v(A) :- r(A).")
        assert maximally_contained_rewriting(query, views) is None

    def test_pruning_removes_subsumed_disjuncts(self):
        query = parse_query("q(X) :- r(X, Y).")
        views = parse_views(
            """
            v_general(A, B) :- r(A, B).
            v_specific(A) :- r(A, 5).
            """
        )
        plan = maximally_contained_rewriting(query, views, prune=True)
        assert plan is not None
        # The specific view's rewriting is contained in the general one and is pruned.
        assert not isinstance(plan.query, UnionQuery)

    def test_prune_false_keeps_all_disjuncts(self):
        query = parse_query("q(X) :- r(X, Y).")
        views = parse_views(
            """
            v_general(A, B) :- r(A, B).
            v_specific(A) :- r(A, 5).
            """
        )
        plan = maximally_contained_rewriting(query, views, prune=False)
        assert isinstance(plan.query, UnionQuery)
        assert len(plan.query) == 2

    def test_bucket_and_minicon_unions_are_equivalent(self, citation_query, citation_views):
        minicon_plan = maximally_contained_rewriting(
            citation_query, citation_views, algorithm="minicon"
        )
        bucket_plan = maximally_contained_rewriting(
            citation_query, citation_views, algorithm="bucket"
        )
        assert minicon_plan is not None and bucket_plan is not None
        assert is_equivalent(minicon_plan.expansion, bucket_plan.expansion)

    def test_unknown_algorithm_rejected(self, citation_query, citation_views):
        with pytest.raises(RewritingError):
            maximally_contained_rewriting(citation_query, citation_views, algorithm="nope")


class TestPartialRewritings:
    def test_partial_plan_mixes_views_and_base_relations(self, chain3_query):
        views = parse_views("v_rs(A, B) :- r(A, C), s(C, B).")
        plans = partial_rewritings(chain3_query, views)
        assert plans
        plan = plans[0]
        assert plan.kind is RewritingKind.PARTIAL
        predicates = {atom.predicate for atom in plan.query.body}
        assert "v_rs" in predicates
        assert "t" in predicates

    def test_partial_expansions_are_equivalent(self, chain3_query, chain3_views):
        for plan in partial_rewritings(chain3_query, chain3_views):
            assert plan.expansion is not None
            assert is_equivalent(plan.expansion, chain3_query)

    def test_complete_plans_excluded_by_default(self, chain3_query, chain3_views):
        plans = partial_rewritings(chain3_query, chain3_views)
        for plan in plans:
            assert any(
                not chain3_views.is_view_predicate(a.predicate) for a in plan.query.body
            )

    def test_include_complete_flag(self, chain3_query, chain3_views):
        plans = partial_rewritings(chain3_query, chain3_views, include_complete=True)
        assert any(plan.kind is RewritingKind.EQUIVALENT for plan in plans)

    def test_no_views_applicable_gives_no_plans(self, chain3_query):
        views = parse_views("v(A) :- unrelated(A).")
        assert partial_rewritings(chain3_query, views) == []

    def test_max_plans_caps_enumeration(self, chain3_query, chain3_views):
        capped = partial_rewritings(chain3_query, chain3_views, max_plans=1)
        assert len(capped) <= 1


class TestUsability:
    def test_relevant_view(self, chain3_query, chain3_views):
        assert view_is_relevant(chain3_query, chain3_views["v_rs"])

    def test_irrelevant_view(self, chain3_query):
        view = parse_view("v(A, B) :- r(A, C), r(C, B).")
        assert not view_is_relevant(chain3_query, view)

    def test_usable_view(self, chain3_query, chain3_views):
        assert view_is_usable(chain3_query, chain3_views["v_rs"], chain3_views)

    def test_unusable_view_that_mentions_right_relations(self):
        # The view projects away the join variable: relevant relations, but no
        # complete rewriting (even partial) can use it.
        query = parse_query("q(X, Z) :- r(X, Y), s(Y, Z).")
        view = parse_view("v_lossy(A) :- r(A, B).")
        others = parse_views("v_r(A, B) :- r(A, B). v_s(A, B) :- s(A, B).")
        assert not view_is_usable(query, view, others)

    def test_usable_only_in_partial_rewriting(self):
        query = parse_query("q(X, Z) :- r(X, Y), s(Y, Z), t(Z, W).")
        view = parse_view("v_rs(A, B) :- r(A, C), s(C, B).")
        # No view covers t, so the only equivalent plans are partial ones.
        assert view_is_usable(query, view, [], allow_partial=True)
        assert not view_is_usable(query, view, [], allow_partial=False)

    def test_useful_view_reduces_cost(self):
        query = parse_query("q(X, Z) :- r(X, Y), s(Y, Z).")
        view = parse_view("v_rs(A, B) :- r(A, C), s(C, B).")
        database = Database.from_dict(
            {
                "r": [(i, i % 10) for i in range(300)],
                "s": [(i % 10, i) for i in range(300)],
            }
        )
        assert view_is_useful(query, view, database)

    def test_view_not_useful_on_an_empty_database(self):
        # No work to save: 0 base work against 0 plan work is no speedup.
        query = parse_query("q(X, Z) :- r(X, Y), s(Y, Z).")
        view = parse_view("v_rs(A, B) :- r(A, C), s(C, B).")
        assert not view_is_useful(query, view, Database())

    def test_threshold_is_the_required_speedup(self):
        query = parse_query("q(X, Z) :- r(X, Y), s(Y, Z).")
        view = parse_view("v_rs(A, B) :- r(A, C), s(C, B).")
        database = Database.from_dict(
            {
                "r": [(i, i % 10) for i in range(300)],
                "s": [(i % 10, i) for i in range(300)],
            }
        )
        base, _ = measured_cost(query, database)
        plan, _ = measured_cost(
            parse_query("q(X, Z) :- v_rs(X, Z)."), materialize_views([view], database)
        )
        assert view_is_useful(query, view, database, threshold=0.99 * base / plan)
        assert not view_is_useful(query, view, database, threshold=base / plan)

    def test_view_not_useful_when_it_cannot_be_used(self):
        query = parse_query("q(X, Z) :- r(X, Y), s(Y, Z).")
        view = parse_view("v_lossy(A) :- r(A, B).")
        database = Database.from_dict({"r": [(1, 2)], "s": [(2, 3)]})
        assert not view_is_useful(query, view, database)
