"""Executable checks of the paper's theorem statements (results R1, R2, R4, R5).

These are the "evaluation" of a theory paper: each theorem becomes a property
checked over families of generated instances.
"""

import itertools

import pytest

from repro import parse_query, parse_views
from repro.containment import is_equivalent, minimize
from repro.rewriting import is_complete_rewriting, rewrite, view_is_usable
from repro.containment.minimize import is_minimal
from repro.rewriting.exhaustive import ExhaustiveRewriter
from repro.rewriting.expansion import expand_query
from repro.workloads.generators import chain_query, chain_views, random_query, random_views


class TestR1LengthBound:
    """If an equivalent rewriting exists, one exists with at most n subgoals."""

    @pytest.mark.parametrize("length", [2, 3, 4])
    def test_chain_queries(self, length):
        query = chain_query(length)
        views = chain_views(length)
        result = ExhaustiveRewriter(views, find_all=True).rewrite(query)
        assert result.has_equivalent
        bound = minimize(query).size()
        assert min(r.query.size() for r in result.equivalent_rewritings()) <= bound

    @pytest.mark.parametrize("seed", range(8))
    def test_random_ensembles(self, seed):
        query = random_query(num_subgoals=3, num_relations=3, seed=seed)
        views = random_views(num_views=5, num_subgoals=2, num_relations=3, seed=seed + 100)
        bounded = ExhaustiveRewriter(views).rewrite(query)
        unbounded = ExhaustiveRewriter(views, max_subgoals=2 * query.size()).rewrite(query)
        # Searching beyond the bound never changes the answer to "does an
        # equivalent rewriting exist?"
        assert bounded.has_equivalent == unbounded.has_equivalent

    def test_bound_uses_minimized_query(self):
        # The redundant query has 3 subgoals but its core has 1; the rewriting
        # needs only 1 view atom.
        query = parse_query("q(X) :- r(X, A), r(X, B), r(X, C).")
        views = parse_views("v(A, B) :- r(A, B).")
        result = ExhaustiveRewriter(views).rewrite(query)
        assert result.has_equivalent
        assert result.best.query.size() == 1


class TestR2DecisionProcedure:
    """The exhaustive search decides rewriting existence (soundly and completely
    w.r.t. the bucket/MiniCon algorithms on comparison-free inputs)."""

    @pytest.mark.parametrize("seed", range(10))
    def test_agreement_with_minicon_on_random_inputs(self, seed):
        query = random_query(num_subgoals=3, num_relations=3, seed=seed)
        views = random_views(num_views=5, num_subgoals=2, num_relations=3, seed=seed + 50)
        exhaustive = ExhaustiveRewriter(views).rewrite(query).has_equivalent
        minicon = rewrite(query, views, algorithm="minicon").has_equivalent
        assert exhaustive == minicon, f"disagreement for seed {seed}"

    def test_positive_and_negative_instances(self):
        query = parse_query("q(X, Z) :- r(X, Y), s(Y, Z).")
        good_views = parse_views("v1(A, B) :- r(A, B). v2(A, B) :- s(A, B).")
        bad_views = parse_views("v1(A) :- r(A, B). v2(B) :- s(A, B).")
        assert ExhaustiveRewriter(good_views).has_complete_rewriting(query)
        assert not ExhaustiveRewriter(bad_views).has_complete_rewriting(query)

    def test_every_reported_rewriting_verifies(self):
        query = chain_query(3)
        views = chain_views(3)
        result = ExhaustiveRewriter(views, find_all=True).rewrite(query)
        for rewriting in result.rewritings:
            assert is_complete_rewriting(rewriting.query, query, views)
            expansion = expand_query(rewriting.query, views)
            assert is_equivalent(expansion, query)


class TestR4Usability:
    """Views usable in a rewriting versus views that merely mention the relations."""

    def test_projection_destroys_usability(self):
        query = parse_query("q(X, Z) :- r(X, Y), s(Y, Z).")
        usable = parse_views("v_keep(A, B) :- r(A, B).")["v_keep"]
        lossy = parse_views("v_lossy(A) :- r(A, B).")["v_lossy"]
        others = parse_views("v_s(A, B) :- s(A, B).")
        assert view_is_usable(query, usable, others)
        assert not view_is_usable(query, lossy, others)

    def test_view_more_specific_than_query_is_not_usable_for_equivalence(self):
        query = parse_query("q(X) :- r(X, Y).")
        specific = parse_views("v(A) :- r(A, 5).")["v"]
        assert not view_is_usable(query, specific, [])

    def test_view_with_extra_relation_usable_only_if_condition_implied(self):
        query = parse_query("q(S) :- enrolled(S, C), tough(C).")
        too_strong = parse_views("v(A) :- enrolled(A, B), tough(B), graduate(A).")["v"]
        exact = parse_views("v2(A) :- enrolled(A, B), tough(B).")["v2"]
        assert not view_is_usable(query, too_strong, [])
        assert view_is_usable(query, exact, [])


class TestR5MaximallyContained:
    """Certain answers / maximally-contained rewritings behave as the paper predicts."""

    def test_no_equivalent_rewriting_but_useful_contained_one(self):
        query = parse_query("q(X) :- r(X, Y), s(Y, Z).")
        views = parse_views("v(A) :- r(A, B), s(B, 5).")
        assert not rewrite(query, views, algorithm="minicon").has_equivalent
        from repro.rewriting import maximally_contained_rewriting

        plan = maximally_contained_rewriting(query, views)
        assert plan is not None
        assert plan.kind.value == "maximally_contained"

    def test_union_dominates_every_contained_disjunct(self, citation_views):
        query = parse_query("q(X, Y) :- cites(X, Z), cites(Z, Y), same_topic(X, Y).")
        from repro.rewriting import maximally_contained_rewriting
        from repro.containment.containment import is_contained

        plan = maximally_contained_rewriting(query, citation_views, prune=False)
        assert plan is not None
        result = rewrite(query, citation_views, algorithm="minicon", mode="contained")
        for rewriting in result.rewritings:
            assert is_contained(rewriting.expansion, plan.expansion)
