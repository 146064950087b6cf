"""Tests for view expansion (unfolding)."""

import pytest

from repro.errors import RewritingError
from repro.datalog.atoms import Atom
from repro.datalog.freshen import FreshVariableFactory
from repro.datalog.parser import parse_query, parse_view, parse_views
from repro.datalog.queries import UnionQuery
from repro.datalog.terms import Variable
from repro.containment.containment import is_equivalent
from repro.rewriting.bucket import BucketRewriter
from repro.rewriting.expansion import (
    _CandidateExpander,
    expand_atom,
    expand_query,
    expand_rewriting,
    uses_only_views,
    views_used,
)
from repro.rewriting.minicon import MiniConRewriter
from repro.rewriting.plans import RewritingKind
from repro.rewriting.verify import is_complete_rewriting, is_contained_rewriting


@pytest.fixture
def views():
    return parse_views(
        """
        v_join(A, B) :- r(A, C), s(C, B).
        v_filter(A) :- r(A, B), B > 5.
        v_const(A) :- r(A, 7).
        v_head_const(7, A) :- r(7, A).
        """
    )


class TestExpandAtom:
    def test_head_arguments_are_substituted(self, views):
        factory = FreshVariableFactory(reserved=["X", "Y"])
        body, comparisons = expand_atom(Atom("v_join", ["X", "Y"]), views["v_join"], factory)
        assert len(body) == 2
        assert body[0].predicate == "r"
        assert body[0].args[0] == Variable("X")
        assert body[1].args[1] == Variable("Y")
        assert comparisons == ()

    def test_existential_variables_are_freshened(self, views):
        factory = FreshVariableFactory(reserved=["X", "Y", "C"])
        body, _ = expand_atom(Atom("v_join", ["X", "Y"]), views["v_join"], factory)
        join_var = body[0].args[1]
        assert join_var == body[1].args[0]
        assert join_var not in (Variable("X"), Variable("Y"), Variable("C"))

    def test_two_expansions_do_not_share_existentials(self, views):
        factory = FreshVariableFactory(reserved=["X", "Y", "Z"])
        body1, _ = expand_atom(Atom("v_join", ["X", "Y"]), views["v_join"], factory)
        body2, _ = expand_atom(Atom("v_join", ["Y", "Z"]), views["v_join"], factory)
        assert body1[0].args[1] != body2[0].args[1]

    def test_view_comparisons_are_carried_over(self, views):
        factory = FreshVariableFactory(reserved=["X"])
        _, comparisons = expand_atom(Atom("v_filter", ["X"]), views["v_filter"], factory)
        assert len(comparisons) == 1

    def test_constant_argument_binds_view_head_variable(self, views):
        factory = FreshVariableFactory()
        body, _ = expand_atom(Atom("v_join", ["c1", "c2"]), views["v_join"], factory)
        assert body[0].args[0].value == "c1"

    def test_constant_clash_returns_none(self, views):
        factory = FreshVariableFactory()
        assert expand_atom(Atom("v_head_const", [8, "X"]), views["v_head_const"], factory) is None

    def test_matching_constant_in_view_head(self, views):
        factory = FreshVariableFactory()
        result = expand_atom(Atom("v_head_const", [7, "X"]), views["v_head_const"], factory)
        assert result is not None

    def test_repeated_head_variable_takes_the_general_path(self):
        diagonal = parse_view("v_diag(A, A) :- r(A, B).")
        body, _ = expand_atom(Atom("v_diag", ["X", "Y"]), diagonal, FreshVariableFactory())
        # Unifying the head with the atom equates the atom's two arguments.
        assert len({body[0].args[0], Variable("X"), Variable("Y")}) == 2

    def test_wrong_view_or_arity_raises(self, views):
        factory = FreshVariableFactory()
        with pytest.raises(RewritingError):
            expand_atom(Atom("other", ["X"]), views["v_filter"], factory)
        with pytest.raises(RewritingError):
            expand_atom(Atom("v_filter", ["X", "Y"]), views["v_filter"], factory)


class TestExpandQuery:
    def test_expansion_is_equivalent_to_manual_unfolding(self, views):
        rewriting = parse_query("q(X, Y) :- v_join(X, Y).")
        expansion = expand_query(rewriting, views)
        assert expansion is not None
        assert is_equivalent(expansion, parse_query("q(X, Y) :- r(X, C), s(C, Y)."))

    def test_base_atoms_are_kept(self, views):
        rewriting = parse_query("q(X, Y) :- v_join(X, Z), t(Z, Y).")
        expansion = expand_query(rewriting, views)
        assert expansion is not None
        assert ("t", 2) in expansion.predicates()
        assert ("v_join", 2) not in expansion.predicates()

    def test_rewriting_comparisons_are_kept(self, views):
        rewriting = parse_query("q(X) :- v_join(X, Y), Y < 3.")
        expansion = expand_query(rewriting, views)
        assert expansion is not None
        assert len(expansion.comparisons) == 1

    def test_unsatisfiable_expansion_returns_none(self, views):
        rewriting = parse_query("q(X) :- v_head_const(8, X).")
        assert expand_query(rewriting, views) is None

    def test_join_on_view_atoms(self, views):
        rewriting = parse_query("q(X, Z) :- v_join(X, Y), v_join(Y, Z).")
        expansion = expand_query(rewriting, views)
        assert expansion is not None
        assert expansion.size() == 4
        manual = parse_query("q(X, Z) :- r(X, A), s(A, Y), r(Y, B), s(B, Z).")
        assert is_equivalent(expansion, manual)


class TestCandidateExpander:
    """One expander per ``rewrite()`` call keeps unfoldings across candidates."""

    #: Existential variables named like MiniCon's and bucket's own fresh ones.
    ADVERSARIAL = """
        v_path(A) :- r(A, _M0_0), s(_M0_0, _B0_1).
        v_r(A, _B0_1) :- r(A, _B0_1).
        v_s(_M0_0, A) :- s(_M0_0, A).
    """

    def test_a_kept_unfolding_does_not_capture_a_later_variable(self):
        views = parse_views(self.ADVERSARIAL)
        expander = _CandidateExpander(views)
        expander.expand(parse_query("q(X) :- v_path(X)."))  # issues _M0_0
        later = parse_query("q(X, _M0_0) :- v_path(X), v_r(X, _M0_0).")
        expansion = expander.expand(later)
        assert is_equivalent(expansion, expand_query(later, views))
        assert is_equivalent(
            expansion, parse_query("q(X, Y) :- r(X, A), s(A, B), r(X, Y).")
        )

    @pytest.mark.parametrize("rewriter_class", [MiniConRewriter, BucketRewriter])
    def test_recorded_kinds_survive_adversarial_view_variable_names(self, rewriter_class):
        views = parse_views(self.ADVERSARIAL)
        query = parse_query("q(X) :- r(X, Y), s(Y, Z).")
        result = rewriter_class(views).rewrite(query)
        assert {r.kind for r in result.rewritings} == {RewritingKind.EQUIVALENT}
        assert len(result.rewritings) >= 2
        for rewriting in result.rewritings:
            # verify.py unfolds each rewriting on its own, away from the expander.
            assert is_contained_rewriting(rewriting.query, query, views)
            assert is_complete_rewriting(rewriting.query, query, views)
            assert is_equivalent(rewriting.expansion, query)


class TestExpandRewritingAndHelpers:
    def test_union_expansion_drops_unsatisfiable_disjuncts(self, views):
        union = UnionQuery(
            [
                parse_query("q(X) :- v_head_const(8, X)."),
                parse_query("q(X) :- v_const(X)."),
            ]
        )
        expansion = expand_rewriting(union, views)
        assert expansion is not None
        assert not isinstance(expansion, UnionQuery)

    def test_union_expansion_all_unsatisfiable(self, views):
        union = UnionQuery([parse_query("q(X) :- v_head_const(8, X).")])
        assert expand_rewriting(union, views) is None

    def test_union_expansion_keeps_multiple_disjuncts(self, views):
        union = UnionQuery(
            [parse_query("q(X) :- v_const(X)."), parse_query("q(X) :- v_filter(X).")]
        )
        expansion = expand_rewriting(union, views)
        assert isinstance(expansion, UnionQuery)
        assert len(expansion) == 2

    def test_uses_only_views(self, views):
        assert uses_only_views(parse_query("q(X) :- v_const(X)."), views)
        assert not uses_only_views(parse_query("q(X) :- v_const(X), r(X, Y)."), views)

    def test_views_used(self, views):
        rewriting = parse_query("q(X) :- v_const(X), v_filter(X), r(X, Y).")
        assert views_used(rewriting, views) == ("v_const", "v_filter")
