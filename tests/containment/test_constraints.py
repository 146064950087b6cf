"""Tests for comparison-constraint reasoning (satisfiability and implication)."""

import pytest

from repro.datalog.atoms import Comparison
from repro.containment.constraints import ComparisonSet


def C(left, op, right):
    return Comparison(left, op, right)


class TestSatisfiability:
    def test_empty_set_is_satisfiable(self):
        assert ComparisonSet([]).is_satisfiable()

    def test_simple_chain_is_satisfiable(self):
        assert ComparisonSet([C("X", "<", "Y"), C("Y", "<", "Z")]).is_satisfiable()

    def test_strict_cycle_unsatisfiable(self):
        assert not ComparisonSet([C("X", "<", "Y"), C("Y", "<", "X")]).is_satisfiable()

    @pytest.mark.parametrize("forward, back", [("<", "<="), ("<=", "<"), ("<", "<")])
    def test_cycle_with_a_strict_edge_unsatisfiable(self, forward, back):
        # Through a third term too, so the edges meet only in the closure.
        assert not ComparisonSet([C("A", forward, "B"), C("B", back, "A")]).is_satisfiable()
        assert not ComparisonSet(
            [C("A", forward, "M"), C("M", "<=", "B"), C("B", back, "A")]
        ).is_satisfiable()

    def test_nonstrict_cycle_is_satisfiable(self):
        assert ComparisonSet([C("X", "<=", "Y"), C("Y", "<=", "X")]).is_satisfiable()

    def test_nonstrict_cycle_with_disequality_unsatisfiable(self):
        constraints = ComparisonSet(
            [C("X", "<=", "Y"), C("Y", "<=", "X"), C("X", "!=", "Y")]
        )
        assert not constraints.is_satisfiable()

    def test_equality_with_distinct_constants_unsatisfiable(self):
        assert not ComparisonSet([C("X", "=", 3), C("X", "=", 4)]).is_satisfiable()

    def test_equality_with_same_constant_ok(self):
        assert ComparisonSet([C("X", "=", 3), C("X", "<=", 3)]).is_satisfiable()

    def test_contradiction_through_constants(self):
        assert not ComparisonSet([C("X", ">", 5), C("X", "<", 3)]).is_satisfiable()

    def test_self_disequality_unsatisfiable(self):
        assert not ComparisonSet([C("X", "!=", "X")]).is_satisfiable()

    def test_equality_then_strict_order_unsatisfiable(self):
        assert not ComparisonSet([C("X", "=", "Y"), C("X", "<", "Y")]).is_satisfiable()

    def test_transitive_equality_merging(self):
        constraints = ComparisonSet(
            [C("X", "=", "Y"), C("Y", "=", "Z"), C("X", "!=", "Z")]
        )
        assert not constraints.is_satisfiable()

    def test_string_constant_order(self):
        assert not ComparisonSet([C("X", "<", "apple"), C("X", ">", "banana")]).is_satisfiable()


class TestImplication:
    def test_reflexive_le(self):
        assert ComparisonSet([]).implies(C("X", "<=", "X"))
        assert ComparisonSet([]).implies(C("X", "=", "X"))

    def test_asserted_comparison_is_implied(self):
        constraints = ComparisonSet([C("X", "<", "Y")])
        assert constraints.implies(C("X", "<", "Y"))
        assert constraints.implies(C("Y", ">", "X"))

    def test_strict_implies_nonstrict_and_disequality(self):
        constraints = ComparisonSet([C("X", "<", "Y")])
        assert constraints.implies(C("X", "<=", "Y"))
        assert constraints.implies(C("X", "!=", "Y"))

    def test_nonstrict_does_not_imply_strict(self):
        assert not ComparisonSet([C("X", "<=", "Y")]).implies(C("X", "<", "Y"))

    def test_transitivity(self):
        constraints = ComparisonSet([C("X", "<", "Y"), C("Y", "<=", "Z")])
        assert constraints.implies(C("X", "<", "Z"))

    def test_equality_substitution(self):
        constraints = ComparisonSet([C("X", "=", "Y"), C("Y", "<", 5)])
        assert constraints.implies(C("X", "<", 5))
        assert constraints.implies(C("X", "=", "Y"))

    def test_constant_bounds(self):
        constraints = ComparisonSet([C("X", "<", 3)])
        assert constraints.implies(C("X", "<", 10))
        assert constraints.implies(C("X", "!=", 7))
        assert not constraints.implies(C("X", "<", 2))

    def test_ground_comparisons_decided_directly(self):
        constraints = ComparisonSet([])
        assert constraints.implies(C(2, "<", 3))
        assert not constraints.implies(C(3, "<", 2))
        assert constraints.implies(C("a", "!=", "b"))

    def test_forced_equality_via_two_nonstrict_edges(self):
        constraints = ComparisonSet([C("X", "<=", "Y"), C("Y", "<=", "X")])
        assert constraints.implies(C("X", "=", "Y"))

    def test_unsatisfiable_implies_everything(self):
        constraints = ComparisonSet([C("X", "<", "X")])
        assert constraints.implies(C("A", "<", "B"))

    def test_unknown_relation_not_implied(self):
        constraints = ComparisonSet([C("X", "<", "Y")])
        assert not constraints.implies(C("X", "<", "Z"))
        assert not constraints.implies(C("X", "=", "Z"))

    def test_implies_all(self):
        constraints = ComparisonSet([C("X", "<", "Y"), C("Y", "<", "Z")])
        assert constraints.implies_all([C("X", "<", "Z"), C("X", "!=", "Z")])
        assert not constraints.implies_all([C("X", "<", "Z"), C("Z", "<", "X")])


class TestConjoinAndAccessors:
    def test_conjoin_adds_constraints(self):
        base = ComparisonSet([C("X", "<", "Y")])
        extended = base.conjoin([C("Y", "<", "X")])
        assert base.is_satisfiable()
        assert not extended.is_satisfiable()

    def test_terms_and_comparisons_accessors(self):
        constraints = ComparisonSet([C("X", "<", 5), C("X", "!=", "Y")])
        assert len(constraints.terms()) == 3
        assert len(constraints.comparisons()) == 2
