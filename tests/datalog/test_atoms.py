"""Tests for atoms and comparison subgoals."""

import pytest

from repro.errors import QueryConstructionError
from repro.datalog.atoms import Atom, Comparison, ComparisonOperator
from repro.datalog.terms import Constant, FunctionTerm, Variable


class TestAtom:
    def test_construction_coerces_arguments(self):
        atom = Atom("r", ["X", "abc", 3])
        assert atom.args == (Variable("X"), Constant("abc"), Constant(3))

    def test_equality_and_hash(self):
        assert Atom("r", ["X", 1]) == Atom("r", ["X", 1])
        assert Atom("r", ["X", 1]) != Atom("r", ["X", 2])
        assert Atom("r", ["X"]) != Atom("s", ["X"])
        assert len({Atom("r", ["X", 1]), Atom("r", ["X", 1])}) == 1

    def test_arity_and_signature(self):
        atom = Atom("edge", ["X", "Y"])
        assert atom.arity == 2
        assert atom.signature == ("edge", 2)

    def test_variables_in_order_without_duplicates(self):
        atom = Atom("r", ["X", "Y", "X", 1])
        assert atom.variables() == (Variable("X"), Variable("Y"))

    def test_constants_in_order_without_duplicates(self):
        atom = Atom("r", [1, "X", "a", 1])
        assert atom.constants() == (Constant(1), Constant("a"))

    def test_is_ground(self):
        assert Atom("r", [1, "a"]).is_ground()
        assert not Atom("r", [1, "X"]).is_ground()

    def test_function_term_variables_are_found(self):
        atom = Atom("r", [FunctionTerm("f", [Variable("X")]), "Y"])
        assert set(atom.variables()) == {Variable("X"), Variable("Y")}
        assert not atom.is_ground()

    def test_with_args_and_rename(self):
        atom = Atom("r", ["X", "Y"])
        assert atom.with_args((Constant(1), Constant(2))) == Atom("r", [1, 2])
        assert atom.rename_predicate("s") == Atom("s", ["X", "Y"])

    def test_zero_arity_atom(self):
        atom = Atom("fact", [])
        assert atom.arity == 0
        assert atom.is_ground()

    def test_empty_predicate_rejected(self):
        with pytest.raises(QueryConstructionError):
            Atom("", ["X"])

    def test_str(self):
        assert str(Atom("r", ["X", 1, "bob"])) == "r(X, 1, bob)"


class TestComparisonOperator:
    def test_from_symbol(self):
        assert ComparisonOperator.from_symbol("<=") is ComparisonOperator.LE
        assert ComparisonOperator.from_symbol("!=") is ComparisonOperator.NE

    def test_unknown_symbol(self):
        with pytest.raises(QueryConstructionError):
            ComparisonOperator.from_symbol("<>")

    def test_flip(self):
        assert ComparisonOperator.LT.flip() is ComparisonOperator.GT
        assert ComparisonOperator.EQ.flip() is ComparisonOperator.EQ

    def test_negate(self):
        assert ComparisonOperator.LT.negate() is ComparisonOperator.GE
        assert ComparisonOperator.EQ.negate() is ComparisonOperator.NE

    @pytest.mark.parametrize(
        "op,left,right,expected",
        [
            (ComparisonOperator.LT, 1, 2, True),
            (ComparisonOperator.LE, 2, 2, True),
            (ComparisonOperator.GT, 1, 2, False),
            (ComparisonOperator.EQ, "a", "a", True),
            (ComparisonOperator.NE, "a", "b", True),
        ],
    )
    def test_evaluate(self, op, left, right, expected):
        assert op.evaluate(left, right) is expected

    def test_evaluate_incomparable_types(self):
        assert ComparisonOperator.LT.evaluate(1, "a") is False
        assert ComparisonOperator.NE.evaluate(1, "a") is True


class TestComparison:
    def test_construction_from_symbol(self):
        comparison = Comparison("X", "<", 5)
        assert comparison.op is ComparisonOperator.LT
        assert comparison.left == Variable("X")
        assert comparison.right == Constant(5)

    def test_flipped_forms_are_equal(self):
        assert Comparison("X", "<", "Y") == Comparison("Y", ">", "X")
        assert hash(Comparison("X", "<", "Y")) == hash(Comparison("Y", ">", "X"))

    def test_same_term_both_sides_flipped_forms_hash_alike(self):
        for op in ("<", "<=", "=", "!="):
            comparison = Comparison("Y", op, "Y")
            flipped = comparison.flipped()
            assert comparison == flipped
            assert hash(comparison) == hash(flipped)
            assert comparison.sort_key() == flipped.sort_key()

    def test_different_ops_not_equal(self):
        assert Comparison("X", "<", "Y") != Comparison("X", "<=", "Y")

    def test_variables_and_constants(self):
        comparison = Comparison("X", "<", 5)
        assert comparison.variables() == (Variable("X"),)
        assert comparison.constants() == (Constant(5),)

    def test_ground_evaluation(self):
        assert Comparison(3, "<", 5).evaluate_ground() is True
        assert Comparison(5, "<", 3).evaluate_ground() is False

    def test_ground_evaluation_requires_ground(self):
        with pytest.raises(QueryConstructionError):
            Comparison("X", "<", 3).evaluate_ground()

    def test_negated(self):
        assert Comparison("X", "<", 5).negated() == Comparison("X", ">=", 5)

    def test_str(self):
        assert str(Comparison("X", "!=", "Y")) == "X != Y"
