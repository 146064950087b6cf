"""Tests for terms: variables, constants, function terms."""

import pytest

from repro.datalog.terms import (
    Constant,
    FunctionTerm,
    Variable,
    make_term,
    term_constants,
    term_sort_key,
    term_variables,
)


class TestVariable:
    def test_equality_by_name(self):
        assert Variable("X") == Variable("X")
        assert Variable("X") != Variable("Y")

    def test_hashable(self):
        assert len({Variable("X"), Variable("X"), Variable("Y")}) == 2

    def test_is_variable_flags(self):
        var = Variable("X")
        assert var.is_variable
        assert not var.is_constant

    def test_str(self):
        assert str(Variable("Long_Name")) == "Long_Name"

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Variable("")

    def test_immutable(self):
        with pytest.raises(AttributeError):
            Variable("X").name = "Y"

    def test_ordering_by_name(self):
        assert Variable("A") < Variable("B")


class TestConstant:
    def test_equality_by_value(self):
        assert Constant(3) == Constant(3)
        assert Constant(3) != Constant(4)
        assert Constant("a") != Constant("b")

    def test_numbers_compare_numerically(self):
        assert Constant(1) == Constant(1.0)

    def test_the_sign_of_zero_survives_interning(self):
        # 0.0 == -0.0, so a cache keyed on the value alone hands back
        # whichever zero it met first.
        for _ in range(2):
            assert repr(Constant(-0.0).value) == "-0.0"
            assert repr(Constant(0.0).value) == "0.0"

    def test_constant_never_equals_variable(self):
        assert Constant("X") != Variable("X")

    def test_is_constant_flags(self):
        constant = Constant("a")
        assert constant.is_constant
        assert not constant.is_variable

    def test_str_plain_and_quoted(self):
        assert str(Constant("abc")) == "abc"
        assert str(Constant("New York")) == "'New York'"
        assert str(Constant(7)) == "7"

    def test_invalid_value_type_rejected(self):
        with pytest.raises(TypeError):
            Constant([1, 2])

    def test_immutable(self):
        with pytest.raises(AttributeError):
            Constant(1).value = 2

    def test_ordering_within_kind(self):
        assert Constant(1) < Constant(2)
        assert Constant("a") < Constant("b")


class TestFunctionTerm:
    def test_equality(self):
        f1 = FunctionTerm("f", [Variable("X"), Constant(1)])
        f2 = FunctionTerm("f", [Variable("X"), Constant(1)])
        f3 = FunctionTerm("g", [Variable("X"), Constant(1)])
        assert f1 == f2
        assert f1 != f3

    def test_str(self):
        term = FunctionTerm("f_v_Y", [Variable("A"), Variable("B")])
        assert str(term) == "f_v_Y(A, B)"

    def test_nested_variables_collected(self):
        term = FunctionTerm("f", [FunctionTerm("g", [Variable("X")]), Variable("Y")])
        assert term_variables(term) == (Variable("X"), Variable("Y"))

    def test_nested_constants_collected(self):
        term = FunctionTerm("f", [Constant(1), FunctionTerm("g", [Constant("a")])])
        assert term_constants(term) == (Constant(1), Constant("a"))

    def test_rejects_non_term_arguments(self):
        with pytest.raises(TypeError):
            FunctionTerm("f", ["raw string"])

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            FunctionTerm("", [Variable("X")])


class TestMakeTerm:
    def test_uppercase_string_becomes_variable(self):
        assert make_term("Xyz") == Variable("Xyz")
        assert make_term("_tmp") == Variable("_tmp")

    def test_lowercase_string_becomes_constant(self):
        assert make_term("abc") == Constant("abc")

    def test_numbers_become_constants(self):
        assert make_term(5) == Constant(5)
        assert make_term(2.5) == Constant(2.5)

    def test_existing_terms_pass_through(self):
        var = Variable("X")
        assert make_term(var) is var


class TestSortKey:
    def test_variables_before_constants(self):
        assert term_sort_key(Variable("Z")) < term_sort_key(Constant(0))

    def test_constants_before_function_terms(self):
        assert term_sort_key(Constant("zzz")) < term_sort_key(FunctionTerm("f", []))

    def test_deterministic_for_mixed_values(self):
        terms = [Constant(3), Constant("b"), Constant(True), Variable("A")]
        keys = [term_sort_key(t) for t in terms]
        assert sorted(keys) == sorted(keys, key=lambda k: k)
