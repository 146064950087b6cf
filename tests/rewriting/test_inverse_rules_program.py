"""Tests for what inverse rules own: Skolem values and the datalog fixpoint."""

import importlib

import pytest

from repro.errors import EvaluationError
from repro.datalog.atoms import Atom
from repro.datalog.parser import parse_program, parse_query, parse_views
from repro.datalog.queries import ConjunctiveQuery
from repro.datalog.terms import FunctionTerm, Variable
from repro.engine.database import Database
from repro.engine.evaluate import evaluate, materialize_views
from repro.rewriting.inverse_rules import (
    DatalogProgram,
    InverseRulesRewriter,
    SkolemValue,
    contains_skolem,
    evaluate_program,
)


class TestSkolemValue:
    def test_equality(self):
        assert SkolemValue("f", [1, "a"]) == SkolemValue("f", [1, "a"])
        assert SkolemValue("f", [1]) != SkolemValue("g", [1])
        assert SkolemValue("f", [1]) != SkolemValue("f", [2])

    def test_never_equals_plain_values(self):
        assert SkolemValue("f", [1]) != 1
        assert SkolemValue("f", ["a"]) != "a"

    def test_hashable(self):
        assert len({SkolemValue("f", [1]), SkolemValue("f", [1])}) == 1

    def test_contains_skolem(self):
        assert contains_skolem((1, SkolemValue("f", [2])))
        assert not contains_skolem((1, "a", 2.0))

    def test_str(self):
        assert str(SkolemValue("f_v_Y", ["a", 1])) == "f_v_Y(a, 1)"

    def test_no_order_comparison_holds_and_disequality_does(self):
        # The engine has no Skolem guard: the comparison operators' own
        # TypeError route is what makes an order comparison false.
        rows = {"r": [(1, SkolemValue("f", (1,))), (2, 5)]}
        database = Database.from_dict(rows)
        for text, expected in [
            ("q(X) :- r(X, Y), Y < 3.", set()),
            ("q(X) :- r(X, Y), 3 > Y.", set()),
            ("q(X) :- r(X, Y), Y > 3.", {(2,)}),
            ("q(X) :- r(X, Y), Y != 3.", {(1,), (2,)}),
        ]:
            query = parse_query(text)
            assert evaluate(query, database) == expected, text
            assert evaluate(query, database, executor="interpreted") == expected, text


class TestDatalogProgram:
    def test_non_recursive_evaluation(self):
        program = DatalogProgram(
            parse_program("p(X, Z) :- e(X, Y), e(Y, Z). q(X) :- p(X, 3).")
        )
        database = Database.from_dict({"e": [(1, 2), (2, 3)]})
        result = evaluate_program(program, database)
        assert result.tuples("p") == frozenset({(1, 3)})
        assert result.tuples("q") == frozenset({(1,)})

    def test_rule_order_does_not_matter(self):
        # No stratification: a rule listed before the rule it reads still
        # sees that rule's facts by the fixpoint.
        program = DatalogProgram(parse_program("q(X) :- p(X). p(X) :- e(X)."))
        result = evaluate_program(program, Database.from_dict({"e": [(1,), (2,)]}))
        assert result.tuples("q") == frozenset({(1,), (2,)})

    def test_recursive_transitive_closure(self):
        program = DatalogProgram(
            parse_program(
                """
                path(X, Y) :- edge(X, Y).
                path(X, Z) :- path(X, Y), edge(Y, Z).
                """
            )
        )
        database = Database.from_dict({"edge": [(1, 2), (2, 3), (3, 4)]})
        result = evaluate_program(program, database)
        assert (1, 4) in result.tuples("path")
        assert len(result.tuples("path")) == 6

    def test_input_database_not_modified(self):
        program = DatalogProgram(parse_program("p(X) :- e(X)."))
        database = Database.from_dict({"e": [(1,)]})
        evaluate_program(program, database)
        assert "p" not in database

    def test_skolem_heads_produce_skolem_values(self):
        rule = ConjunctiveQuery(
            Atom("base", [Variable("A"), FunctionTerm("f", [Variable("A")])]),
            [Atom("view", [Variable("A")])],
            require_safe=False,
        )
        database = Database.from_dict({"view": [(1,), (2,)]})
        result = evaluate_program(DatalogProgram([rule]), database)
        values = {row[1] for row in result.tuples("base")}
        assert values == {SkolemValue("f", [1]), SkolemValue("f", [2])}

    def test_unsafe_head_raises(self):
        rule = ConjunctiveQuery(
            Atom("p", [Variable("X"), Variable("Y")]), [Atom("e", [Variable("X")])],
            require_safe=False,
        )
        with pytest.raises(EvaluationError, match="must be safe"):
            evaluate_program(DatalogProgram([rule]), Database.from_dict({"e": [(1,)]}))

    def test_program_str_lists_rules(self):
        program = DatalogProgram(parse_program("p(X) :- e(X)."))
        assert "p(X) :- e(X)." in str(program)


class TestCertainAnswersFromTheFixpoint:
    def test_a_view_named_like_the_query_does_not_leak_into_the_answers(self):
        views = parse_views("q(A) :- r(A, B). s_src(A) :- s(A).")
        query = parse_query("q(X) :- r(X, Y), s(X).")
        instance = Database.from_dict({"q": [(1,), (2,)], "s_src": [(2,), (3,)]})
        answers = InverseRulesRewriter(views).certain_answers(query, instance)
        assert answers == frozenset({(2,)})

    def test_a_query_named_like_a_base_predicate_is_not_recursive(self):
        views = parse_views("v(A, B) :- edge(A, B).")
        query = parse_query("edge(X, Z) :- edge(X, Y), edge(Y, Z).")
        database = Database.from_dict({"edge": [(1, 2), (2, 3), (3, 4)]})
        instance = materialize_views(views, database)
        answers = InverseRulesRewriter(views).certain_answers(query, instance)
        assert answers == evaluate(query, database) == frozenset({(1, 3), (2, 4)})

    def test_the_query_rule_runs_once(self, monkeypatch):
        # A non-recursive program needs one application per rule: the last
        # round re-runs nothing whose body relations did not grow, and the
        # answers are read from the fixpoint rather than evaluated again.
        # (repro.rewriting's ``inverse_rules`` function shadows the module.)
        inverse_rules = importlib.import_module("repro.rewriting.inverse_rules")
        ran = []
        real = inverse_rules.evaluate_substitutions

        def counted(rule, database, *args):
            ran.append(rule.head.predicate)
            return real(rule, database, *args)

        monkeypatch.setattr(inverse_rules, "evaluate_substitutions", counted)
        views = parse_views("v(A, B) :- r(A, C), s(C, B). w(A) :- t(A).")
        query = parse_query("q(X) :- r(X, Y), s(Y, Z), t(Z).")
        instance = Database.from_dict({"v": [(1, 2), (3, 4)], "w": [(2,)]})
        answers = InverseRulesRewriter(views).certain_answers(query, instance)
        assert answers == frozenset({(1,)})
        assert sorted(ran) == ["q'", "r", "s", "t"]
