"""Tests for conjunctive-query evaluation over in-memory databases."""

import pytest

from repro.errors import EvaluationError, UnsupportedFeatureError
from repro.datalog.atoms import Atom
from repro.datalog.parser import parse_query, parse_views
from repro.datalog.queries import ConjunctiveQuery, UnionQuery
from repro.datalog.terms import FunctionTerm, Variable
from repro.engine.database import Database
from repro.engine.evaluate import (
    EvaluationStatistics,
    evaluate,
    evaluate_boolean,
    evaluate_substitutions,
    materialize_views,
    measured_cost,
)


@pytest.fixture
def graph_db():
    return Database.from_dict(
        {"edge": [(1, 2), (2, 3), (3, 1), (3, 4)], "label": [(1, "a"), (4, "b")]}
    )


class TestEvaluate:
    def test_single_subgoal(self, graph_db):
        query = parse_query("q(X, Y) :- edge(X, Y).")
        assert evaluate(query, graph_db) == frozenset({(1, 2), (2, 3), (3, 1), (3, 4)})

    def test_join(self, graph_db):
        query = parse_query("q(X, Z) :- edge(X, Y), edge(Y, Z).")
        assert evaluate(query, graph_db) == frozenset({(1, 3), (2, 1), (2, 4), (3, 2)})

    def test_projection_deduplicates(self, graph_db):
        query = parse_query("q(X) :- edge(X, Y).")
        assert evaluate(query, graph_db) == frozenset({(1,), (2,), (3,)})

    def test_constant_selection(self, graph_db):
        query = parse_query("q(X) :- label(X, 'a').")
        assert evaluate(query, graph_db) == frozenset({(1,)})

    def test_repeated_variable_means_self_loop(self, graph_db):
        query = parse_query("q(X) :- edge(X, X).")
        assert evaluate(query, graph_db) == frozenset()

    def test_comparison_filters(self, graph_db):
        query = parse_query("q(X, Y) :- edge(X, Y), X < Y.")
        assert evaluate(query, graph_db) == frozenset({(1, 2), (2, 3), (3, 4)})

    def test_comparison_with_constant(self, graph_db):
        query = parse_query("q(X, Y) :- edge(X, Y), Y >= 3.")
        assert evaluate(query, graph_db) == frozenset({(2, 3), (3, 4)})

    def test_disequality(self, graph_db):
        query = parse_query("q(X, Y) :- edge(X, Y), edge(Y, X), X != Y.")
        assert evaluate(query, graph_db) == frozenset()

    def test_empty_relation_gives_empty_result(self, graph_db):
        query = parse_query("q(X) :- missing(X).")
        assert evaluate(query, graph_db) == frozenset()

    def test_constants_in_head(self, graph_db):
        query = parse_query("q(X, 99) :- edge(X, 2).")
        assert evaluate(query, graph_db) == frozenset({(1, 99)})

    def test_cross_product(self):
        database = Database.from_dict({"a": [(1,), (2,)], "b": [("x",), ("y",)]})
        query = parse_query("q(X, Y) :- a(X), b(Y).")
        assert len(evaluate(query, database)) == 4

    def test_union_query(self, graph_db):
        union = UnionQuery(
            [parse_query("q(X) :- edge(X, 2)."), parse_query("q(X) :- edge(X, 4).")]
        )
        assert evaluate(union, graph_db) == frozenset({(1,), (3,)})

    def test_arity_mismatch_raises(self, graph_db):
        query = parse_query("q(X) :- edge(X, Y, Z).")
        with pytest.raises(EvaluationError):
            evaluate(query, graph_db)

    def test_statistics_are_collected(self, graph_db):
        stats = EvaluationStatistics()
        query = parse_query("q(X, Z) :- edge(X, Y), edge(Y, Z).")
        evaluate(query, graph_db, stats)
        assert stats.probes > 0
        assert stats.extensions > 0
        assert stats.answers >= 4
        assert stats.work == stats.probes + stats.extensions

    @pytest.mark.parametrize("executor", ["compiled", "interpreted"])
    def test_both_routes_reject_a_function_term(self, executor):
        x = Variable("X")
        query = ConjunctiveQuery(
            Atom("q", [x]), [Atom("r", [x, FunctionTerm("f", (x,))])], require_safe=False
        )
        database = Database.from_dict({"r": [(1, 2)]})
        with pytest.raises(UnsupportedFeatureError, match="function term f"):
            evaluate(query, database, executor=executor)
        union = UnionQuery([parse_query("q(X) :- r(X, Y)."), query])
        with pytest.raises(UnsupportedFeatureError, match="function term f"):
            evaluate(union, database, executor=executor)

    def test_statistics_merge(self):
        a = EvaluationStatistics(probes=1, extensions=2, answers=3, subgoals=4)
        b = EvaluationStatistics(probes=10, extensions=20, answers=30, subgoals=40)
        a.merge(b)
        assert (a.probes, a.extensions, a.answers, a.subgoals) == (11, 22, 33, 44)


class TestMeasuredCost:
    def test_returns_work_and_stats(self):
        database = Database.from_dict({"r": [(1, 2), (2, 3)]})
        work, stats = measured_cost(parse_query("q(X, Z) :- r(X, Y), r(Y, Z)."), database)
        assert work == float(stats.work)
        assert stats.answers == 1

    def test_a_rewriting_over_a_smaller_view_measures_less_work(self):
        base = Database.from_dict({"r": [(i, i + 1) for i in range(200)]})
        views = Database.from_dict({"v": [(i, i + 2) for i in range(0, 200, 2)]})
        original, _ = measured_cost(parse_query("q(X, Z) :- r(X, Y), r(Y, Z)."), base)
        rewritten, _ = measured_cost(parse_query("q(X, Z) :- v(X, Z)."), views)
        assert original > rewritten > 0

    @pytest.mark.parametrize("executor", ["compiled", "interpreted"])
    def test_an_empty_database_measures_no_work(self, executor):
        work, _ = measured_cost(parse_query("q(X) :- v(X, Y)."), Database(), executor=executor)
        assert work == 0.0


class TestEvaluateBooleanAndSubstitutions:
    def test_boolean_true_false(self, graph_db):
        assert evaluate_boolean(parse_query("q() :- edge(1, X)."), graph_db)
        assert not evaluate_boolean(parse_query("q() :- edge(4, X)."), graph_db)

    def test_boolean_union(self, graph_db):
        union = UnionQuery(
            [parse_query("q() :- edge(4, X)."), parse_query("q() :- edge(3, X).")]
        )
        assert evaluate_boolean(union, graph_db)

    def test_substitutions_bind_all_body_variables(self, graph_db):
        query = parse_query("q(X) :- edge(X, Y), label(Y, L).")
        bindings = list(evaluate_substitutions(query, graph_db))
        assert bindings
        for binding in bindings:
            assert len(binding) == 3


class TestMaterializeViews:
    def test_one_relation_per_view(self, graph_db):
        views = parse_views(
            """
            v_two_step(A, B) :- edge(A, C), edge(C, B).
            v_labelled(A) :- label(A, L).
            """
        )
        instance = materialize_views(views, graph_db)
        assert set(instance.relation_names()) == {"v_two_step", "v_labelled"}
        assert instance.tuples("v_labelled") == frozenset({(1,), (4,)})

    def test_empty_view_still_creates_relation(self, graph_db):
        views = parse_views("v_empty(A) :- edge(A, A).")
        instance = materialize_views(views, graph_db)
        assert "v_empty" in instance
        assert instance.tuples("v_empty") == frozenset()

    def test_rejects_non_views(self, graph_db):
        with pytest.raises(EvaluationError):
            materialize_views([parse_query("q(X) :- edge(X, Y).")], graph_db)
