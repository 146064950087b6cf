"""Tests for the cost model."""

import pytest

from repro.datalog.parser import parse_query
from repro.engine.cost import CostModel, estimate_cost, measured_cost, plan_comparison
from repro.engine.database import Database


class TestCostModel:
    def test_estimate_grows_with_relation_size(self):
        small = Database.from_dict({"r": [(i, i + 1) for i in range(10)]})
        large = Database.from_dict({"r": [(i, i + 1) for i in range(1000)]})
        query = parse_query("q(X, Z) :- r(X, Y), r(Y, Z).")
        assert estimate_cost(query, large) > estimate_cost(query, small)

    def test_estimate_zero_for_empty_relation(self):
        query = parse_query("q(X) :- empty(X).")
        assert estimate_cost(query, Database()) == 0.0

    def test_estimate_union_sums_disjuncts(self):
        database = Database.from_dict({"r": [(1, 2)], "s": [(3, 4)]})
        from repro.datalog.queries import UnionQuery

        union = UnionQuery(
            [parse_query("q(X) :- r(X, Y)."), parse_query("q(X) :- s(X, Y).")]
        )
        single = estimate_cost(parse_query("q(X) :- r(X, Y)."), database)
        assert estimate_cost(union, database) > single

    def test_measured_cost_returns_work_and_stats(self):
        database = Database.from_dict({"r": [(1, 2), (2, 3)]})
        work, stats = measured_cost(parse_query("q(X, Z) :- r(X, Y), r(Y, Z)."), database)
        assert work == float(stats.work)
        assert stats.answers == 1

    def test_plan_comparison_speedup(self):
        base = Database.from_dict({"r": [(i, i + 1) for i in range(200)]})
        views = Database.from_dict({"v": [(i, i + 2) for i in range(0, 200, 2)]})
        original = parse_query("q(X, Z) :- r(X, Y), r(Y, Z).")
        rewritten = parse_query("q(X, Z) :- v(X, Z).")
        comparison = plan_comparison(original, rewritten, base, views)
        assert comparison["original_work"] > comparison["rewritten_work"]
        assert comparison["speedup"] > 1.0

    def test_plan_comparison_handles_zero_cost(self):
        base = Database.from_dict({"r": [(1, 2)]})
        empty_views = Database()
        comparison = plan_comparison(
            parse_query("q(X) :- r(X, Y)."), parse_query("q(X) :- v(X, Y)."), base, empty_views
        )
        assert comparison["speedup"] == float("inf")

    def test_cost_model_defaults(self):
        model = CostModel()
        assert model.tuple_cost == 1.0
        assert 0 < model.default_join_selectivity < 1
