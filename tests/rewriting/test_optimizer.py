"""Tests for cost-based plan selection."""

import pytest

from repro.datalog.parser import parse_query, parse_views
from repro.engine.database import Database
from repro.engine.evaluate import evaluate, materialize_views, measured_cost
from repro.exec import estimate_cost
from repro.rewriting.optimizer import OptimizationResult, choose_best_plan, enumerate_plans
from repro.rewriting.plans import RewritingKind
from repro.workloads.schemas import enterprise_schema, paper_example, university_schema


@pytest.fixture
def join_setting():
    query = parse_query("q(X, Z) :- r(X, Y), s(Y, Z).")
    views = parse_views(
        """
        v_rs(A, B) :- r(A, C), s(C, B).
        v_r(A, B) :- r(A, B).
        v_s(A, B) :- s(A, B).
        """
    )
    database = Database.from_dict(
        {
            "r": [(i, i % 20) for i in range(400)],
            "s": [(i % 20, i) for i in range(400)],
        }
    )
    return query, views, database


class TestEnumeratePlans:
    def test_complete_and_partial_plans_enumerated(self, join_setting):
        query, views, _ = join_setting
        plans = enumerate_plans(query, views)
        kinds = {p.kind for p in plans}
        assert RewritingKind.EQUIVALENT in kinds
        assert RewritingKind.PARTIAL in kinds

    def test_plans_are_minimized_and_distinct(self, join_setting):
        query, views, _ = join_setting
        plans = enumerate_plans(query, views)
        canons = [p.query.canonical() for p in plans]
        assert len(canons) == len(set(canons))

    def test_complete_plans_come_from_minicon(self, join_setting):
        query, views, _ = join_setting
        plans = enumerate_plans(query, views)
        assert {p.algorithm for p in plans if p.kind is RewritingKind.EQUIVALENT} == {"minicon"}


def _measured_works(result, database, views):
    """Measured work of the winner and of every candidate, each over the data
    it reads."""
    instance = materialize_views(views, database)
    merged = instance.merge(database)

    def work(choice):
        if not choice.uses_views:
            return measured_cost(choice.plan, database)[0]
        data = merged if choice.rewriting.kind is RewritingKind.PARTIAL else instance
        return measured_cost(choice.plan, data)[0]

    return work(result.best), [work(choice) for choice in result.alternatives]


class TestChooseBestPlan:
    def test_materialized_join_wins(self, join_setting):
        query, views, database = join_setting
        result = choose_best_plan(query, views, database)
        assert isinstance(result, OptimizationResult)
        assert result.best.uses_views
        assert "v_rs" in result.best.rewriting.views_used
        assert result.speedup_over_base >= 1.0

    def test_candidates_priced_by_the_compiler_estimate(self, join_setting):
        query, views, database = join_setting
        result = choose_best_plan(query, views, database)
        base = next(c for c in result.alternatives if c.source == "base")
        assert base.cost == estimate_cost(query, database)
        assert result.best.cost == min(c.cost for c in result.alternatives)

    def test_base_plan_always_among_alternatives(self, join_setting):
        query, views, database = join_setting
        result = choose_best_plan(query, views, database)
        assert any(choice.source == "base" for choice in result.alternatives)

    def test_base_plan_wins_when_views_do_not_help(self):
        query = parse_query("q(X) :- t(X, Y).")
        views = parse_views("v_r(A, B) :- r(A, B).")
        database = Database.from_dict({"t": [(1, 2)], "r": [(3, 4)]})
        result = choose_best_plan(query, views, database)
        assert result.best.source == "base"
        assert not result.best.uses_views
        assert result.speedup_over_base == 1.0

    def test_chosen_plan_returns_correct_answers(self, join_setting):
        query, views, database = join_setting
        result = choose_best_plan(query, views, database)
        expected = evaluate(query, database)
        if result.best.uses_views:
            instance = materialize_views(views, database)
            if result.best.rewriting.kind is RewritingKind.PARTIAL:
                instance = instance.merge(database)
            assert evaluate(result.best.plan, instance) == expected
        else:
            assert evaluate(result.best.plan, database) == expected

    def test_university_scenario_picks_materialized_view(self):
        scenario = university_schema()
        database = scenario.make_database(150, seed=3)
        result = choose_best_plan(scenario.query, scenario.views, database)
        assert result.best.uses_views
        assert result.speedup_over_base > 1.0


SCENARIO_QUERIES = [
    (factory, name)
    for factory in (paper_example, university_schema, enterprise_schema)
    for name in factory().queries
]


@pytest.mark.parametrize("scale", [100, 300, 900])
@pytest.mark.parametrize(
    "factory, name", SCENARIO_QUERIES, ids=[name for _factory, name in SCENARIO_QUERIES]
)
def test_estimated_winner_has_minimal_measured_work(factory, name, scale):
    """The estimate picks, among every candidate, one that measures cheapest."""
    scenario = factory()
    database = scenario.make_database(scale, seed=17)
    result = choose_best_plan(scenario.queries[name], scenario.views, database)
    best, works = _measured_works(result, database, scenario.views)
    assert len(works) >= 2
    assert best == min(works)
