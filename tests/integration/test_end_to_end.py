"""End-to-end integration tests.

The fundamental correctness statement of the whole library: for every
equivalent rewriting produced by any algorithm, evaluating the rewriting over
the *materialized view instance* returns exactly the same answers as
evaluating the original query over the *base database* — for every database.
These tests check it over a spread of generated databases and workloads.
"""

import pytest

from repro.engine import evaluate, materialize_views
from repro.rewriting import certain_answers, maximally_contained_rewriting, rewrite
from repro.rewriting.plans import RewritingKind
from repro.workloads.data import random_chain_database, random_database, random_graph_database
from repro.workloads.generators import chain_query, chain_views, star_query, star_views, workload
from repro.workloads.schemas import enterprise_schema, paper_example, university_schema


ALGORITHMS = ["exhaustive", "bucket", "minicon"]


class TestRewritingAnswersMatchQueryAnswers:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_chain_workload(self, algorithm, seed):
        query = chain_query(3)
        views = chain_views(3, segment_lengths=[1, 2])
        database = random_chain_database(3, tuples_per_relation=60, domain_size=12, seed=seed)
        result = rewrite(query, views, algorithm=algorithm)
        assert result.has_equivalent
        instance = materialize_views(views, database)
        expected = evaluate(query, database)
        for rewriting in result.equivalent_rewritings():
            assert evaluate(rewriting.query, instance) == expected

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_star_workload_with_center_views(self, algorithm):
        query = star_query(3)
        views = star_views(3, arm_subsets=[[1, 2, 3], [1], [2], [3]], expose_center=True)
        database = random_database({"e1": 2, "e2": 2, "e3": 2}, 50, domain_size=8, seed=4)
        result = rewrite(query, views, algorithm=algorithm)
        assert result.has_equivalent
        instance = materialize_views(views, database)
        expected = evaluate(query, database)
        assert evaluate(result.best.query, instance) == expected

    @pytest.mark.parametrize(
        "scenario_factory", [university_schema, paper_example, enterprise_schema]
    )
    @pytest.mark.parametrize("algorithm", ["bucket", "minicon"])
    def test_realistic_scenarios(self, scenario_factory, algorithm):
        scenario = scenario_factory()
        database = scenario.make_database(70, 3)
        instance = materialize_views(scenario.views, database)
        for name, query in scenario.queries.items():
            result = rewrite(query, scenario.views, algorithm=algorithm)
            expected = evaluate(query, database)
            for rewriting in result.equivalent_rewritings():
                assert (
                    evaluate(rewriting.query, instance) == expected
                ), f"{algorithm} produced a wrong plan for {scenario.name}.{name}"

    def test_partial_rewritings_answer_correctly(self):
        scenario = enterprise_schema()
        database = scenario.make_database(100, 5)
        result = rewrite(scenario.query, scenario.views, mode="partial")
        assert result.rewritings
        instance = materialize_views(scenario.views, database).merge(database)
        expected = evaluate(scenario.query, database)
        for rewriting in result.rewritings:
            assert evaluate(rewriting.query, instance) == expected


class TestContainedRewritingsAreSound:
    @pytest.mark.parametrize("algorithm", ["bucket", "minicon"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_contained_plans_never_return_wrong_answers(self, algorithm, seed):
        spec = workload("random", num_subgoals=3, num_views=6, seed=seed)
        database = random_database(
            {f"r{i}": 2 for i in range(1, 6)}, tuples_per_relation=40, domain_size=8, seed=seed
        )
        result = rewrite(spec.query, spec.views, algorithm=algorithm, mode="contained")
        instance = materialize_views(spec.views, database)
        expected = evaluate(spec.query, database)
        for rewriting in result.rewritings:
            answers = evaluate(rewriting.query, instance)
            assert answers <= expected

    def test_maximally_contained_union_is_sound_and_dominates_disjuncts(self):
        query = workload("chain", length=3, segment_lengths=[1, 2]).query
        views = chain_views(3, segment_lengths=[1, 2])
        database = random_chain_database(3, tuples_per_relation=60, domain_size=10, seed=9)
        plan = maximally_contained_rewriting(query, views)
        if plan is None:
            pytest.skip("no contained rewriting for this configuration")
        instance = materialize_views(views, database)
        union_answers = evaluate(plan.query, instance)
        assert union_answers <= evaluate(query, database)


class TestCertainAnswerPipeline:
    def test_certain_answers_subset_of_true_answers_and_methods_agree(self):
        query = chain_query(2)
        views = chain_views(2, segment_lengths=[1])
        # Drop one view so the instance is genuinely incomplete.
        views = views.restrict([views.names()[0]])
        database = random_chain_database(2, tuples_per_relation=50, domain_size=8, seed=11)
        instance = materialize_views(views, database)
        by_rules = certain_answers(query, views, instance, method="inverse-rules")
        by_rewriting = certain_answers(query, views, instance, method="rewriting")
        assert by_rules == by_rewriting
        assert by_rules <= evaluate(query, database)

    def test_lossless_views_recover_all_answers(self):
        scenario = university_schema()
        database = scenario.make_database(60, 13)
        instance = materialize_views(scenario.views, database)
        query = scenario.queries["advisor_teaches"]
        answers = certain_answers(query, scenario.views, instance, method="inverse-rules")
        assert answers == evaluate(query, database)
