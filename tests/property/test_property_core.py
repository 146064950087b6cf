"""Property-based tests for the containment, minimization and engine layers."""

from hypothesis import HealthCheck, given, settings

from repro.containment.constraints import ComparisonSet
from repro.containment.containment import is_contained, is_equivalent
from repro.containment.minimize import minimize
from repro.datalog.canonical import canonical_database, freeze_query
from repro.datalog.queries import UnionQuery
from repro.datalog.terms import Constant
from repro.engine.evaluate import evaluate

from tests.property.strategies import (
    comparison_sets,
    conjunctive_queries,
    databases,
)

RELAXED = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


class TestContainmentProperties:
    @RELAXED
    @given(query=conjunctive_queries())
    def test_containment_is_reflexive(self, query):
        assert is_contained(query, query)
        assert is_equivalent(query, query)

    @RELAXED
    @given(query=conjunctive_queries(), database=databases())
    def test_containment_implies_answer_inclusion(self, query, database):
        # Semantic soundness of the syntactic test: a query is always
        # contained in the query obtained by dropping its last subgoal
        # (when that stays safe), and the answers must then be included.
        if query.size() < 2:
            return
        body = query.body[:-1]
        remaining_vars = {v for atom in body for v in atom.variables()}
        if not set(query.head.variables()) <= remaining_vars:
            return
        weaker = query.with_body(body)
        assert is_contained(query, weaker)
        assert evaluate(query, database) <= evaluate(weaker, database)

    @RELAXED
    @given(query=conjunctive_queries())
    def test_canonical_database_certificate(self, query):
        # The frozen head is always an answer of the query over its canonical database.
        frozen_head, _, _ = freeze_query(query)
        answers = evaluate(query, canonical_database(query))
        assert tuple(t.value for t in frozen_head.args) in answers


class TestMinimizationProperties:
    @RELAXED
    @given(query=conjunctive_queries())
    def test_minimize_preserves_equivalence(self, query):
        minimal = minimize(query)
        assert minimal.size() <= query.size()
        assert is_equivalent(minimal, query)

    @RELAXED
    @given(query=conjunctive_queries())
    def test_minimize_is_idempotent(self, query):
        minimal = minimize(query)
        assert minimize(minimal) == minimal

    @RELAXED
    @given(query=conjunctive_queries(), database=databases())
    def test_minimized_query_has_same_answers(self, query, database):
        assert evaluate(minimize(query), database) == evaluate(query, database)


class TestEngineProperties:
    @RELAXED
    @given(query=conjunctive_queries(), database=databases())
    def test_evaluation_is_deterministic(self, query, database):
        assert evaluate(query, database) == evaluate(query, database)

    @RELAXED
    @given(left=conjunctive_queries(), right=conjunctive_queries(), database=databases())
    def test_union_evaluation_is_union_of_disjuncts(self, left, right, database):
        if left.arity != right.arity:
            return
        right = right.with_name(left.name)
        union = UnionQuery([left, right])
        assert evaluate(union, database) == evaluate(left, database) | evaluate(right, database)

    @RELAXED
    @given(query=conjunctive_queries(), database=databases())
    def test_answers_have_head_arity(self, query, database):
        for answer in evaluate(query, database):
            assert len(answer) == query.arity


class TestConstraintProperties:
    @RELAXED
    @given(comparisons=comparison_sets())
    def test_implication_agrees_with_refutation(self, comparisons):
        constraints = ComparisonSet(comparisons)
        for candidate in comparisons:
            # Every asserted comparison is implied.
            assert constraints.implies(candidate)

    @RELAXED
    @given(comparisons=comparison_sets())
    def test_satisfiability_is_antitone_in_constraints(self, comparisons):
        # Removing constraints can never make a satisfiable set unsatisfiable.
        full = ComparisonSet(comparisons)
        if full.is_satisfiable():
            for index in range(len(comparisons)):
                reduced = ComparisonSet(comparisons[:index] + comparisons[index + 1:])
                assert reduced.is_satisfiable()

    @RELAXED
    @given(comparisons=comparison_sets())
    def test_implied_comparison_conjoins_without_changing_satisfiability(self, comparisons):
        constraints = ComparisonSet(comparisons)
        if not constraints.is_satisfiable():
            return
        for candidate in list(comparisons)[:2]:
            if constraints.implies(candidate):
                assert constraints.conjoin([candidate]).is_satisfiable()

    @RELAXED
    @given(comparisons=comparison_sets())
    def test_class_with_a_constant_has_a_constant_root(self, comparisons):
        # What lets _class_constant read a class's value off its representative.
        constraints = ComparisonSet(comparisons)
        for root, members in constraints._uf.classes().items():
            if any(isinstance(member, Constant) for member in members):
                assert isinstance(root, Constant)
                assert constraints._class_constant(root) is root
            else:
                assert constraints._class_constant(root) is None
