"""Witness plans: a projection whose head sits in one subgoal opens on that
subgoal's head keys and checks the rest of the body with memoized limit-1
probes (see :mod:`repro.exec.plan`).

The differential draws queries whose head fits one subgoal and runs each
both as the estimator chooses and with the witness plan forced, against the
interpreter.
"""

import math

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import repro.exec.compile as compile_module
from repro import connect
from repro.datalog.atoms import Atom, Comparison
from repro.datalog.parser import parse_query
from repro.datalog.queries import ConjunctiveQuery, UnionQuery
from repro.datalog.terms import Constant, Variable
from repro.engine.database import Database
from repro.engine.evaluate import EvaluationStatistics, evaluate_conjunctive_interpreted
from repro.exec import CompiledExecutor, estimate_cost, order_body, statistics_for
from repro.exec.compile import try_compile

ARITIES = {"a": 2, "b": 2, "c": 3}
VARIABLES = [Variable(name) for name in ("X", "Y", "Z", "W", "U")]
DOMAIN = range(4)


def _operators(plan):
    return [step.operator(first=index == 0) for index, step in enumerate(plan.steps)]


def _is_witness(plan):
    return plan is not None and plan._witness is not None


@st.composite
def witness_queries(draw):
    """A query whose head variables all occur in its first subgoal.

    Terms repeat (``a(X, X)``), constants appear in the opening and the tail
    (the executor lifts them to parameters), and comparisons relate any two
    body variables or a variable and a constant — opening and tail alike.
    """
    terms = st.one_of(*[st.sampled_from(VARIABLES)] * 3, st.sampled_from([Constant(0), Constant(2)]))

    def atom():
        predicate = draw(st.sampled_from(sorted(ARITIES)))
        return Atom(predicate, [draw(terms) for _ in range(ARITIES[predicate])])

    opening = atom()
    body = [opening]
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        tail = atom()
        bound = [v for a in body for v in a.variables()]
        if bound and not set(tail.variables()) & set(bound) and draw(st.booleans()):
            tail = Atom(tail.predicate, [draw(st.sampled_from(bound))] + list(tail.args[1:]))
        body.append(tail)
    own = list(opening.variables())
    head = draw(st.lists(st.sampled_from(own), max_size=3)) if own else []
    if draw(st.booleans()):
        head.append(Constant(7))
    body_vars = sorted({v for a in body for v in a.variables()}, key=str)
    comparisons = []
    if body_vars:
        sides = st.one_of(st.sampled_from(body_vars), st.sampled_from([Constant(1), Constant(2)]))
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            comparisons.append(
                Comparison(
                    draw(st.sampled_from(body_vars)),
                    draw(st.sampled_from(["<", "<=", "=", "!=", ">"])),
                    draw(sides),
                )
            )
    order = draw(st.permutations(range(len(body))))
    return ConjunctiveQuery(Atom("q", head), [body[i] for i in order], comparisons)


@st.composite
def databases(draw):
    """Each relation dense (up to every tuple of a 4-value domain) or
    selective (a row or two)."""
    database = Database()
    for predicate, arity in ARITIES.items():
        database.ensure_relation(predicate, arity)
        dense = draw(st.booleans())
        count = draw(st.integers(min_value=6, max_value=24) if dense else st.integers(0, 2))
        for _ in range(count):
            database.add_fact(predicate, tuple(draw(st.sampled_from(DOMAIN)) for _ in range(arity)))
    return database


def _emptied_bucket(draw, database, query):
    """Delete every row of one body relation that agrees with a drawn value on
    one column: a delta that empties a bucket the plan may touch."""
    predicate = draw(st.sampled_from(sorted({atom.predicate for atom in query.body})))
    position = draw(st.integers(min_value=0, max_value=ARITIES[predicate] - 1))
    value = draw(st.sampled_from(DOMAIN))
    for row in [row for row in database.relation(predicate) if row[position] == value]:
        database.remove_fact(predicate, row)


def _forced_witness(monkeypatch):
    """Make every pipeline look infinitely expensive, so each query with a
    subgoal that holds the head compiles to a witness plan."""
    monkeypatch.setattr(compile_module, "_pipeline_cost", lambda picks: math.inf)


RELAXED = settings(
    max_examples=250,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


class TestWitnessDifferential:
    @RELAXED
    @given(query=witness_queries(), database=databases(), data=st.data())
    @example(
        query=parse_query("q(X) :- a(X, Y), c(Y, Z, Z), X < Z."),
        database=Database.from_dict({"a": [(1, 2), (1, 3)], "b": [], "c": [(3, 2, 2), (2, 0, 0)]}),
        data=None,
    ).via("a tail comparison reads the opening")
    def test_compiled_matches_the_interpreter(self, query, database, data):
        with pytest.MonkeyPatch.context() as monkeypatch:
            for forced in (False, True):
                if forced:
                    _forced_witness(monkeypatch)
                expected = evaluate_conjunctive_interpreted(query, database)
                executor = CompiledExecutor()
                assert executor.evaluate(query, database) == expected  # constants lifted
                plan = executor.plan_for(query, database)
                assert try_compile(query, database).execute(database) == expected
                if forced:
                    assert _is_witness(plan) or len(query.body) < 2 or not any(
                        set(query.head.variables()) <= set(atom.variables()) for atom in query.body
                    )
                if data is None:
                    continue
                # One cached plan, run again after a delta that empties a bucket.
                changed = database.copy()
                _emptied_bucket(data.draw, changed, query)
                assert plan.execute(changed) == evaluate_conjunctive_interpreted(query, changed)


def regular_chain(names, domain=12, fanout=3):
    """Binary relations in which every value has ``fanout`` successors."""
    database = Database()
    for index, name in enumerate(names):
        database.ensure_relation(name, 2)
        for value in range(domain):
            for step in range(fanout):
                database.add_fact(name, (value, (value * (index + 2) + step) % domain))
    return database


class TestTheChoiceFollowsTheData:
    QUERY = parse_query("q(X) :- r(X, Y), s(Y, Z).")

    def test_a_regular_chain_takes_the_witness_plan(self):
        database = regular_chain(["r", "s"])
        plan = CompiledExecutor().plan_for(self.QUERY, database)
        assert _is_witness(plan) and _operators(plan) == ["scan", "semi_join"]
        assert [step.predicate for step in plan.steps] == ["r", "s"]
        assert plan.steps[0].scan_keys == (0,)
        assert "0: scan r/2 keys[0] (head)" in plan.explain()
        assert "1: semi_join s/2 on s[0]=slot 1 limit 1" in plan.explain()
        assert plan.execute(database) == evaluate_conjunctive_interpreted(self.QUERY, database)

    def test_a_one_row_tail_keeps_the_pipeline(self):
        database = regular_chain(["r", "s"])
        for row in sorted(database.relation("s"))[1:]:
            database.remove_fact("s", row)
        plan = CompiledExecutor().plan_for(self.QUERY, database)
        assert not _is_witness(plan)
        assert [step.predicate for step in plan.steps] == ["s", "r"]
        assert plan.execute(database) == evaluate_conjunctive_interpreted(self.QUERY, database)

    def test_explain_reports_a_witness_plan_as_scan_then_semi_joins(self):
        database = regular_chain(["r", "s"])
        engine = connect(data=database)
        explanation = engine.query("q(X) :- r(X, Y), s(Y, Z).").explain()
        (plan,) = explanation.evaluation.plans
        assert [step.operator for step in plan.steps] == ["scan", "semi_join"]
        assert plan.steps[1].key_positions == (0,) and not plan.steps[1].distinct


class TestEstimateCost:
    """``estimate_cost`` is the cost the compiled plan was chosen by."""

    QUERY = TestTheChoiceFollowsTheData.QUERY

    @staticmethod
    def _costs(query, database):
        """(pipeline cost, witness cost opening on the first subgoal)."""
        stats = statistics_for(database)
        picks = []
        order_body(query, database, stats, picks=picks)
        pipeline = compile_module._pipeline_cost(picks)
        picks = []
        ordered = order_body(query, database, stats, first=0, picks=picks)
        return pipeline, compile_module._witness_cost(query, ordered, picks, stats)

    def test_a_witness_plan_is_priced_by_its_witness_cost(self):
        database = regular_chain(["r", "s"])
        pipeline, witness = self._costs(self.QUERY, database)
        assert _is_witness(try_compile(self.QUERY, database))
        assert estimate_cost(self.QUERY, database) == witness < pipeline

    def test_a_pipeline_is_priced_by_its_pipeline_cost(self):
        database = regular_chain(["r", "s"])
        for row in sorted(database.relation("s"))[1:]:
            database.remove_fact("s", row)
        pipeline, witness = self._costs(self.QUERY, database)
        assert not _is_witness(try_compile(self.QUERY, database))
        assert estimate_cost(self.QUERY, database) == pipeline <= witness

    def test_a_union_sums_its_disjuncts(self):
        database = regular_chain(["r", "s"])
        other = parse_query("q(X) :- s(X, Y).")
        union = UnionQuery([self.QUERY, other])
        total = estimate_cost(self.QUERY, database) + estimate_cost(other, database)
        assert estimate_cost(union, database) == total > estimate_cost(self.QUERY, database)

    def test_an_empty_database_costs_nothing(self):
        assert estimate_cost(self.QUERY, Database()) == 0.0


class TestWitnessWork:
    @pytest.mark.parametrize(
        "text",
        [
            "q(X) :- r(X, Y), s(Y, Z).",
            "q(X) :- r(X, Y), s(Y, Z), Y != 3.",
            "q(X) :- r(X, Y), s(Y, Z), Z > 4.",
            "q(X) :- r(X, Y), s(Y, Z), Z > 99.",  # no witness anywhere: every row tried
        ],
    )
    def test_probes_stay_within_the_opening_rows_and_the_buckets_touched(self, text, monkeypatch):
        _forced_witness(monkeypatch)
        database = regular_chain(["r", "s"])
        query = parse_query(text)
        plan = try_compile(query, database)
        assert _is_witness(plan)
        stats = EvaluationStatistics()
        answers = plan.execute(database, stats)
        assert answers == evaluate_conjunctive_interpreted(query, database)
        r, s = database.relation("r"), database.relation("s").index_on((0,))
        touched = {y for _x, y in r}
        assert stats.probes <= len(r) + sum(max(1, len(s.get((y,), ()))) for y in touched)
        assert stats.extensions == stats.answers == len(answers)

    def test_each_connecting_value_is_searched_once(self, monkeypatch):
        _forced_witness(monkeypatch)
        # Every X reaches the same Y, whose one s row fails the filter: each
        # key tries all its rows, but s is searched once.
        database = Database.from_dict(
            {"r": [(x, 0) for x in range(50)], "s": [(0, 5)]}
        )
        query = parse_query("q(X) :- r(X, Y), s(Y, Z), Z > 5.")
        plan = try_compile(query, database)
        stats = EvaluationStatistics()
        assert plan.execute(database, stats) == frozenset()
        assert stats.probes == 50 + 1
