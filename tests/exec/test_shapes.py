"""Shape-keyed plans: one plan per query shape, constants bound at run time.

What the plan cache promises after constants became parameters — queries equal
up to constants share a plan, a constant can never reach generated source,
and a plan outlives data versions until a relation it reads has moved more
than 2x.
"""

import pytest

from repro.datalog.atoms import Atom, Comparison
from repro.datalog.parser import parse_query, parse_views
from repro.datalog.queries import ConjunctiveQuery
from repro.datalog.terms import Variable
from repro.engine.database import Database
from repro.engine.evaluate import EvaluationStatistics, evaluate
from repro.exec import CompiledExecutor
from repro.exec.compile import try_compile
from repro.materialize import MaterializedViewStore


def _db():
    db = Database()
    for i in range(40):
        db.add_fact("r", (i, i % 7))
        db.add_fact("s", (i, i % 5))
    return db


def _interpreted(query, db):
    return evaluate(query, db, executor="interpreted")


class TestQueriesEqualUpToConstantsShareAPlan:
    @pytest.mark.parametrize(
        "first, second",
        [
            ("q(X) :- r(X, 3).", "q(X) :- r(X, 4)."),  # an index key
            ("q(X, Y) :- r(X, Y), Y != 3.", "q(X, Y) :- r(X, Y), Y != 4."),  # a filter
            ("q(X, Y) :- r(X, Y), Y < 3.", "q(X, Y) :- r(X, Y), Y < 5."),  # via compare_values
            # One constant twice and two constants are one shape: a parameter
            # per occurrence.
            ("q(X) :- r(X, 3), s(X, 3).", "q(X) :- r(X, 3), s(X, 1)."),
            # A parameter that is an index key and one that sits in a filter.
            ("q(X, Y) :- r(X, 3), s(X, Y), Y <= 3.", "q(X, Y) :- r(X, 5), s(X, Y), Y <= 1."),
            # A ground comparison is a parameter check: true, then false.
            ("q(X) :- r(X, Y), 1 < 2.", "q(X) :- r(X, Y), 2 < 1."),
            ("q(X) :- r(X, Y), 2 < 1.", "q(X) :- r(X, Y), 1 < 2."),
            # Head constants are not lifted but renamed variables still share.
            ("q(X, 7) :- r(X, 2).", "q(A, 7) :- r(A, 6)."),
        ],
    )
    def test_one_compile_two_right_answers(self, first, second):
        executor, db = CompiledExecutor(), _db()
        for text in (first, second):
            query = parse_query(text)
            assert executor.evaluate(query, db) == _interpreted(query, db)
        assert (executor.plan_misses, executor.plan_hits) == (1, 1)

    def test_answers_differ_where_the_constants_do(self):
        executor, db = CompiledExecutor(), _db()
        three = executor.evaluate(parse_query("q(X) :- r(X, 3)."), db)
        four = executor.evaluate(parse_query("q(X) :- r(X, 4)."), db)
        assert three and four and not three & four
        assert executor.plan_misses == 1

    def test_bound_plan_shows_its_own_constants(self):
        executor, db = CompiledExecutor(), _db()
        first = executor.plan_for(parse_query("q(X) :- r(X, 3)."), db)
        second = executor.plan_for(parse_query("q(X) :- r(X, 4)."), db)
        assert second.steps is first.steps  # kernels shared, not regenerated
        assert (first.params, second.params) == ((3,), (4,))
        assert "r[1]=3" in first.explain() and "r[1]=4" in second.explain()

    def test_a_different_head_constant_is_a_different_shape(self):
        executor, db = CompiledExecutor(), _db()
        executor.evaluate(parse_query("q(X, 7) :- r(X, 2)."), db)
        executor.evaluate(parse_query("q(X, 8) :- r(X, 2)."), db)
        assert executor.plan_misses == 2


HOSTILE = ['"); import os; os.system("x") #', "line\nbreak", "nul\x00byte", "'''", "\\"]


class TestConstantsNeverReachSource:
    """Source is a function of the query's *shape*: constants, operators and
    names enter a kernel through its namespace or its arguments."""

    @staticmethod
    def _queries(value):
        x, y = Variable("X"), Variable("Y")
        return [
            ConjunctiveQuery(Atom("q", [x]), [Atom("r", [x, value])]),
            ConjunctiveQuery(Atom("q", [x, value]), [Atom("r", [x, y])], [Comparison(y, "!=", value)]),
            ConjunctiveQuery(Atom("q", [x]), [Atom("r", [x, y])], [Comparison(y, "<", value)]),
            ConjunctiveQuery(Atom("q", [x]), [Atom("r", [x, y])], [Comparison(value, "=", value)]),
        ]

    @staticmethod
    def _sources(plan):
        kernels = [step.kernel for step in plan.steps] + [plan._project]
        return [kernel.source for kernel in kernels if kernel is not None]

    @pytest.mark.parametrize("hostile", HOSTILE)
    def test_hostile_strings_evaluate_correctly_and_stay_out_of_source(self, hostile):
        db = Database()
        for row in [(1, hostile), (2, "x"), (3, hostile + "x")]:
            db.add_fact("r", row)
        executor = CompiledExecutor()
        for hostile_query, benign_query in zip(self._queries(hostile), self._queries("x")):
            assert executor.evaluate(hostile_query, db) == _interpreted(hostile_query, db)
            # Lifted (through the executor) and literal (compiled directly):
            # either way the text is the text of the benign twin.
            for plan, twin in [
                (executor.plan_for(hostile_query, db), executor.plan_for(benign_query, db)),
                (try_compile(hostile_query, db), try_compile(benign_query, db)),
            ]:
                assert self._sources(plan) == self._sources(twin)
                for source in self._sources(plan):
                    assert hostile not in source and repr(hostile) not in source
                    assert "import" not in source and "\x00" not in source

    def test_a_traceback_through_a_kernel_shows_the_line(self):
        import traceback

        db = _db()
        plan = CompiledExecutor().plan_for(parse_query("q(X) :- r(X, 3)."), db)
        try:
            plan.bind(()).run_steps(db, [()], EvaluationStatistics())  # a parameter short
        except IndexError:
            text = traceback.format_exc()
        assert "repro.exec kernel" in text and "p0 = p[0]" in text

    def test_equal_step_texts_are_compiled_once(self):
        db = _db()
        r_step = try_compile(parse_query("q(X, Y) :- r(X, Y)."), db).steps[0]
        s_step = try_compile(parse_query("q(A, B) :- s(A, B)."), db).steps[0]
        assert r_step.kernel.source == s_step.kernel.source
        assert r_step.kernel.function.__code__ is s_step.kernel.function.__code__
        assert r_step.kernel.function is not s_step.kernel.function

    def test_source_names_no_predicate_and_no_operator(self):
        predicate = "__import__('os')"
        db = Database.from_dict({predicate: [(1, 2)]})
        x, y = Variable("X"), Variable("Y")
        query = ConjunctiveQuery(
            Atom("q", [x]), [Atom(predicate, [x, y])], [Comparison(x, "<", y)]
        )
        plan = try_compile(query, db)
        assert plan.execute(db) == frozenset([(1,)])
        for source in self._sources(plan):
            assert "__import__" not in source and "<" not in source


class TestAPlanOutlivesDataVersions:
    QUERY = "q(X, Z) :- r(X, Y), s(Y, Z)."

    def test_a_one_row_delta_is_a_plan_hit(self):
        executor, db, query = CompiledExecutor(), _db(), parse_query(self.QUERY)
        executor.evaluate(query, db)
        db.add_fact("r", (100, 3))
        assert executor.evaluate(query, db) == _interpreted(query, db)
        db.remove_fact("r", (100, 3))
        assert executor.evaluate(query, db) == _interpreted(query, db)
        assert (executor.plan_misses, executor.plan_hits) == (1, 2)

    def test_growth_within_2x_keeps_the_plan_and_beyond_recompiles(self):
        executor, db, query = CompiledExecutor(), _db(), parse_query(self.QUERY)
        executor.evaluate(query, db)  # costed at |r| = 40
        for i in range(40, 80):
            db.add_fact("r", (i, i % 7))
        executor.evaluate(query, db)  # 80 = 2x: still in
        assert executor.plan_misses == 1
        db.add_fact("r", (80, 3))
        assert executor.evaluate(query, db) == _interpreted(query, db)
        assert executor.plan_misses == 2  # 81 > 2 x 40
        for i in range(20, 81):
            db.remove_fact("r", (i, i % 7 if i < 80 else 3))
        assert executor.evaluate(query, db) == _interpreted(query, db)
        assert executor.plan_misses == 3  # 20 < 81 / 2

    def test_an_order_costed_before_a_small_growth_still_answers_right(self):
        db = Database()
        for i in range(10):
            db.add_fact("a", (i, i % 4))
        for i in range(15):
            db.add_fact("b", (i % 4, 100 + i))
        query = parse_query("q(X, Z) :- a(X, Y), b(Y, Z).")
        executor = CompiledExecutor()
        assert executor.evaluate(query, db) == _interpreted(query, db)
        for i in range(10, 19):  # < 2x: the plan stays, a fresh costing flips
            db.add_fact("a", (i, i % 4))
        assert executor.plan_for(query, db).steps[0].predicate == "a"
        assert try_compile(query, db).steps[0].predicate == "b"
        assert executor.evaluate(query, db) == _interpreted(query, db)
        assert executor.plan_misses == 1

    def test_a_relation_that_appears_recompiles(self):
        executor, db = CompiledExecutor(), _db()
        query = parse_query("q(X, Z) :- r(X, Y), late(Y, Z).")
        assert executor.evaluate(query, db) == frozenset()
        db.add_fact("late", (3, "z"))
        assert executor.evaluate(query, db) == _interpreted(query, db) != frozenset()
        assert executor.plan_misses == 2

    def test_a_rematerialized_instance_starts_cold(self):
        base = _db()
        store = MaterializedViewStore(parse_views("v(X, Y) :- r(X, Y), s(X, Y)."), base)
        executor, query = CompiledExecutor(), parse_query("q(X) :- v(X, 2).")
        executor.evaluate(query, store.as_database())
        executor.evaluate(query, store.as_database())
        assert (executor.plan_misses, executor.plan_hits) == (1, 1)
        store.materialize()  # a new instance object: the entry cannot be reached
        assert executor.evaluate(query, store.as_database()) == _interpreted(
            query, store.as_database()
        )
        assert (executor.plan_misses, executor.plan_hits) == (2, 1)

