"""Tests for the compiled executor: equivalence, caching, fallback, sharing."""

import importlib
import os
import random
import subprocess
import sys

import pytest

from repro import connect
from repro.api import Catalog, Engine
from repro.errors import EvaluationError
from repro.datalog.atoms import Atom
from repro.datalog.parser import parse_query, parse_views
from repro.datalog.queries import ConjunctiveQuery, UnionQuery
from repro.datalog.terms import FunctionTerm, Variable
from repro.engine.database import Database
from repro.engine.evaluate import EvaluationStatistics, evaluate, materialize_views
from repro.engine.relation import SkolemValue
from repro.exec import CompiledExecutor
from repro.exec.executor import SHARED_EXECUTOR

COMPILED = CompiledExecutor()
INTERPRETED = "interpreted"

#: Both evaluators, for parametrized equivalence.
ALL_EXECUTORS = [COMPILED, INTERPRETED]
EXECUTOR_IDS = ["compiled", "interpreted"]


def random_db(seed=0, size=200, domain=25):
    rng = random.Random(seed)
    db = Database()
    for name in ("r", "s", "t"):
        db.ensure_relation(name, 2)
        for _ in range(size):
            db.add_fact(name, (rng.randrange(domain), rng.randrange(domain)))
    db.ensure_relation("u", 3)
    for _ in range(size):
        db.add_fact("u", tuple(rng.randrange(domain) for _ in range(3)))
    return db


def assert_engines_agree(query, db):
    interpreted = evaluate(query, db, executor=INTERPRETED)
    assert evaluate(query, db, executor=COMPILED) == interpreted
    return interpreted


#: Query shapes every executor must answer exactly as the interpreter does.
EQUIVALENCE_QUERIES = [
    "q(X, Z) :- r(X, Y), s(Y, Z).",
    "q(X, W) :- r(X, Y), s(Y, Z), t(Z, W).",
    "q(X) :- r(X, X).",
    "q(X, Y) :- r(X, Y), X < Y.",
    "q(X, Y) :- r(X, Y), s(Y, 3).",
    "q(X, Y, Z) :- u(X, Y, Z), X != Z.",
    "q(X) :- u(X, X, Y), Y > 1.",
    "q(X, Y) :- r(X, Y), t(Y, X).",
    "q() :- r(X, Y), X = Y.",
    "q(X, 7) :- r(X, Y).",
    "q(X, Y) :- r(X, Y), s(A, B), A != B.",  # cartesian product
    "q(X, Z) :- r(X, Y), s(Y, Z), r(X, 5).",
    "q(X, Y) :- r(X, Y), 1 < 2.",  # ground-true comparison
    "q(X, Y) :- r(X, Y), 2 < 1.",  # ground-false comparison
    "q(A, B) :- u(A, B, B).",
    "q(X) :- r(3, X).",
]


class TestEquivalence:
    @pytest.mark.parametrize("executor", ALL_EXECUTORS, ids=EXECUTOR_IDS)
    @pytest.mark.parametrize("text", EQUIVALENCE_QUERIES)
    def test_same_answers_as_interpreter(self, text, executor):
        query = parse_query(text)
        db = random_db()
        assert evaluate(query, db, executor=executor) == evaluate(
            query, db, executor=INTERPRETED
        )

    @pytest.mark.parametrize("text", EQUIVALENCE_QUERIES)
    def test_same_answers_after_add_discard_churn(self, text):
        # The first run builds the hash indexes the plan probes; the churn then
        # maintains them incrementally (deletes, re-inserts, fresh rows), and
        # the second run must read exactly the live rows through them.
        query = parse_query(text)
        db = random_db(5)
        assert_engines_agree(query, db)
        rng = random.Random(text)
        for _ in range(300):
            name = rng.choice(("r", "s", "t", "u"))
            rows = sorted(db.relation(name))
            if rows and rng.random() < 0.6:
                db.remove_fact(name, rng.choice(rows))
            else:
                arity = 3 if name == "u" else 2
                db.add_fact(name, tuple(rng.randrange(25) for _ in range(arity)))
        assert_engines_agree(query, db)

    def test_union_queries_agree(self):
        db = random_db(3)
        union = UnionQuery(
            [parse_query("q(X, Y) :- r(X, Y)."), parse_query("q(X, Y) :- s(X, Y), X < Y.")]
        )
        assert_engines_agree(union, db)

    def test_empty_and_missing_relations(self):
        db = Database()
        db.ensure_relation("r", 2)  # present but empty
        query = parse_query("q(X, Z) :- r(X, Y), missing(Y, Z).")
        assert assert_engines_agree(query, db) == frozenset()

    def test_skolem_values_in_data(self):
        db = Database()
        sk = SkolemValue("f", (1,))
        db.add_fact("r", (1, sk))
        db.add_fact("r", (1, 2))
        db.add_fact("s", (sk, 3))
        db.add_fact("s", (2, 3))
        # Skolems join by identity but never satisfy order comparisons.
        assert_engines_agree(parse_query("q(X, Z) :- r(X, Y), s(Y, Z)."), db)
        assert_engines_agree(parse_query("q(X, Y) :- r(X, Y), Y < 100."), db)
        assert_engines_agree(parse_query("q(X, Y) :- r(X, Y), Y != 2."), db)

    def test_arity_mismatch_raises_in_both_engines(self):
        db = Database.from_dict({"r": [(1, 2)]})
        query = parse_query("q(X) :- r(X).")
        for executor in ALL_EXECUTORS:
            with pytest.raises(EvaluationError):
                evaluate(query, db, executor=executor)

    def test_unbound_head_variable_raises_only_when_rows_exist(self):
        # require_safe=False lets an unsafe head through; evaluation must
        # raise only when an assignment actually reaches projection.
        x, y = Variable("X"), Variable("Y")
        query = ConjunctiveQuery(Atom("q", [y]), [Atom("r", [x, x])], require_safe=False)
        empty = Database.from_dict({"r": [(1, 2)]})  # r(X, X) never matches
        matching = Database.from_dict({"r": [(1, 1)]})
        for executor in ALL_EXECUTORS:
            assert evaluate(query, empty, executor=executor) == frozenset()
            with pytest.raises(EvaluationError):
                evaluate(query, matching, executor=executor)

    def test_statistics_counters_are_filled(self):
        db = random_db(1)
        stats = EvaluationStatistics()
        evaluate(parse_query("q(X, Z) :- r(X, Y), s(Y, Z)."), db, stats, executor=COMPILED)
        assert stats.probes > 0
        assert stats.extensions > 0
        assert stats.answers > 0
        assert stats.subgoals == 2


class TestEarlyProjectionWorkGuard:
    """A count, not a stopwatch: fails if early projection is ever lost."""

    FANOUT, DOMAIN = 3, 12

    def regular_chain_db(self):
        # Every value has exactly FANOUT successors in every relation.
        db = Database()
        for index, name in enumerate(("r1", "r2", "r3")):
            db.ensure_relation(name, 2)
            for value in range(self.DOMAIN):
                for step in range(self.FANOUT):
                    db.add_fact(name, (value, (value * (index + 2) + step) % self.DOMAIN))
        return db

    def test_extensions_bounded_by_distinct_live_rows(self):
        # What evaluate() runs by default, so the served plan is guarded.
        executor = SHARED_EXECUTOR
        db = self.regular_chain_db()
        query = parse_query("q(X0) :- r1(X0, X1), r2(X1, X2), r3(X2, X3).")
        plan = executor.plan_for(query, db)
        # The head sits in r1 and every tail is dense: a witness plan opens
        # on r1's head keys and checks r2, r3 with limit-1 probes.
        assert plan._witness is not None
        assert [step.predicate for step in plan.steps] == ["r1", "r2", "r3"]
        # What is live after each step of the pipeline, evaluated by the
        # interpreter: the witness plan must stay within it too.
        live = [
            "q(X2) :- r3(X2, X3).",
            "q(X1) :- r2(X1, X2), r3(X2, X3).",
            "q(X0) :- r1(X0, X1), r2(X1, X2), r3(X2, X3).",
        ]
        bound = sum(len(evaluate(parse_query(t), db, executor=INTERPRETED)) for t in live)
        full_join = self.DOMAIN * self.FANOUT ** 3
        assert bound < full_join
        stats = EvaluationStatistics()
        answers = evaluate(query, db, stats, executor=executor)
        assert answers == frozenset((value,) for value in range(self.DOMAIN))
        assert stats.extensions <= bound
        assert stats.answers == self.DOMAIN

    def test_a_selective_tail_keeps_the_pipeline_towards_the_head(self):
        db = self.regular_chain_db()
        for row in sorted(db.relation("r3"))[1:]:
            db.remove_fact("r3", row)
        query = parse_query("q(X0) :- r1(X0, X1), r2(X1, X2), r3(X2, X3).")
        plan = CompiledExecutor().plan_for(query, db)
        # Towards the head: each intermediate result is one column wide.
        assert plan._witness is None
        assert [step.predicate for step in plan.steps] == ["r3", "r2", "r1"]
        assert_engines_agree(query, db)

    def test_ends_headed_variant_matches_the_interpreter(self):
        db = self.regular_chain_db()
        query = parse_query("q(X0, X3) :- r1(X0, X1), r2(X1, X2), r3(X2, X3).")
        assert_engines_agree(query, db)


class TestFallback:
    def test_function_terms_fall_back_to_interpreter(self):
        executor = CompiledExecutor()
        x = Variable("X")
        query = ConjunctiveQuery(
            Atom("q", [x, FunctionTerm("f", (x,))]),
            [Atom("r", [x, x])],
            require_safe=False,
        )
        db = Database.from_dict({"r": [(1, 1), (2, 2)]})
        answers = executor.evaluate(query, db)
        assert answers == frozenset(
            {(1, SkolemValue("f", (1,))), (2, SkolemValue("f", (2,)))}
        )
        assert executor.fallbacks == 1


def join_db(seed=0, size=400, domain=40):
    rng = random.Random(seed)
    db = Database()
    for name in ("r", "s"):
        db.ensure_relation(name, 2)
        for _ in range(size):
            db.add_fact(name, (rng.randrange(domain), rng.randrange(domain)))
    return db


class TestCompiledPlanShapes:
    """Plan shapes the compiled executor must run to the interpreter's answers."""

    def test_projected_chain_deduplicates_after_the_opening_scan(self):
        rng = random.Random(7)
        db = Database()
        for name, size in (("r1", 200), ("r2", 300), ("r3", 300), ("r4", 300)):
            db.ensure_relation(name, 2)
            for _ in range(size):
                db.add_fact(name, (rng.randrange(30), rng.randrange(30)))
        # The smallest relation opens the pipeline and X0 is dead right after
        # that scan, so the scan keeps one column: it walks the keys of the
        # index on that column, which are distinct without a set.
        query = parse_query("q(X4) :- r1(X0, X1), r2(X1, X2), r3(X2, X3), r4(X3, X4).")
        plan = CompiledExecutor().plan_for(query, db)
        opening = plan.steps[0]
        assert len(opening.keep) == 1 and opening.scan_keys == (1,) and not opening.distinct
        assert assert_engines_agree(query, db)

    def test_always_empty_plan_reads_no_relation(self):
        executor = CompiledExecutor()
        db = join_db(10)
        query = parse_query("q(X, Z) :- r(X, Y), s(Y, Z), 2 < 1.")
        assert executor.plan_for(query, db).always_empty
        stats = EvaluationStatistics()
        assert executor.evaluate(query, db, stats) == frozenset()
        assert stats.subgoals == 0 and stats.probes == 0

    def test_single_atom_query_over_memory_runs_a_one_step_plan(self):
        # A single atom compiles like any other query.
        executor = CompiledExecutor()
        db = join_db(9)
        query = parse_query("q(X, Y) :- r(X, Y), X < Y.")
        assert executor.evaluate(query, db) == evaluate(query, db, executor=INTERPRETED)
        assert len(executor.plan_for(query, db).steps) == 1

    def test_skolems_on_the_join_column_of_both_relations(self):
        db = join_db(11, size=40)
        sk = SkolemValue("f", (1,))
        db.add_fact("r", (1, sk))
        db.add_fact("s", (sk, 3))
        answers = assert_engines_agree(parse_query("q(X, Z) :- r(X, Y), s(Y, Z)."), db)
        assert (1, 3) in answers

    def test_unbound_head_over_a_join_with_no_matches(self):
        x, y = Variable("X"), Variable("Y")
        query = ConjunctiveQuery(
            Atom("q", [y]),
            [Atom("r", [x, x]), Atom("s", [x, x])],
            require_safe=False,
        )
        empty = Database.from_dict({"r": [(1, 2)], "s": [(1, 1)]})
        assert CompiledExecutor().evaluate(query, empty) == frozenset()

    def test_clear_drops_every_cached_plan(self):
        executor = CompiledExecutor()
        db = join_db(6)
        query = parse_query("q(X, Z) :- r(X, Y), s(Y, Z).")
        first = executor.evaluate(query, db)
        assert executor.stats()["plans_cached"] == 1
        executor.clear()
        assert executor.stats()["plans_cached"] == 0
        assert executor.evaluate(query, db) == first
        assert (executor.plan_misses, executor.plan_hits) == (2, 0)

    def test_stats_snapshot_shape(self):
        stats = CompiledExecutor(plan_cache_size=12).stats()
        assert stats == {
            "executor": "compiled",
            "plans_cached": 0,
            "plan_cache_size": 12,
            "plan_hits": 0,
            "plan_misses": 0,
            "fallbacks": 0,
        }


class TestPlanCache:
    def test_repeated_queries_hit_the_cache(self):
        executor = CompiledExecutor()
        db = random_db(2)
        query = parse_query("q(X, Z) :- r(X, Y), s(Y, Z).")
        executor.evaluate(query, db)
        executor.evaluate(query, db)
        assert executor.plan_hits == 1
        assert executor.plan_misses == 1

    def test_isomorphic_queries_share_a_plan(self):
        executor = CompiledExecutor()
        db = random_db(2)
        executor.evaluate(parse_query("q(X, Z) :- r(X, Y), s(Y, Z)."), db)
        executor.evaluate(parse_query("q(A, C) :- r(A, B), s(B, C)."), db)
        assert executor.plan_hits == 1

    def test_version_bump_keeps_the_plan(self):
        # A plan reads relations and indexes by name at run time: new data
        # shows up in the answers without a recompile.
        executor = CompiledExecutor()
        db = random_db(2)
        query = parse_query("q(X, Z) :- r(X, Y), s(Y, Z).")
        first = executor.evaluate(query, db)
        db.add_fact("r", (999, 998))
        db.add_fact("s", (998, 997))
        second = executor.evaluate(query, db)
        assert (executor.plan_misses, executor.plan_hits) == (1, 1)
        assert (999, 997) in second and (999, 997) not in first

    def test_cache_is_bounded(self):
        executor = CompiledExecutor(plan_cache_size=2)
        db = random_db(2)
        for name in ("a", "b", "c", "d"):
            executor.evaluate(parse_query(f"{name}(X, Y) :- r(X, Y)."), db)
        assert executor.stats()["plans_cached"] <= 2

    def test_unsupported_queries_cache_the_negative_result(self):
        executor = CompiledExecutor()
        x = Variable("X")
        query = ConjunctiveQuery(
            Atom("q", [x]),
            [Atom("r", [x, FunctionTerm("f", (x,))])],
            require_safe=False,
        )
        db = Database.from_dict({"r": [(1, SkolemValue("f", (1,)))]})
        executor.evaluate(query, db)
        executor.evaluate(query, db)
        assert executor.fallbacks == 2
        assert executor.plan_misses == 1
        assert executor.plan_hits == 1


class TestSharedBuildSides:
    def test_union_disjuncts_share_relation_indexes(self):
        """Disjuncts probing one view relation share its hash index build."""
        db = Database()
        for i in range(50):
            db.add_fact("v", (i % 7, i))
        union = UnionQuery(
            [
                parse_query("q(X, Y) :- v(X, Y), r(Y, X)."),
                parse_query("q(X, Y) :- v(X, Y), s(Y, X)."),
                parse_query("q(X, Y) :- v(X, Y), t(Y, X)."),
            ]
        )
        for name in ("r", "s", "t"):
            for i in range(20):
                db.add_fact(name, (i, i % 7))
        executor = CompiledExecutor()
        executor.evaluate(union, db)
        relation = db.relation("v")
        # One shared index (plus at most the scan-side none): the three
        # disjuncts did not build three separate join tables.
        assert len(relation._indexes) <= 2


class TestDefaultExecutor:
    def test_none_means_compiled(self):
        query = parse_query("q(X, Y) :- r(X, Y), X < Y.")
        db = random_db(4)
        for executor in (None, "compiled"):
            misses, hits = SHARED_EXECUTOR.plan_misses, SHARED_EXECUTOR.plan_hits
            evaluate(query, db, executor=executor)
            assert SHARED_EXECUTOR.plan_misses + SHARED_EXECUTOR.plan_hits == misses + hits + 1

    def test_evaluate_accepts_instances_and_rejects_junk(self):
        query = parse_query("q(X, Y) :- r(X, Y).")
        db = random_db(4)
        executor = CompiledExecutor()
        assert evaluate(query, db, executor=executor) == evaluate(query, db, executor=INTERPRETED)
        assert executor.plan_misses == 1
        for junk in ("vectorized", 42, "InterpretedExecutor"):
            with pytest.raises(EvaluationError):
                evaluate(query, db, executor=junk)

    def test_parallel_is_no_longer_an_executor(self):
        with pytest.raises(EvaluationError, match="compiled"):
            evaluate(parse_query("q(X) :- r(X, Y)."), random_db(4), executor="parallel")

    def test_environment_does_not_choose_the_executor(self):
        # A fresh interpreter, so nothing read at import time can hide.
        script = (
            "from repro import connect, parse_query\n"
            "from repro.engine import Database\n"
            "from repro.engine.evaluate import evaluate\n"
            "from repro.exec.executor import SHARED_EXECUTOR\n"
            "evaluate(parse_query('q(X) :- r(X, Y).'), Database.from_dict({'r': [(1, 2)]}))\n"
            "engine = connect(views='v(X, Y) :- r(X, Y).', data='r(1, 2).')\n"
            "print(SHARED_EXECUTOR.plan_misses, engine.executor)\n"
        )
        src = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..", "src"))
        env = dict(os.environ, REPRO_DEFAULT_EXECUTOR="interpreted", PYTHONPATH=src)
        reply = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True,
            check=True,
        )
        assert reply.stdout.split() == ["1", "compiled"]

    def test_bad_executor_name_raises_evaluation_error_everywhere(self):
        query = parse_query("q(X, Y) :- r(X, Y).")
        db = random_db(4)
        views = parse_views("v(X, Y) :- r(X, Y).")
        for call in (
            lambda: evaluate(query, db, executor="bogus"),
            lambda: materialize_views(views, db, executor="bogus"),
        ):
            with pytest.raises(EvaluationError, match="compiled, interpreted"):
                call()

    @pytest.mark.parametrize("option", [
        {"executor": "compiled"}, {"executor": "interpreted"}, {"use_view_index": False},
    ], ids=["executor-compiled", "executor-interpreted", "use-view-index"])
    def test_engines_take_no_evaluator_or_view_index_knob(self, option):
        with pytest.raises(TypeError):
            connect(views="v(X, Y) :- r(X, Y).", **option)
        with pytest.raises(TypeError):
            Engine(Catalog(), **option)

    def test_one_executor_class_is_exported(self):
        import repro
        import repro.exec

        for name in ("InterpretedExecutor", "EXECUTORS", "make_executor", "resolve_executor"):
            assert not hasattr(repro.exec, name)
            assert not hasattr(repro, name)
        assert not hasattr(repro, "ParallelExecutor")
        assert not hasattr(repro.exec, "ParallelExecutor")
        with pytest.raises(ImportError):
            importlib.import_module("repro.exec.parallel")

    def test_evaluate_accepts_executor_names(self):
        db = random_db(4)
        query = parse_query("q(X, Y) :- r(X, Y), X < Y.")
        assert evaluate(query, db, executor="compiled") == evaluate(
            query, db, executor="interpreted"
        )


class TestMaterializeThroughExecutor:
    def test_materialize_views_matches_interpreter(self):
        db = random_db(5)
        views = parse_views(
            "v1(X, Z) :- r(X, Y), s(Y, Z).\n"
            "v2(X) :- r(X, X).\n"
            "v3(X, Y) :- t(X, Y), X < Y.\n"
        )
        compiled = materialize_views(views, db, executor=COMPILED)
        interpreted = materialize_views(views, db, executor=INTERPRETED)
        assert compiled == interpreted
