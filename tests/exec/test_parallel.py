"""Tests for the parallel executor: partitioning, fallbacks, pool lifecycle."""

import multiprocessing
import random

import pytest

from repro.errors import EvaluationError
from repro.datalog.atoms import Atom
from repro.datalog.parser import parse_query
from repro.datalog.queries import ConjunctiveQuery, UnionQuery
from repro.datalog.terms import FunctionTerm, Variable
from repro.engine.database import Database
from repro.engine.evaluate import EvaluationStatistics, evaluate
from repro.engine.relation import SkolemValue
from repro.exec import CompiledExecutor, InterpretedExecutor
from repro.exec.parallel import (
    PROCESSES_ENV,
    ParallelExecutor,
    _default_processes,
)

FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(not FORK, reason="platform has no fork start method")

JOIN = "q(X, Z) :- r(X, Y), s(Y, Z)."


def join_db(seed=0, size=400, domain=40):
    rng = random.Random(seed)
    db = Database()
    for name in ("r", "s"):
        db.ensure_relation(name, 2)
        for _ in range(size):
            db.add_fact(name, (rng.randrange(domain), rng.randrange(domain)))
    return db


@pytest.fixture()
def executor():
    instance = ParallelExecutor(processes=2, min_partition_rows=1)
    yield instance
    instance.close()


class TestPartitionedPath:
    @needs_fork
    def test_answers_match_serial_compiled(self, executor):
        db = join_db()
        query = parse_query(JOIN)
        serial = evaluate(query, db, executor=CompiledExecutor())
        assert executor.evaluate(query, db) == serial
        assert executor.parallel_runs == 1
        assert executor.serial_runs == 0
        assert executor.fallbacks == 0
        assert 1 <= executor.partitions_executed <= 2
        assert executor.last_partition_seconds
        assert executor.stats()["pool_alive"]

    @needs_fork
    def test_worker_statistics_are_merged(self, executor):
        db = join_db(1)
        stats = EvaluationStatistics()
        answers = executor.evaluate(parse_query(JOIN), db, stats)
        assert stats.subgoals == 2
        assert stats.probes > 0
        assert stats.extensions > 0
        assert stats.answers >= len(answers) > 0

    @needs_fork
    def test_projected_chain_partitions_after_a_deduplicating_scan(self, executor):
        rng = random.Random(7)
        db = Database()
        for name, size in (("r1", 200), ("r2", 300), ("r3", 300), ("r4", 300)):
            db.ensure_relation(name, 2)
            for _ in range(size):
                db.add_fact(name, (rng.randrange(30), rng.randrange(30)))
        # The smallest relation opens the pipeline, and X0 is dead right after
        # that scan (a set of X1 values is what gets partitioned);
        # every later join variable dies at the step after the one binding it.
        query = parse_query("q(X4) :- r1(X0, X1), r2(X1, X2), r3(X2, X3), r4(X3, X4).")
        plan = executor.plan_for(query, db)
        assert plan.steps[0].distinct and len(plan.steps[0].keep) == 1
        answers = executor.evaluate(query, db)
        assert answers == evaluate(query, db, executor=CompiledExecutor())
        assert answers == evaluate(query, db, executor=InterpretedExecutor())
        assert executor.parallel_runs == 1
        assert executor.serial_runs == 0 and not executor.fallback_reasons

    @needs_fork
    def test_union_queries_union_partitioned_disjuncts(self, executor):
        db = join_db(2)
        union = UnionQuery(
            [parse_query(JOIN), parse_query("q(X, Z) :- s(X, Y), r(Y, Z).")]
        )
        assert executor.evaluate(union, db) == evaluate(
            union, db, executor=CompiledExecutor()
        )
        assert executor.parallel_runs == 2

    @needs_fork
    def test_pool_is_reused_until_the_database_changes(self, executor):
        db = join_db(3)
        query = parse_query(JOIN)
        first = executor.evaluate(query, db)
        handle = executor._pool_handle
        assert executor.evaluate(query, db) == first
        assert executor._pool_handle is handle  # same snapshot, same pool
        assert executor.plan_hits == 1

        db.add_fact("r", (997, 998))
        db.add_fact("s", (998, 999))
        second = executor.evaluate(query, db)
        assert (997, 999) in second and (997, 999) not in first
        assert executor._pool_handle is not handle  # version bump -> fresh fork

    @needs_fork
    def test_pool_infrastructure_failure_recovers_serially(self, executor):
        db = join_db(4)
        query = parse_query(JOIN)
        expected = executor.evaluate(query, db)
        # Kill the pool behind the executor's back: the next map() raises, the
        # executor discards the handle and recomputes the query serially.
        executor._pool_handle.pool.terminate()
        executor._pool_handle.pool.join()
        assert executor.evaluate(query, db) == expected
        assert executor.fallback_reasons["worker_failure"] == 1

    @needs_fork
    def test_drain_partition_timings_empties_the_buffer(self, executor):
        db = join_db(5)
        executor.evaluate(parse_query(JOIN), db)
        drained = executor.drain_partition_timings()
        assert drained == [] or all(seconds >= 0 for seconds in drained)
        assert len(drained) == executor.partitions_executed
        assert executor.drain_partition_timings() == []

    @needs_fork
    def test_clear_drops_plans_and_pool(self, executor):
        db = join_db(6)
        executor.evaluate(parse_query(JOIN), db)
        assert executor.stats()["pool_alive"]
        executor.clear()
        stats = executor.stats()
        assert not stats["pool_alive"]
        assert stats["plans_cached"] == 0


class TestSerialFallbacks:
    def assert_serial(self, executor, reason):
        assert executor.parallel_runs == 0
        assert executor.fallback_reasons[reason] == 1

    def test_below_relation_threshold(self):
        executor = ParallelExecutor(processes=2, min_partition_rows=10**9)
        db = join_db(7)
        query = parse_query(JOIN)
        assert executor.evaluate(query, db) == evaluate(query, db)
        self.assert_serial(executor, "below_threshold")

    @needs_fork
    def test_below_scan_output_threshold(self):
        # The relation clears the bar but the scan's own output does not (the
        # threshold is between the two sizes), so the post-scan check fires.
        executor = ParallelExecutor(processes=2, min_partition_rows=150)
        db = Database()
        for i in range(200):
            db.add_fact("r", (i, i + 1))
        for i in range(100):
            db.add_fact("s", (i + 1, i + 2))
        query = parse_query("q(X, Z) :- s(X, Y), r(Y, Z).")
        assert executor.evaluate(query, db) == evaluate(query, db)
        self.assert_serial(executor, "below_threshold")

    def test_single_process(self):
        executor = ParallelExecutor(processes=1, min_partition_rows=1)
        db = join_db(8)
        query = parse_query(JOIN)
        assert executor.evaluate(query, db) == evaluate(query, db)
        self.assert_serial(executor, "single_process")

    def test_single_step_plan(self):
        executor = ParallelExecutor(processes=2, min_partition_rows=1)
        db = join_db(9)
        query = parse_query("q(X, Y) :- r(X, Y).")
        assert executor.evaluate(query, db) == evaluate(query, db)
        self.assert_serial(executor, "single_step_plan")

    def test_always_empty_plan(self):
        executor = ParallelExecutor(processes=2, min_partition_rows=1)
        query = parse_query("q(X, Y) :- r(X, Y), 2 < 1.")
        assert executor.evaluate(query, join_db(10)) == frozenset()
        self.assert_serial(executor, "always_empty")

    def test_unbound_head_runs_serially(self):
        executor = ParallelExecutor(processes=2, min_partition_rows=1)
        x, y = Variable("X"), Variable("Y")
        query = ConjunctiveQuery(
            Atom("q", [y]),
            [Atom("r", [x, x]), Atom("s", [x, x])],
            require_safe=False,
        )
        empty = Database.from_dict({"r": [(1, 2)], "s": [(1, 1)]})
        assert executor.evaluate(query, empty) == frozenset()
        self.assert_serial(executor, "unbound_head")

    def test_skolem_partition_column(self):
        executor = ParallelExecutor(processes=2, min_partition_rows=1)
        db = join_db(11, size=40)
        # Skolems on the join column of both relations, so the partition
        # column carries one whichever relation the planner scans first.
        sk = SkolemValue("f", (1,))
        db.add_fact("r", (1, sk))
        db.add_fact("s", (sk, 3))
        query = parse_query(JOIN)
        assert executor.evaluate(query, db) == evaluate(query, db)
        self.assert_serial(executor, "skolem_partition_column")

    def test_not_compilable_falls_back_to_interpreter(self):
        executor = ParallelExecutor(processes=2, min_partition_rows=1)
        x = Variable("X")
        query = ConjunctiveQuery(
            Atom("q", [x, FunctionTerm("f", (x,))]),
            [Atom("r", [x, x])],
            require_safe=False,
        )
        db = Database.from_dict({"r": [(1, 1)]})
        assert executor.evaluate(query, db) == frozenset(
            {(1, SkolemValue("f", (1,)))}
        )
        assert executor.fallbacks == 1
        assert executor.fallback_reasons["not_compilable"] == 1

    def test_semantic_errors_are_not_retried(self):
        executor = ParallelExecutor(processes=2, min_partition_rows=1)
        db = Database.from_dict({"r": [(1, 2)]})
        with pytest.raises(EvaluationError):
            executor.evaluate(parse_query("q(X) :- r(X)."), db)


class TestConfiguration:
    def test_env_override_sets_the_default_worker_count(self, monkeypatch):
        monkeypatch.setenv(PROCESSES_ENV, "7")
        assert _default_processes() == 7
        assert ParallelExecutor().stats()["processes"] == 7
        # An explicit constructor argument always wins over the environment.
        assert ParallelExecutor(processes=3).stats()["processes"] == 3

    def test_invalid_env_override_is_ignored(self, monkeypatch):
        monkeypatch.setenv(PROCESSES_ENV, "many")
        import os

        assert _default_processes() == (os.cpu_count() or 1)

    def test_stats_snapshot_shape(self):
        executor = ParallelExecutor(processes=2, min_partition_rows=123)
        stats = executor.stats()
        assert stats["executor"] == "parallel"
        assert stats["processes"] == 2
        assert stats["min_partition_rows"] == 123
        for key in (
            "parallel_runs",
            "serial_runs",
            "fallback_reasons",
            "partitions_executed",
            "last_partition_seconds",
            "pool_alive",
            "plans_cached",
            "plan_hits",
            "plan_misses",
            "fallbacks",
        ):
            assert key in stats
