"""Partitioned parallel hash-join execution across a forked worker pool.

:class:`ParallelExecutor` parallelizes the compiled pipeline of
:mod:`repro.exec.plan` for large extents.  The parent process compiles the
plan, runs the **first step** (the indexed scan) itself, then hash-partitions
the scan output by the next step's join key and fans the **tail of the
pipeline** (remaining probes + projection) across a pool of forked workers:

* workers are created with the ``fork`` start method, so they inherit the
  database — relations, columnar arrays *and* every already-built hash index
  — by copy-on-write without pickling a byte of it;
* the *plan* crosses the process boundary — step descriptions, bound
  parameters and the kernels' source text (:mod:`repro.exec.plan`) — so a
  worker runs exactly the join order and slot layout the parent ran, however
  long ago that plan was costed;
* partitions are formed by ``hash(row[k]) % P`` on the first bound join-key
  slot of the second step (equal keys land in one worker, preserving probe
  locality), falling back to round-robin when the next step has no bound key;
* per-partition answer sets are unioned (projection deduplicates within a
  partition, the union across them), and per-partition statistics and wall
  times are merged into the parent's counters and exposed via :meth:`stats`.

The pool is tied to one ``(database, version)`` snapshot: any mutation bumps
the version and the next evaluation forks a fresh pool, so workers can never
read stale data.  Evaluation **falls back to the serial compiled engine**
(identical answers, no processes) whenever parallelism is unsafe or not worth
it; each reason is counted in :attr:`fallback_reasons`:

==========================  ====================================================
reason                      condition
==========================  ====================================================
``not_compilable``          the compiler rejected the query (function terms);
                            the backtracking interpreter runs instead
``always_empty``            a ground comparison is false; the answer is empty
``unbound_head``            the plan would raise on any surviving row
``single_step_plan``        fewer than two steps: no tail to fan out
``fork_unavailable``        the platform has no ``fork`` start method
``daemonic_process``        already inside a pool worker (no nested pools)
``single_process``          the resolved worker count is < 2
``below_threshold``         build relation or scan output smaller than
                            ``min_partition_rows``
``skolem_partition_column``  the partition column carries Skolem values
``worker_failure``          the pool died mid-query (answers recomputed
                            serially)
==========================  ====================================================
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import time
import weakref
from collections import Counter
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from repro.errors import EvaluationError
from repro.datalog.queries import ConjunctiveQuery, UnionQuery
from repro.engine.database import Database
from repro.engine.evaluate import (
    EvaluationStatistics,
    evaluate_conjunctive_interpreted,
)
from repro.exec.executor import CompiledExecutor, pushdown_single_atom
from repro.exec.plan import PhysicalPlan, Row

#: Default minimum size (build relation rows and scan-output rows) below
#: which forked fan-out is not worth the pickling round trip.
DEFAULT_MIN_PARTITION_ROWS = 50_000

#: Environment override for the default worker count (explicit constructor
#: arguments always win).
PROCESSES_ENV = "REPRO_PARALLEL_PROCESSES"


def _default_processes() -> int:
    env = os.environ.get(PROCESSES_ENV)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# Worker side (module-level so it pickles; state inherited via fork)
# ---------------------------------------------------------------------------

#: The database snapshot workers inherit.  The parent sets this immediately
#: before forking the pool and clears it right after, so the only strong
#: reference lives in the children's (copy-on-write) address space.
_FORK_DB: Optional[Database] = None


def _run_partition(
    payload: Tuple[PhysicalPlan, int, List[Row]]
) -> Tuple[FrozenSet[Row], int, int, int, float]:
    """Run the pipeline tail + projection over one partition (in a worker).

    Returns ``(answers, probes, extensions, answer_rows, seconds)``.
    """
    plan, start, rows = payload
    database = _FORK_DB
    if database is None:  # pragma: no cover - defensive: fork misconfigured
        raise EvaluationError("parallel worker has no inherited database")
    started = time.perf_counter()
    stats = EvaluationStatistics()
    surviving = plan.run_steps(database, rows, stats, start=start)
    answers = plan.project_rows(surviving, stats)
    elapsed = time.perf_counter() - started
    return answers, stats.probes, stats.extensions, stats.answers, elapsed


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------

#: Executors with possibly-live pools, terminated at interpreter exit so no
#: worker process (or noisy ``Pool.__del__`` during shutdown) outlives us.
_LIVE_EXECUTORS: "weakref.WeakSet[ParallelExecutor]" = weakref.WeakSet()


@atexit.register
def _close_all_pools() -> None:
    for executor in list(_LIVE_EXECUTORS):
        executor.close()


class _PoolHandle:
    """A worker pool bound to one (database identity, database version)."""

    __slots__ = ("pool", "db_ref", "version", "processes")

    def __init__(self, pool: Any, database: Database, processes: int):
        self.pool = pool
        self.db_ref = weakref.ref(database)
        self.version = database.version
        self.processes = processes

    def matches(self, database: Database, processes: int) -> bool:
        return (
            self.db_ref() is database
            and self.version == database.version
            and self.processes == processes
        )

    def close(self) -> None:
        self.pool.terminate()
        self.pool.join()


class ParallelExecutor:
    """Partitioned parallel evaluation behind the common executor interface.

    Composes a :class:`CompiledExecutor` for plan compilation/caching and for
    every serial fallback, so answers are always those of the compiled engine
    (or the interpreter, for queries the compiler rejects) — parallelism only
    changes *who* runs the pipeline tail, never its semantics.
    """

    name = "parallel"

    def __init__(
        self,
        processes: Optional[int] = None,
        min_partition_rows: int = DEFAULT_MIN_PARTITION_ROWS,
        plan_cache_size: int = 256,
    ):
        #: None = resolve from REPRO_PARALLEL_PROCESSES / os.cpu_count().
        self.processes = processes
        self.min_partition_rows = min_partition_rows
        self._compiled = CompiledExecutor(plan_cache_size)
        self._pool_handle: Optional[_PoolHandle] = None
        #: Conjunctive evaluations that ran the forked fan-out.
        self.parallel_runs = 0
        #: Conjunctive evaluations that ran serially, by reason.
        self.fallback_reasons: Counter = Counter()
        #: Total partitions shipped to workers.
        self.partitions_executed = 0
        #: Worker wall seconds of the most recent parallel run.
        self.last_partition_seconds: List[float] = []
        #: Queries that fell back to the backtracking interpreter.
        self.interpreter_fallbacks = 0
        # Per-partition timings not yet drained into an observability sink
        # (see drain_partition_timings); bounded so an unobserved executor
        # never grows without limit.
        self._pending_timings: List[float] = []
        _LIVE_EXECUTORS.add(self)

    # -- evaluation -------------------------------------------------------------
    def evaluate(
        self,
        query: "ConjunctiveQuery | UnionQuery",
        database: Database,
        statistics: Optional[EvaluationStatistics] = None,
    ) -> FrozenSet[Row]:
        stats = statistics if statistics is not None else EvaluationStatistics()
        if isinstance(query, UnionQuery):
            answers: set = set()
            for disjunct in query.disjuncts:
                answers |= self.evaluate(disjunct, database, stats)
            return frozenset(answers)
        pushed = pushdown_single_atom(query, database)
        if pushed is not None:
            self._compiled.pushdowns += 1
            return pushed
        plan = self._compiled.plan_for(query, database)
        if plan is None:
            self.fallback_reasons["not_compilable"] += 1
            self.interpreter_fallbacks += 1
            return evaluate_conjunctive_interpreted(query, database, stats)
        reason = self._parallel_blocker(plan, database)
        if reason is not None:
            self.fallback_reasons[reason] += 1
            return plan.execute(database, stats)
        return self._evaluate_partitioned(plan, database, stats)

    def _parallel_blocker(
        self, plan: PhysicalPlan, database: Database
    ) -> Optional[str]:
        """The reason this plan must run serially, or None to parallelize."""
        if plan.always_empty:
            return "always_empty"
        if plan.unbound_head_terms:
            return "unbound_head"
        if len(plan.steps) < 2:
            return "single_step_plan"
        if multiprocessing.current_process().daemon:
            return "daemonic_process"
        if "fork" not in multiprocessing.get_all_start_methods():
            return "fork_unavailable"
        if self._resolved_processes() < 2:
            return "single_process"
        first = plan.steps[0]
        relation = database.relation(first.predicate)
        if relation is None or len(relation) < self.min_partition_rows:
            return "below_threshold"
        slot = self._partition_slot(plan)
        # The scan's output slot, mapped back to the relation column.
        if slot is not None and relation.skolem_count(
            first.new_positions[first.keep[slot]]
        ):
            return "skolem_partition_column"
        return None

    def _resolved_processes(self) -> int:
        return self.processes if self.processes is not None else _default_processes()

    @staticmethod
    def _partition_slot(plan: PhysicalPlan) -> Optional[int]:
        """The row slot to hash-partition on: the second step's first bound key."""
        for is_slot, value in plan.steps[1].key_sources:
            if is_slot:
                return value
        return None

    def _evaluate_partitioned(
        self,
        plan: PhysicalPlan,
        database: Database,
        stats: EvaluationStatistics,
    ) -> FrozenSet[Row]:
        stats.subgoals += len(plan.steps)
        rows = plan.steps[0].run(database, [()], stats, plan.params)
        if not rows:
            return frozenset()
        if len(rows) < self.min_partition_rows:
            # The scan was more selective than the relation size suggested.
            self.fallback_reasons["below_threshold"] += 1
            return plan.project_rows(plan.run_steps(database, rows, stats, 1), stats)
        processes = self._resolved_processes()
        partitions = self._partition(rows, self._partition_slot(plan), processes)
        payloads = [(plan, 1, chunk) for chunk in partitions if chunk]
        try:
            pool = self._pool_for(database, processes)
            results = pool.map(_run_partition, payloads)
        except EvaluationError:
            raise
        except Exception:
            # Pool infrastructure failure (dead worker, pickling limit):
            # recompute this query serially; answers stay correct.
            self._close_pool()
            self.fallback_reasons["worker_failure"] += 1
            return plan.project_rows(plan.run_steps(database, rows, stats, 1), stats)
        self.parallel_runs += 1
        self.partitions_executed += len(results)
        timings: List[float] = []
        answers: set = set()
        for part_answers, probes, extensions, answer_rows, seconds in results:
            answers |= part_answers
            stats.probes += probes
            stats.extensions += extensions
            stats.answers += answer_rows
            timings.append(seconds)
        self.last_partition_seconds = timings
        self._pending_timings.extend(timings)
        del self._pending_timings[:-1024]
        return frozenset(answers)

    @staticmethod
    def _partition(
        rows: List[Row], slot: Optional[int], processes: int
    ) -> List[List[Row]]:
        chunks: List[List[Row]] = [[] for _ in range(processes)]
        if slot is None:
            for index, row in enumerate(rows):
                chunks[index % processes].append(row)
        else:
            for row in rows:
                chunks[hash(row[slot]) % processes].append(row)
        return chunks

    # -- pool lifecycle ---------------------------------------------------------
    def _pool_for(self, database: Database, processes: int) -> Any:
        global _FORK_DB
        handle = self._pool_handle
        if handle is not None and handle.matches(database, processes):
            return handle.pool
        self._close_pool()
        context = multiprocessing.get_context("fork")
        _FORK_DB = database
        try:
            pool = context.Pool(processes)
        finally:
            _FORK_DB = None
        self._pool_handle = _PoolHandle(pool, database, processes)
        return pool

    def _close_pool(self) -> None:
        if self._pool_handle is not None:
            self._pool_handle.close()
            self._pool_handle = None

    def close(self) -> None:
        """Terminate the worker pool (a later evaluation forks a fresh one)."""
        self._close_pool()

    def clear(self) -> None:
        """Drop cached plans and terminate the worker pool."""
        self._compiled.clear()
        self._close_pool()

    def __del__(self):  # pragma: no cover - interpreter-shutdown best effort
        try:
            self._close_pool()
        except Exception:
            pass

    def plan_for(
        self, query: ConjunctiveQuery, database: Database
    ) -> Optional[PhysicalPlan]:
        """The compiled plan this executor would run (None = interpreter)."""
        return self._compiled.plan_for(query, database)

    # -- introspection ----------------------------------------------------------
    @property
    def plan_hits(self) -> int:
        return self._compiled.plan_hits

    @property
    def plan_misses(self) -> int:
        return self._compiled.plan_misses

    @property
    def fallbacks(self) -> int:
        """Interpreter fallbacks (queries the compiler rejected)."""
        return self.interpreter_fallbacks

    @property
    def serial_runs(self) -> int:
        return sum(self.fallback_reasons.values())

    def drain_partition_timings(self) -> List[float]:
        """Per-partition worker seconds accumulated since the last drain.

        The service layer feeds these into the ``execute_partition`` stage
        histogram (:meth:`repro.obs.Instrumentation.observe_stage`).
        """
        timings = self._pending_timings
        self._pending_timings = []
        return timings

    def stats(self) -> Dict[str, Any]:
        compiled = self._compiled.stats()
        return {
            "executor": self.name,
            "processes": self._resolved_processes(),
            "min_partition_rows": self.min_partition_rows,
            "parallel_runs": self.parallel_runs,
            "serial_runs": self.serial_runs,
            "fallback_reasons": dict(self.fallback_reasons),
            "partitions_executed": self.partitions_executed,
            "last_partition_seconds": list(self.last_partition_seconds),
            "pool_alive": self._pool_handle is not None,
            "plans_cached": compiled["plans_cached"],
            "plan_cache_size": compiled["plan_cache_size"],
            "plan_hits": compiled["plan_hits"],
            "plan_misses": compiled["plan_misses"],
            "fallbacks": self.interpreter_fallbacks,
        }

    def __repr__(self) -> str:
        return (
            f"ParallelExecutor(processes={self._resolved_processes()}, "
            f"parallel_runs={self.parallel_runs}, serial_runs={self.serial_runs})"
        )
