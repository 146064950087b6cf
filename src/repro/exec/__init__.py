"""repro.exec — the compiled, set-at-a-time physical execution engine.

This package turns a :class:`~repro.datalog.queries.ConjunctiveQuery` (or
union) into a physical plan — an indexed scan feeding a pipeline of hash
joins, comparison filters and a deduplicating projection — that operates on
whole relations at a time instead of one binding at a time:

* :mod:`repro.exec.stats` — per-relation/per-position statistics
  (cardinality, distinct counts, selectivity estimates) behind a
  version-validated snapshot cache;
* :mod:`repro.exec.compile` — admission, cost-based join ordering (by rows
  still alive after each subgoal), and operator construction;
  :func:`estimate_cost` prices the chosen plan without running it (the
  optimizer's one cost estimate);
* :mod:`repro.exec.plan` — the physical operators; each step runs as a
  *kernel*, a Python function generated once for exactly its shape, whose
  constants are run-time parameters;
* :mod:`repro.exec.executor` — :class:`CompiledExecutor` (plan caching keyed
  by query *shape* — constants lifted to parameters — and database identity,
  valid across data versions until a relation moves more than 2x; union
  evaluation with shared build sides).

Every engine holds its own :class:`CompiledExecutor`, and
:func:`repro.engine.evaluate.evaluate` runs a process-shared one unless the
call names the reference interpreter (``evaluate(...,
executor="interpreted")``).

>>> from repro.datalog.parser import parse_query
>>> from repro.engine.database import Database
>>> from repro.exec import CompiledExecutor
>>> db = Database.from_dict({"r": [(1, 2), (2, 3)], "s": [(2, "a"), (3, "b")]})
>>> executor = CompiledExecutor()
>>> sorted(executor.evaluate(parse_query("q(X, Z) :- r(X, Y), s(Y, Z)."), db))
[(1, 'a'), (2, 'b')]
"""

from __future__ import annotations

from repro.exec.compile import estimate_cost, order_body, try_compile
from repro.exec.executor import CompiledExecutor
from repro.exec.plan import HashJoinStep, PhysicalPlan
from repro.exec.stats import DatabaseStatistics, statistics_for

__all__ = [
    "CompiledExecutor",
    "DatabaseStatistics",
    "HashJoinStep",
    "PhysicalPlan",
    "estimate_cost",
    "order_body",
    "statistics_for",
    "try_compile",
]
