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
* :mod:`repro.exec.plan` — the physical operators; each step runs as a
  *kernel*, a Python function generated once for exactly its shape, whose
  constants are run-time parameters;
* :mod:`repro.exec.executor` — :class:`CompiledExecutor` (plan caching keyed
  by query *shape* — constants lifted to parameters — and database identity,
  valid across data versions until a relation moves more than 2x; union
  evaluation with shared build sides; interpreter fallback) and
  :class:`InterpretedExecutor`.

:func:`repro.engine.evaluate.evaluate` runs the compiled engine unless the
call names another (``evaluate(..., executor="interpreted")`` or an executor
instance); engines choose theirs with ``connect(executor=...)``, the CLI's
``--executor`` flag.

>>> from repro.datalog.parser import parse_query
>>> from repro.engine.database import Database
>>> from repro.exec import CompiledExecutor
>>> db = Database.from_dict({"r": [(1, 2), (2, 3)], "s": [(2, "a"), (3, "b")]})
>>> executor = CompiledExecutor()
>>> sorted(executor.evaluate(parse_query("q(X, Z) :- r(X, Y), s(Y, Z)."), db))
[(1, 'a'), (2, 'b')]
"""

from __future__ import annotations

from typing import Union

from repro.errors import EvaluationError
from repro.exec.compile import is_compilable, order_body, try_compile
from repro.exec.executor import CompiledExecutor, InterpretedExecutor
from repro.exec.plan import HashJoinStep, PhysicalPlan
from repro.exec.stats import DatabaseStatistics, statistics_for

#: The executor names accepted everywhere an executor can be chosen.
EXECUTORS = ("compiled", "interpreted")

ExecutorLike = Union[str, CompiledExecutor, InterpretedExecutor, None]


def make_executor(name: str) -> "CompiledExecutor | InterpretedExecutor":
    """A fresh (unshared) executor instance for a name in :data:`EXECUTORS`.

    Engines use this so their plan caches are private rather
    than process-shared.  It is the one place an executor name is checked:
    an unknown name raises :class:`EvaluationError`.
    """
    if name not in EXECUTORS:
        raise EvaluationError(
            f"unknown executor {name!r}; expected one of {', '.join(EXECUTORS)}"
        )
    return CompiledExecutor() if name == "compiled" else InterpretedExecutor()


_SHARED = {name: make_executor(name) for name in EXECUTORS}


def resolve_executor(
    executor: ExecutorLike = None,
) -> "CompiledExecutor | InterpretedExecutor":
    """The process-shared instance for a name (``None`` means ``"compiled"``);
    an executor instance passes through."""
    if executor is None:
        executor = "compiled"
    if isinstance(executor, str):
        # A name outside _SHARED is unknown, and make_executor raises for it.
        return _SHARED[executor] if executor in _SHARED else make_executor(executor)
    if not hasattr(executor, "evaluate"):
        raise EvaluationError(f"not an executor: {executor!r}")
    return executor


__all__ = [
    "EXECUTORS",
    "CompiledExecutor",
    "InterpretedExecutor",
    "DatabaseStatistics",
    "HashJoinStep",
    "PhysicalPlan",
    "is_compilable",
    "make_executor",
    "order_body",
    "resolve_executor",
    "statistics_for",
    "try_compile",
]
