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

:func:`repro.engine.evaluate.evaluate` routes through the **default
executor**, which is the compiled engine unless a caller opts out; flip it
globally with :func:`set_default_executor` (the CLI's ``--executor`` flag),
per process with the ``REPRO_DEFAULT_EXECUTOR`` environment variable (read
at import and on every reset; an unknown name is an error), or per call via
``evaluate(..., executor=...)``.

>>> from repro.datalog.parser import parse_query
>>> from repro.engine.database import Database
>>> from repro.exec import CompiledExecutor
>>> db = Database.from_dict({"r": [(1, 2), (2, 3)], "s": [(2, "a"), (3, "b")]})
>>> executor = CompiledExecutor()
>>> sorted(executor.evaluate(parse_query("q(X, Z) :- r(X, Y), s(Y, Z)."), db))
[(1, 'a'), (2, 'b')]
"""

from __future__ import annotations

import os
from typing import Union

from repro.errors import EvaluationError
from repro.exec.compile import is_compilable, order_body, try_compile
from repro.exec.executor import CompiledExecutor, InterpretedExecutor
from repro.exec.plan import HashJoinStep, PhysicalPlan
from repro.exec.stats import DatabaseStatistics, statistics_for

#: The executor names accepted everywhere an executor can be chosen.
EXECUTORS = ("compiled", "interpreted")

#: Environment variable naming the process-wide default executor.
DEFAULT_EXECUTOR_ENV = "REPRO_DEFAULT_EXECUTOR"

ExecutorLike = Union[str, CompiledExecutor, InterpretedExecutor, None]

_SHARED_COMPILED = CompiledExecutor()
_SHARED_INTERPRETED = InterpretedExecutor()


def _configured_default() -> str:
    """The baseline default: the env override when set, else compiled.

    An unset or empty override means compiled; any other name must be one of
    :data:`EXECUTORS` (:class:`EvaluationError` otherwise).
    """
    env = os.environ.get(DEFAULT_EXECUTOR_ENV, "").strip().lower()
    return _validate(env) if env else "compiled"


def set_default_executor(executor: ExecutorLike) -> None:
    """Set the executor :func:`repro.engine.evaluate.evaluate` uses by default.

    Accepts ``"compiled"``, ``"interpreted"``, or an executor instance.
    ``None`` resets to the configured default (the ``REPRO_DEFAULT_EXECUTOR``
    environment override when set, otherwise ``"compiled"``).
    """
    global _DEFAULT
    _DEFAULT = _validate(executor if executor is not None else _configured_default())


def get_default_executor() -> "CompiledExecutor | InterpretedExecutor":
    """The currently configured default executor instance."""
    return resolve_executor(None)


def default_executor_name() -> str:
    """The name of the currently configured default executor."""
    default = _DEFAULT
    return default if isinstance(default, str) else default.name


def make_executor(name: str) -> "CompiledExecutor | InterpretedExecutor":
    """A fresh (unshared) executor instance for a validated name.

    Session-style owners use this so their plan caches are private rather
    than process-shared.
    """
    _validate(name)
    if name == "compiled":
        return CompiledExecutor()
    return InterpretedExecutor()


def resolve_executor(
    executor: ExecutorLike,
) -> "CompiledExecutor | InterpretedExecutor":
    """Resolve a name / instance / None (= the configured default)."""
    if executor is None:
        executor = _DEFAULT
    executor = _validate(executor)
    if executor == "compiled":
        return _SHARED_COMPILED
    if executor == "interpreted":
        return _SHARED_INTERPRETED
    return executor


def _validate(executor: ExecutorLike):
    if isinstance(executor, str):
        if executor not in EXECUTORS:
            raise EvaluationError(
                f"unknown executor {executor!r}; expected one of {', '.join(EXECUTORS)}"
            )
        return executor
    if hasattr(executor, "evaluate"):
        return executor
    raise EvaluationError(f"not an executor: {executor!r}")


_DEFAULT: "str | CompiledExecutor | InterpretedExecutor" = _configured_default()


__all__ = [
    "DEFAULT_EXECUTOR_ENV",
    "EXECUTORS",
    "CompiledExecutor",
    "InterpretedExecutor",
    "DatabaseStatistics",
    "HashJoinStep",
    "PhysicalPlan",
    "default_executor_name",
    "get_default_executor",
    "is_compilable",
    "make_executor",
    "order_body",
    "resolve_executor",
    "set_default_executor",
    "statistics_for",
    "try_compile",
]
