"""The :class:`StorageBackend` protocol and the in-memory reference backend.

A storage backend is a plain *row store*: named relations of fixed arity,
set-semantics insert/delete, full scans and (optionally pushed-down)
constant-filtered scans, plus a tiny key/value metadata table the recovery
machinery uses to record how far the write-ahead log has been applied.  Join
execution never happens here — :mod:`repro.exec` owns that; a backend's job
is to hold rows durably and to serve scans.

:class:`MemoryBackend` is the reference implementation (dict-of-sets, no
durability); :class:`repro.storage.sqlite.SQLiteBackend` is the persistent
adapter.  :class:`repro.storage.backed.BackedDatabase` sits on top of either
and keeps the in-memory :class:`~repro.engine.relation.Relation` world in sync
with the backend write-through.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, Mapping, Optional, Sequence, Set, Tuple

from repro.errors import StorageError

Row = Tuple[Any, ...]


@dataclass(frozen=True)
class BackendCapabilities:
    """What a backend can promise; read by the engine and surfaced in stats.

    Attributes
    ----------
    name:
        The registry name (``"memory"`` / ``"sqlite"``).
    persistent:
        Whether rows survive process restart (the backend has a file).
    durable:
        Whether committed writes survive ``kill -9`` (the backend syncs).
    filter_pushdown:
        Whether constant-filtered scans are evaluated *inside* the backend
        (e.g. a SQL ``WHERE``) rather than filtered in Python by the caller.
    """

    name: str
    persistent: bool
    durable: bool
    filter_pushdown: bool

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "persistent": self.persistent,
            "durable": self.durable,
            "filter_pushdown": self.filter_pushdown,
        }


class StorageBackend(ABC):
    """Abstract row store behind a :class:`~repro.storage.backed.BackedDatabase`.

    Implementations must be usable immediately after construction (no
    separate ``open()`` step) and must tolerate :meth:`close` being called
    more than once.  Scans of unknown relations yield nothing; mutations of
    unknown relations raise :class:`~repro.errors.StorageError`.
    """

    # -- lifecycle ---------------------------------------------------------------
    @abstractmethod
    def close(self) -> None:
        """Release resources; further mutations raise :class:`StorageError`."""

    @property
    @abstractmethod
    def capabilities(self) -> BackendCapabilities:
        """The backend's capability flags (see :class:`BackendCapabilities`)."""

    # -- catalog -----------------------------------------------------------------
    @abstractmethod
    def relation_names(self) -> Tuple[str, ...]:
        """The names of every stored relation."""

    @abstractmethod
    def arity(self, name: str) -> int:
        """The arity of one relation; raises for unknown names."""

    @abstractmethod
    def create_relation(self, name: str, arity: int) -> None:
        """Create a relation (idempotent; an arity conflict raises)."""

    @abstractmethod
    def drop_relation(self, name: str) -> None:
        """Drop a relation and its rows (missing names are a no-op)."""

    # -- rows --------------------------------------------------------------------
    @abstractmethod
    def scan(
        self, name: str, bindings: Optional[Mapping[int, Any]] = None
    ) -> Iterator[Row]:
        """Yield the rows of a relation, optionally equality-filtered.

        ``bindings`` maps column positions to required values; a backend
        with ``filter_pushdown`` evaluates them internally, others may
        filter in Python.  Unknown relations yield nothing.
        """

    @abstractmethod
    def insert(self, name: str, arity: int, rows: Iterable[Sequence[Any]]) -> int:
        """Insert rows (set semantics); returns how many were actually new."""

    @abstractmethod
    def delete(self, name: str, rows: Iterable[Sequence[Any]]) -> int:
        """Delete rows; returns how many were actually present."""

    @abstractmethod
    def count(self, name: str) -> int:
        """The number of rows in one relation (0 for unknown names)."""

    # -- metadata ----------------------------------------------------------------
    @abstractmethod
    def get_meta(self, key: str) -> Optional[str]:
        """Read one metadata value (None when unset)."""

    @abstractmethod
    def set_meta(self, key: str, value: str) -> None:
        """Write one metadata value (overwrites)."""

    # -- grouping ----------------------------------------------------------------
    @contextmanager
    def transaction(self) -> Iterator[None]:
        """Group mutations atomically where the backend supports it.

        The default implementation is a no-op grouping (memory semantics);
        transactional backends override it.  Nested use must be safe.
        """
        yield

    # -- introspection -----------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Sizing information for observability snapshots."""
        return {
            "backend": self.capabilities.name,
            "relations": {name: self.count(name) for name in self.relation_names()},
        }


class MemoryBackend(StorageBackend):
    """The reference backend: plain dict-of-sets, process-lifetime only.

    Exists so the protocol has a trivially correct implementation to test
    adapters against, and so a :class:`BackedDatabase` can be exercised
    without SQLite.  The default engine path does not use it — a plain
    :class:`~repro.engine.database.Database` *is* the memory backend, with
    the in-memory row store as its physical layout.
    """

    CAPABILITIES = BackendCapabilities(
        name="memory", persistent=False, durable=False, filter_pushdown=False
    )

    def __init__(self) -> None:
        self._relations: Dict[str, Tuple[int, Set[Row]]] = {}
        self._meta: Dict[str, str] = {}
        self._closed = False

    # -- lifecycle ---------------------------------------------------------------
    def close(self) -> None:
        self._closed = True

    def _check_open(self) -> None:
        if self._closed:
            raise StorageError("this memory backend is closed")

    @property
    def capabilities(self) -> BackendCapabilities:
        return self.CAPABILITIES

    # -- catalog -----------------------------------------------------------------
    def relation_names(self) -> Tuple[str, ...]:
        return tuple(self._relations)

    def arity(self, name: str) -> int:
        entry = self._relations.get(name)
        if entry is None:
            raise StorageError(f"unknown relation {name!r}")
        return entry[0]

    def create_relation(self, name: str, arity: int) -> None:
        self._check_open()
        entry = self._relations.get(name)
        if entry is None:
            self._relations[name] = (arity, set())
        elif entry[0] != arity:
            raise StorageError(
                f"relation {name!r} exists with arity {entry[0]}, requested {arity}"
            )

    def drop_relation(self, name: str) -> None:
        self._check_open()
        self._relations.pop(name, None)

    # -- rows --------------------------------------------------------------------
    def scan(
        self, name: str, bindings: Optional[Mapping[int, Any]] = None
    ) -> Iterator[Row]:
        entry = self._relations.get(name)
        if entry is None:
            return iter(())
        rows: Iterable[Row] = entry[1]
        if bindings:
            wanted = tuple(bindings.items())
            rows = (
                row for row in rows if all(row[pos] == value for pos, value in wanted)
            )
        return iter(tuple(rows))

    def insert(self, name: str, arity: int, rows: Iterable[Sequence[Any]]) -> int:
        self._check_open()
        self.create_relation(name, arity)
        stored = self._relations[name][1]
        added = 0
        for row in rows:
            values = tuple(row)
            if len(values) != arity:
                raise StorageError(
                    f"row of arity {len(values)} for relation {name!r}/{arity}"
                )
            if values not in stored:
                stored.add(values)
                added += 1
        return added

    def delete(self, name: str, rows: Iterable[Sequence[Any]]) -> int:
        self._check_open()
        entry = self._relations.get(name)
        if entry is None:
            raise StorageError(f"unknown relation {name!r}")
        stored = entry[1]
        removed = 0
        for row in rows:
            values = tuple(row)
            if values in stored:
                stored.discard(values)
                removed += 1
        return removed

    def count(self, name: str) -> int:
        entry = self._relations.get(name)
        return len(entry[1]) if entry is not None else 0

    # -- metadata ----------------------------------------------------------------
    def get_meta(self, key: str) -> Optional[str]:
        return self._meta.get(key)

    def set_meta(self, key: str, value: str) -> None:
        self._check_open()
        self._meta[key] = str(value)
