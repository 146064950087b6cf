"""A :class:`Database` whose rows live in (and write through to) a backend.

:class:`BackedDatabase` keeps the engine's world unchanged — every consumer
sees a normal :class:`~repro.engine.database.Database` of in-memory
:class:`~repro.engine.relation.Relation` objects — while delegating physical
storage to a :class:`~repro.storage.backend.StorageBackend`:

* **Write-through.**  Every mutation that goes through the database
  (``add_fact`` / ``remove_fact`` / ``apply_delta`` / relation DDL) is
  mirrored to the backend; ``apply_delta`` batches inside one backend
  transaction.  Mutating a :class:`Relation` object directly bypasses the
  backend exactly as it bypasses the version counter — the long-standing
  caveat on :meth:`Database.ensure_relation` extends to durability.
* **Lazy hydration.**  Relations start *cold*: the catalog (names and
  arities) is loaded at construction, rows are pulled from the backend on
  the first in-memory read of each relation.  Hydration happens before any
  content is observable, so it never moves the version counter and never
  invalidates a cache.
* **Scan pushdown.**  :meth:`storage_scan` serves full and
  constant-filtered scans of *cold* relations straight from the backend —
  the executors' single-atom fast path uses it to answer point queries on a
  million-row relation without hydrating it.  Hot relations are always
  served from the in-memory row store (it is strictly faster).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from repro.errors import StorageError
from repro.datalog.atoms import Atom
from repro.engine.database import Database
from repro.engine.relation import Relation
from repro.storage.backend import Row, StorageBackend


class BackedDatabase(Database):
    """A database write-through mirrored onto a storage backend."""

    def __init__(self, backend: StorageBackend):
        super().__init__()
        self._backend = backend
        #: Relation names whose rows have not been loaded from the backend.
        self._cold: Set[str] = set()
        #: How many relations have been hydrated (for stats).
        self.hydrations = 0
        for name in backend.relation_names():
            self._relations[name] = Relation(name, backend.arity(name))
            self._cold.add(name)

    @property
    def backend(self) -> StorageBackend:
        return self._backend

    @classmethod
    def from_database(
        cls, database: Database, backend: StorageBackend
    ) -> "BackedDatabase":
        """Load a plain database's rows into ``backend`` and wrap them.

        The source database is copied, not adopted: later mutations of the
        original object are not seen by the backed database (or the backend).
        """
        backed = cls(backend)
        with backend.transaction():
            for relation in database:
                backed.add_relation(relation)
        return backed

    # -- hydration ---------------------------------------------------------------
    def _hydrate(self, name: str) -> None:
        if name not in self._cold:
            return
        self._cold.discard(name)
        relation = self._relations[name]
        for row in self._backend.scan(name):
            relation.add(row)
        self.hydrations += 1

    def _hydrate_all(self) -> None:
        for name in tuple(self._cold):
            self._hydrate(name)

    def is_hydrated(self, name: str) -> bool:
        """Whether a relation's rows are resident in the in-memory row store."""
        return name in self._relations and name not in self._cold

    # -- pushdown ----------------------------------------------------------------
    def storage_scan(
        self, name: str, bindings: Optional[Mapping[int, Any]] = None
    ) -> Optional[Iterable[Row]]:
        """Rows straight from the backend, or None when memory should serve.

        Only cold relations of a filter-pushdown-capable backend are served
        here; for hot relations (and backends without pushdown) the caller
        should use the hydrated in-memory relation — its hash indexes beat a
        backend round trip.
        """
        if name in self._cold and self._backend.capabilities.filter_pushdown:
            return self._backend.scan(name, bindings)
        return None

    # -- mutation (write-through) ------------------------------------------------
    def add_fact(self, relation_name: str, row: Sequence[Any]) -> bool:
        values = tuple(row)
        if relation_name in self._relations:
            self._hydrate(relation_name)
        else:
            self._backend.create_relation(relation_name, len(values))
        added = super().add_fact(relation_name, values)
        if added:
            self._backend.insert(relation_name, len(values), [values])
        return added

    def remove_fact(self, relation_name: str, row: Sequence[Any]) -> bool:
        if relation_name not in self._relations:
            return False
        self._hydrate(relation_name)
        removed = super().remove_fact(relation_name, row)
        if removed:
            self._backend.delete(relation_name, [tuple(row)])
        return removed

    def apply_delta(self, delta: Any) -> Any:
        for name in delta.predicates():
            if name in self._relations:
                self._hydrate(name)
        with self._backend.transaction():
            return super().apply_delta(delta)

    def add_relation(self, relation: Relation) -> None:
        with self._backend.transaction():
            if relation.name in self._backend.relation_names():
                self._backend.drop_relation(relation.name)
            self._backend.create_relation(relation.name, relation.arity)
            self._backend.insert(relation.name, relation.arity, relation.tuples())
        self._cold.discard(relation.name)
        super().add_relation(relation)

    def ensure_relation(self, name: str, arity: int) -> Relation:
        if name in self._relations:
            self._hydrate(name)
        else:
            self._backend.create_relation(name, arity)
        return super().ensure_relation(name, arity)

    def remove_relation(self, name: str) -> None:
        self._backend.drop_relation(name)
        self._cold.discard(name)
        super().remove_relation(name)

    # -- reads (hydrate first) ---------------------------------------------------
    def relation(self, name: str) -> Optional[Relation]:
        if name in self._relations:
            self._hydrate(name)
        return super().relation(name)

    def tuples(self, name: str) -> frozenset:
        if name in self._relations:
            self._hydrate(name)
        return super().tuples(name)

    def relations(self) -> Tuple[Relation, ...]:
        self._hydrate_all()
        return super().relations()

    def __iter__(self) -> Iterator[Relation]:
        self._hydrate_all()
        return super().__iter__()

    def __eq__(self, other: object) -> bool:
        self._hydrate_all()
        return super().__eq__(other)

    __hash__ = None  # type: ignore[assignment] - same as the base class

    def size(self) -> int:
        # Cold relations are counted in the backend (SQL COUNT) rather than
        # hydrated — stats on a million-row extent stay cheap.
        return sum(
            self._backend.count(name) if name in self._cold else len(relation)
            for name, relation in self._relations.items()
        )

    def copy(self) -> Database:
        """A detached plain-memory copy (not write-through)."""
        self._hydrate_all()
        return Database(self._relations.values())

    def merge(self, other: Database) -> Database:
        self._hydrate_all()
        return super().merge(other)

    def facts(self) -> List[Atom]:
        self._hydrate_all()
        return super().facts()

    def active_domain(self) -> Set[Any]:
        self._hydrate_all()
        return super().active_domain()

    def restrict(self, names: Iterable[str]) -> Database:
        self._hydrate_all()
        return super().restrict(names)

    def rename_relation(self, old: str, new: str) -> Database:
        self._hydrate_all()
        return super().rename_relation(old, new)

    # -- introspection -----------------------------------------------------------
    def storage_stats(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {}
        for name, relation in self._relations.items():
            if name in self._cold:
                out[name] = {
                    "rows": self._backend.count(name),
                    "hydrated": False,
                }
            else:
                stats = relation.storage_stats()
                stats["hydrated"] = True
                out[name] = stats
        return out

    def __repr__(self) -> str:
        cold = len(self._cold)
        return (
            f"BackedDatabase({self._backend.capabilities.name}, "
            f"relations={len(self._relations)}, cold={cold})"
        )

