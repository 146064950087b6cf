"""The SQLite storage backend: persistent rows, scans pushed down to SQL.

One SQLite database file (or ``:memory:``) holds:

* ``repro_catalog`` — relation name → arity;
* ``repro_meta`` — the recovery metadata (e.g. ``applied_seq``);
* one table ``r_<name>`` per relation, one ``TEXT`` column per position,
  with a primary key over all columns (set semantics enforced by the
  engine-side ``INSERT OR IGNORE``).

Values are stored as *tagged text* so heterogeneous columns round-trip with
Python equality intact: ``s<chars>`` for strings, ``i<digits>`` for ints,
``f<repr>`` for floats, ``k<json>`` for Skolem values.  Numerics are
canonicalized before tagging — bools become ints and integral floats become
ints — so two values that compare equal in Python (``True == 1``,
``2.0 == 2``) always share one encoding; without this, a sqlite-backed
relation could hold "duplicate" rows a memory relation would deduplicate.

Scans with constant bindings become SQL ``WHERE`` clauses (the pushdown the
capability flag advertises); full scans hydrate in-memory relations.  Join
execution stays in :mod:`repro.exec`.
"""

from __future__ import annotations

import json
import re
import sqlite3
import threading
from contextlib import contextmanager
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.errors import StorageError
from repro.engine.relation import SkolemValue
from repro.storage.backend import BackendCapabilities, Row, StorageBackend

#: Relation names must be identifier-shaped; they become (quoted) table names.
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


# -- value encoding ---------------------------------------------------------------
def encode_value(value: Any) -> str:
    """One stored value as tagged text (see the module docs for the scheme)."""
    if isinstance(value, bool):
        value = int(value)
    if isinstance(value, str):
        return "s" + value
    if isinstance(value, int):
        return "i" + str(value)
    if isinstance(value, float):
        if value != value:
            raise StorageError("NaN cannot be stored (it breaks set semantics)")
        if value.is_integer():
            return "i" + str(int(value))
        return "f" + repr(value)
    if isinstance(value, SkolemValue):
        return "k" + json.dumps(_skolem_to_obj(value), separators=(",", ":"))
    raise StorageError(
        f"value {value!r} of type {type(value).__name__} cannot be stored in a "
        "sqlite backend (str, bool, int, float and SkolemValue are supported)"
    )


def decode_value(text: str) -> Any:
    tag, body = text[:1], text[1:]
    if tag == "s":
        return body
    if tag == "i":
        return int(body)
    if tag == "f":
        return float(body)
    if tag == "k":
        return _skolem_from_obj(json.loads(body))
    raise StorageError(f"unknown value tag {tag!r} in stored text {text!r}")


def _skolem_to_obj(value: SkolemValue) -> Dict[str, Any]:
    return {
        "f": value.function,
        "a": [
            _skolem_to_obj(arg) if isinstance(arg, SkolemValue) else encode_value(arg)
            for arg in value.args
        ],
    }


def _skolem_from_obj(obj: Dict[str, Any]) -> SkolemValue:
    return SkolemValue(
        obj["f"],
        tuple(
            _skolem_from_obj(arg) if isinstance(arg, dict) else decode_value(arg)
            for arg in obj["a"]
        ),
    )


class SQLiteBackend(StorageBackend):
    """A :class:`StorageBackend` over one SQLite database.

    Parameters
    ----------
    path:
        Database file path; ``None`` uses ``:memory:`` (persistence off,
        useful for differential testing and the ``REPRO_DEFAULT_BACKEND``
        CI leg).
    """

    def __init__(self, path: Optional[str] = None):
        self._path = str(path) if path is not None else None
        self._lock = threading.RLock()
        self._txn_depth = 0
        self._closed = False
        # One connection, guarded by the lock: the HTTP layer serializes
        # engine access anyway, and check_same_thread=False lets worker
        # threads reuse it under that discipline.
        self._conn = sqlite3.connect(
            self._path if self._path is not None else ":memory:",
            check_same_thread=False,
            isolation_level=None,  # autocommit; transaction() issues BEGIN itself
        )
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.execute(
            "CREATE TABLE IF NOT EXISTS repro_catalog "
            "(name TEXT PRIMARY KEY, arity INTEGER NOT NULL)"
        )
        self._conn.execute(
            "CREATE TABLE IF NOT EXISTS repro_meta (key TEXT PRIMARY KEY, value TEXT)"
        )
        self._arities: Dict[str, int] = {
            name: arity
            for name, arity in self._conn.execute(
                "SELECT name, arity FROM repro_catalog"
            )
        }

    # -- lifecycle ---------------------------------------------------------------
    def close(self) -> None:
        with self._lock:
            if not self._closed:
                self._closed = True
                self._conn.close()

    def _check_open(self) -> None:
        if self._closed:
            raise StorageError("this sqlite backend is closed")

    @property
    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            name="sqlite",
            persistent=self._path is not None,
            durable=self._path is not None,
            filter_pushdown=True,
        )

    # -- SQL helpers -------------------------------------------------------------
    @staticmethod
    def _table(name: str) -> str:
        if not _NAME_RE.match(name):
            raise StorageError(
                f"relation name {name!r} is not storable in a sqlite backend "
                "(identifier-shaped names only)"
            )
        return f'"r_{name}"'

    @staticmethod
    def _column_names(arity: int) -> List[str]:
        # Arity-0 (boolean) relations get one marker column holding ''.
        return [f"c{i}" for i in range(max(arity, 1))]

    # -- catalog -----------------------------------------------------------------
    def relation_names(self) -> Tuple[str, ...]:
        return tuple(self._arities)

    def arity(self, name: str) -> int:
        arity = self._arities.get(name)
        if arity is None:
            raise StorageError(f"unknown relation {name!r}")
        return arity

    def create_relation(self, name: str, arity: int) -> None:
        self._check_open()
        with self._lock:
            existing = self._arities.get(name)
            if existing is not None:
                if existing != arity:
                    raise StorageError(
                        f"relation {name!r} exists with arity {existing}, "
                        f"requested {arity}"
                    )
                return
            columns = self._column_names(arity)
            spec = ", ".join(f"{c} TEXT NOT NULL" for c in columns)
            keys = ", ".join(columns)
            self._conn.execute(
                f"CREATE TABLE IF NOT EXISTS {self._table(name)} "
                f"({spec}, PRIMARY KEY ({keys})) WITHOUT ROWID"
            )
            self._conn.execute(
                "INSERT OR REPLACE INTO repro_catalog (name, arity) VALUES (?, ?)",
                (name, arity),
            )
            self._arities[name] = arity

    def drop_relation(self, name: str) -> None:
        self._check_open()
        with self._lock:
            if self._arities.pop(name, None) is None:
                return
            self._conn.execute(f"DROP TABLE IF EXISTS {self._table(name)}")
            self._conn.execute("DELETE FROM repro_catalog WHERE name = ?", (name,))

    # -- rows --------------------------------------------------------------------
    def scan(
        self, name: str, bindings: Optional[Mapping[int, Any]] = None
    ) -> Iterator[Row]:
        self._check_open()
        with self._lock:
            arity = self._arities.get(name)
            if arity is None:
                return iter(())
            columns = self._column_names(arity)
            sql = f"SELECT {', '.join(columns)} FROM {self._table(name)}"
            params: List[str] = []
            if bindings:
                clauses = []
                for position, value in sorted(bindings.items()):
                    if not 0 <= position < arity:
                        raise StorageError(
                            f"binding position {position} out of range for "
                            f"{name!r}/{arity}"
                        )
                    clauses.append(f"c{position} = ?")
                    params.append(encode_value(value))
                sql += " WHERE " + " AND ".join(clauses)
            raw = self._conn.execute(sql, params).fetchall()
        if arity == 0:
            return iter([()] * len(raw))
        return (tuple(decode_value(text) for text in row) for row in raw)

    def _encode_row(self, name: str, arity: int, row: Sequence[Any]) -> Tuple[str, ...]:
        values = tuple(row)
        if len(values) != arity:
            raise StorageError(
                f"row of arity {len(values)} for relation {name!r}/{arity}"
            )
        if arity == 0:
            return ("",)
        return tuple(encode_value(value) for value in values)

    def insert(self, name: str, arity: int, rows: Iterable[Sequence[Any]]) -> int:
        self._check_open()
        with self._lock:
            self.create_relation(name, arity)
            columns = self._column_names(arity)
            sql = (
                f"INSERT OR IGNORE INTO {self._table(name)} "
                f"({', '.join(columns)}) VALUES ({', '.join('?' for _ in columns)})"
            )
            before = self._conn.total_changes
            self._conn.executemany(
                sql, (self._encode_row(name, arity, row) for row in rows)
            )
            return self._conn.total_changes - before

    def delete(self, name: str, rows: Iterable[Sequence[Any]]) -> int:
        self._check_open()
        with self._lock:
            arity = self._arities.get(name)
            if arity is None:
                raise StorageError(f"unknown relation {name!r}")
            columns = self._column_names(arity)
            sql = (
                f"DELETE FROM {self._table(name)} WHERE "
                + " AND ".join(f"{c} = ?" for c in columns)
            )
            before = self._conn.total_changes
            self._conn.executemany(
                sql, (self._encode_row(name, arity, row) for row in rows)
            )
            return self._conn.total_changes - before

    def count(self, name: str) -> int:
        self._check_open()
        with self._lock:
            if name not in self._arities:
                return 0
            (count,) = self._conn.execute(
                f"SELECT COUNT(*) FROM {self._table(name)}"
            ).fetchone()
            return int(count)

    # -- metadata ----------------------------------------------------------------
    def get_meta(self, key: str) -> Optional[str]:
        self._check_open()
        with self._lock:
            row = self._conn.execute(
                "SELECT value FROM repro_meta WHERE key = ?", (key,)
            ).fetchone()
            return row[0] if row is not None else None

    def set_meta(self, key: str, value: str) -> None:
        self._check_open()
        with self._lock:
            self._conn.execute(
                "INSERT OR REPLACE INTO repro_meta (key, value) VALUES (?, ?)",
                (key, str(value)),
            )

    # -- grouping ----------------------------------------------------------------
    @contextmanager
    def transaction(self) -> Iterator[None]:
        """One SQLite transaction; nested calls join the outermost one."""
        self._check_open()
        with self._lock:
            if self._txn_depth == 0:
                self._conn.execute("BEGIN IMMEDIATE")
            self._txn_depth += 1
            try:
                yield
            except BaseException:
                self._txn_depth -= 1
                if self._txn_depth == 0:
                    self._conn.execute("ROLLBACK")
                raise
            else:
                self._txn_depth -= 1
                if self._txn_depth == 0:
                    self._conn.execute("COMMIT")

    # -- introspection -----------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        stats = super().stats()
        stats["path"] = self._path or ":memory:"
        return stats
