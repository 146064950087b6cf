"""repro.storage — pluggable persistent backends, WAL durability, recovery.

The persistence subsystem under the engine facade:

* :class:`StorageBackend` / :class:`BackendCapabilities` — the row-store
  protocol (:class:`MemoryBackend` is the reference implementation,
  :class:`~repro.storage.sqlite.SQLiteBackend` the persistent adapter);
* :class:`BackedDatabase` — a :class:`~repro.engine.database.Database`
  write-through mirrored onto a backend, with lazy hydration and scan
  pushdown;
* :class:`WriteAheadLog` — the CRC-framed durable delta journal;
* snapshots (:func:`write_snapshot` / :func:`read_snapshot`) and the
  :class:`StorageManager` that ties journal + checkpoints + backend into
  restart-replay recovery.

Quickstart::

    import repro

    engine = repro.connect(views=VIEWS, data=FACTS,
                           storage="state.d", wal="always", snapshot=1000)
    engine.apply("+ cites(a, b).")       # journaled, then applied
    engine.checkpoint()                  # snapshot now
    engine.close()

    engine = repro.connect(views=VIEWS, storage="state.d")   # restart: replays
    engine.recovery_report                                   # what happened

The backend for plain (non-durable) engines is selected by ``backend=`` on
:func:`repro.connect` or the ``REPRO_DEFAULT_BACKEND`` environment variable
(``memory`` — the default in-memory row store — or ``sqlite``).  See
``docs/persistence.md`` for the WAL format, fsync policies and recovery
semantics.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.errors import StorageError
from repro.storage.backed import BackedDatabase
from repro.storage.backend import (
    BackendCapabilities,
    MemoryBackend,
    Row,
    StorageBackend,
)
from repro.storage.manager import RecoveryResult, StorageManager
from repro.storage.snapshot import (
    Snapshot,
    latest_snapshot,
    list_snapshots,
    read_snapshot,
    write_snapshot,
)
from repro.storage.wal import (
    FSYNC_POLICIES,
    WalRecord,
    WalReplayReport,
    WriteAheadLog,
    read_wal,
)

#: Registered backend names, in documentation order.
BACKENDS = ("memory", "sqlite")

#: Environment variable selecting the default backend for plain engines.
DEFAULT_BACKEND_ENV = "REPRO_DEFAULT_BACKEND"


def default_backend_name() -> str:
    """The backend ``repro.connect`` uses when none is requested explicitly.

    Reads :data:`DEFAULT_BACKEND_ENV`; unset or empty means ``"memory"``.
    An unknown name raises :class:`~repro.errors.StorageError` (loudly, at
    connect time — not deep inside a query).
    """
    name = os.environ.get(DEFAULT_BACKEND_ENV, "").strip().lower()
    if not name:
        return "memory"
    if name not in BACKENDS:
        raise StorageError(
            f"{DEFAULT_BACKEND_ENV}={name!r} is not a registered backend; "
            f"choose from {', '.join(BACKENDS)}"
        )
    return name


def make_backend(name: str, path: Optional[str] = None) -> StorageBackend:
    """Instantiate a registered backend by name."""
    if name == "memory":
        return MemoryBackend()
    if name == "sqlite":
        from repro.storage.sqlite import SQLiteBackend

        return SQLiteBackend(path)
    raise StorageError(
        f"unknown storage backend {name!r}; choose from {', '.join(BACKENDS)}"
    )


__all__ = [
    "BACKENDS",
    "BackedDatabase",
    "BackendCapabilities",
    "DEFAULT_BACKEND_ENV",
    "FSYNC_POLICIES",
    "MemoryBackend",
    "RecoveryResult",
    "Row",
    "Snapshot",
    "StorageBackend",
    "StorageManager",
    "WalRecord",
    "WalReplayReport",
    "WriteAheadLog",
    "default_backend_name",
    "latest_snapshot",
    "list_snapshots",
    "make_backend",
    "read_snapshot",
    "read_wal",
    "write_snapshot",
]
