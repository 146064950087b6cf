"""repro.storage — WAL durability, snapshots and recovery.

The persistence subsystem under the engine facade:

* :class:`WriteAheadLog` — the CRC-framed durable delta journal;
* snapshots (:func:`write_snapshot` / :func:`read_snapshot`);
* the :class:`StorageManager`, which ties journal + checkpoints + base
  store into restart-replay recovery.  It is the only code that knows where
  base rows persist between restarts: a snapshot (the ``memory`` backend)
  or a SQLite file it writes each applied delta to (the ``sqlite``
  backend, :class:`~repro.storage.sqlite.SQLiteBackend`).  The engine
  always holds a plain :class:`~repro.engine.database.Database`.

Quickstart::

    import repro

    engine = repro.connect(views=VIEWS, data=FACTS,
                           storage="state.d", wal="always", snapshot=1000)
    engine.apply("+ cites(a, b).")       # journaled, then applied
    engine.checkpoint()                  # snapshot now
    engine.close()

    engine = repro.connect(views=VIEWS, storage="state.d")   # restart: replays
    engine.recovery_report                                   # what happened

``backend=`` on :func:`repro.connect` picks the backend of a fresh storage
directory (``memory`` when omitted); a directory holding state keeps its
own.  See ``docs/persistence.md`` for the WAL format, fsync policies and
recovery semantics.
"""

from __future__ import annotations

from repro.storage.manager import BACKENDS, RecoveryResult, StorageManager
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

__all__ = [
    "BACKENDS",
    "FSYNC_POLICIES",
    "RecoveryResult",
    "Snapshot",
    "StorageManager",
    "WalRecord",
    "WalReplayReport",
    "WriteAheadLog",
    "latest_snapshot",
    "list_snapshots",
    "read_snapshot",
    "read_wal",
    "write_snapshot",
]
