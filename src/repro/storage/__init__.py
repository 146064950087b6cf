"""repro.storage — WAL durability, snapshots and recovery.

The persistence subsystem under the engine facade:

* :mod:`repro.storage.wal` — the CRC-framed durable delta journal
  (``WriteAheadLog``; :func:`read_wal` reads a log file front to back, as
  ``repro replay`` does);
* :mod:`repro.storage.snapshot` — ``write_snapshot`` / ``read_snapshot``;
* the :class:`StorageManager`, which ties journal + checkpoints into
  restart-replay recovery: the newest readable snapshot plus the WAL tail.
  The engine always holds a plain :class:`~repro.engine.database.Database`.

Quickstart::

    import repro

    engine = repro.connect(views=VIEWS, data=FACTS,
                           storage="state.d", wal="always", snapshot=1000)
    engine.apply("+ cites(a, b).")       # journaled, then applied
    engine.checkpoint()                  # snapshot now
    engine.close()

    engine = repro.connect(views=VIEWS, storage="state.d")   # restart: replays
    engine.recovery_report                                   # what happened

``snapshot=`` bounds how much of the log a restart replays.  See
``docs/persistence.md`` for the WAL format, fsync policies and
recovery semantics.
"""

from __future__ import annotations

from repro.storage.manager import RecoveryResult, StorageManager
from repro.storage.wal import read_wal

__all__ = ["RecoveryResult", "StorageManager", "read_wal"]
