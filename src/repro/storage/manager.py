"""The :class:`StorageManager`: one durable directory = WAL + snapshots.

Directory layout::

    <dir>/wal.log                  the write-ahead delta log
    <dir>/snapshot-<seq>.snap      checkpoints (latest kept, older pruned)

The engine always holds a plain :class:`~repro.engine.database.Database`;
the manager journals its deltas and checkpoints its image.  Recovery has one
rule: the newest readable snapshot (``base_seq`` = its WAL sequence number,
0 when none exists: full replay from an empty database) plus the WAL tail
``seq > base_seq``.  ``snapshot=`` on :func:`repro.connect` bounds the tail.

Deltas are idempotent under set semantics, so at-least-once replay of the
tail is safe across every crash window (journaled-but-unapplied,
applied-but-unmarked, marked-but-unsnapshotted).  Unreadable snapshots are
skipped oldest-ward and the log replays from further back — corruption
degrades recovery time, never correctness.

A directory holding ``data.sqlite``, the base store of repro 2.x's removed
SQLite backend, is refused before anything is written to it.

The *durable apply* protocol (driven by ``Engine.apply``) is::

    seq = manager.journal(delta)         # WAL first
    <maintain the views>                 # then the engine
    manager.mark_applied(seq)            # then the watermark
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.errors import SnapshotError, StorageError
from repro.engine.database import Database
from repro.storage.snapshot import (
    Snapshot,
    list_snapshots,
    read_snapshot,
    write_snapshot,
)
from repro.storage.wal import WalRecord, WriteAheadLog

WAL_FILENAME = "wal.log"


@dataclass
class RecoveryResult:
    """Everything :meth:`StorageManager.recover` reconstructed."""

    database: Database
    #: Exported view-store state usable as-of ``base_seq``, or None.
    store_state: Optional[Dict[str, Any]]
    #: WAL records with ``seq > base_seq``, to be replayed through the engine.
    tail: List[WalRecord]
    base_seq: int
    report: Dict[str, Any] = field(default_factory=dict)


class StorageManager:
    """Owns one durable directory: journal, checkpoint, recover.

    Parameters
    ----------
    directory:
        The storage directory (created when absent).
    backend:
        Only None or ``"memory"``, the one format; any other value raises
        :class:`~repro.errors.StorageError`.  The keyword is kept only for
        the layer benchmark (``benchmarks/e2e/layers.py``), which passes
        ``"memory"``.
    fsync:
        The WAL fsync policy (``always`` / ``batch`` / ``none``).
    """

    def __init__(
        self,
        directory: str,
        backend: Optional[str] = None,
        fsync: str = "batch",
    ):
        if backend not in (None, "memory"):
            raise StorageError(
                f"unknown storage backend {backend!r}: a durable directory "
                "holds snapshots plus a write-ahead log, and takes no backend"
            )
        self._directory = str(directory)
        legacy = os.path.join(self._directory, "data.sqlite")
        if os.path.exists(legacy):
            raise StorageError(
                f"storage directory {self._directory!r} holds {legacy!r}, the "
                "base store of repro 2.x's removed SQLite backend; export its "
                "facts with 2.x's `repro restore --storage DIR --output FACTS`, "
                "then load them into a fresh directory (`--database FACTS "
                "--storage NEW`)"
            )
        existing = list_snapshots(self._directory)
        self._closed = False
        os.makedirs(self._directory, exist_ok=True)
        # Observability hooks are late-bound (bind_metrics) because the
        # engine creates its Instrumentation after the manager exists.
        self._append_hook: Optional[Callable[[float, int], None]] = None
        self._fsync_hook: Optional[Callable[[float], None]] = None
        self._wal = WriteAheadLog(
            os.path.join(self._directory, WAL_FILENAME),
            fsync=fsync,
            on_append=self._on_append,
            on_fsync=self._on_fsync,
        )
        self._applied_seq = 0
        self._checkpoints = 0
        self._last_snapshot_seq: Optional[int] = None
        self._last_snapshot_bytes = 0
        if existing:
            self._last_snapshot_seq = existing[0][0]
            self._last_snapshot_bytes = os.path.getsize(existing[0][1])

    # -- observability -----------------------------------------------------------
    def _on_append(self, seconds: float, nbytes: float) -> None:
        if self._append_hook is not None:
            self._append_hook(seconds, nbytes)

    def _on_fsync(self, seconds: float) -> None:
        if self._fsync_hook is not None:
            self._fsync_hook(seconds)

    def bind_metrics(self, instrumentation: Any) -> None:
        """Register WAL/snapshot series on an :class:`Instrumentation` bundle."""
        registry = instrumentation.registry
        append_seconds = registry.histogram(
            "repro_wal_append_seconds", "Latency of one WAL record append."
        )
        fsync_seconds = registry.histogram(
            "repro_wal_fsync_seconds", "Latency of one WAL fsync."
        )
        append_bytes = registry.counter(
            "repro_wal_bytes_total", "Payload bytes appended to the WAL."
        )
        self._snapshot_bytes_gauge = registry.gauge(
            "repro_snapshot_bytes", "Size of the newest snapshot, in bytes."
        )
        self._replay_counter = registry.counter(
            "repro_wal_replayed_records_total",
            "WAL records replayed during recovery.",
        )
        if self._last_snapshot_bytes:
            self._snapshot_bytes_gauge.set(self._last_snapshot_bytes)

        def on_append(seconds: float, nbytes: int) -> None:
            append_seconds.observe(seconds)
            append_bytes.inc(nbytes)

        self._append_hook = on_append
        self._fsync_hook = fsync_seconds.observe

    # -- properties --------------------------------------------------------------
    @property
    def directory(self) -> str:
        return self._directory

    @property
    def wal(self) -> WriteAheadLog:
        return self._wal

    @property
    def last_seq(self) -> int:
        return self._wal.last_seq

    @property
    def applied_seq(self) -> int:
        return self._applied_seq

    @property
    def has_state(self) -> bool:
        """Whether the directory holds WAL records or a snapshot — state to
        recover, which fresh data must not overwrite."""
        return bool(self.last_seq or self._last_snapshot_seq is not None)

    # -- recovery ----------------------------------------------------------------
    def recover(self) -> RecoveryResult:
        """Rebuild base state + WAL tail from the directory (see module docs)."""
        skipped: List[Dict[str, str]] = []
        snapshot: Optional[Snapshot] = None
        for seq, path in list_snapshots(self._directory):
            try:
                snapshot = read_snapshot(path)
                break
            except SnapshotError as exc:
                skipped.append({"path": path, "error": str(exc)})
        if snapshot is None and skipped:
            # The base *is* the snapshot: opening without one would silently
            # drop every fact the WAL no longer holds.
            raise SnapshotError(
                "no snapshot in storage directory "
                f"{self._directory!r} is readable: "
                + "; ".join(entry["error"] for entry in skipped)
                + " (delete the unreadable snapshots to recover by full WAL replay)"
            )
        database = Database()
        base_seq = 0
        store_state: Optional[Dict[str, Any]] = None
        if snapshot is not None:
            for name, (arity, rows) in snapshot.relations.items():
                database.ensure_relation(name, arity).add_all(rows)
            base_seq, store_state = snapshot.seq, snapshot.store_state

        tail, wal_report = self._wal.replay(after_seq=base_seq)
        self._applied_seq = base_seq
        if getattr(self, "_replay_counter", None) is not None:
            self._replay_counter.inc(len(tail))
        report = {
            "base_seq": base_seq,
            "snapshot": None
            if snapshot is None
            else {"path": snapshot.path, "seq": snapshot.seq},
            "snapshots_skipped": skipped,
            "store_state_used": store_state is not None,
            "wal": wal_report.to_dict(),
            "tail_records": len(tail),
        }
        return RecoveryResult(
            database=database,
            store_state=store_state,
            tail=tail,
            base_seq=base_seq,
            report=report,
        )

    def attach_database(self, database: Database) -> Database:
        """Write a *fresh* dataset as the directory's base; returns it.

        Only valid when the directory holds no prior state (:attr:`has_state`);
        loading data over an existing one would silently fork history.
        """
        if self.has_state:
            raise StorageError(
                f"storage directory {self._directory!r} already holds state; "
                "recover it instead of loading fresh data (or point at a new "
                "directory)"
            )
        if database.size():
            # The base is a snapshot: attached facts only survive a restart
            # through one, so write the baseline now.
            self.checkpoint(database)
        return database

    # -- the durable-apply protocol ----------------------------------------------
    def journal(self, delta: Any, db_version: int) -> int:
        """Append one delta to the WAL (before applying it); returns its seq."""
        if self._closed:
            raise StorageError("this storage manager is closed")
        return self._wal.append(delta.to_text(), db_version)

    def mark_applied(self, seq: int) -> None:
        """Record that everything up to ``seq`` is applied; the base itself
        only moves at a checkpoint."""
        self._applied_seq = seq

    def checkpoint(
        self,
        database: Database,
        store_state: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """Write a snapshot of the current state at the current WAL position."""
        if self._closed:
            raise StorageError("this storage manager is closed")
        self._wal.flush()
        seq = self._applied_seq
        relations = {
            relation.name: (relation.arity, sorted(relation.tuples(), key=repr))
            for relation in database
        }
        path, size = write_snapshot(
            self._directory,
            seq=seq,
            version=database.version,
            relations=relations,
            store_state=store_state,
        )
        self._checkpoints += 1
        self._last_snapshot_seq = seq
        self._last_snapshot_bytes = size
        if getattr(self, "_snapshot_bytes_gauge", None) is not None:
            self._snapshot_bytes_gauge.set(size)
        return {"path": path, "seq": seq, "bytes": size}

    # -- lifecycle ---------------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._wal.close()

    @property
    def closed(self) -> bool:
        return self._closed

    # -- introspection -----------------------------------------------------------
    def status(self) -> Dict[str, Any]:
        """Health summary (the server's ``/healthz`` embeds this)."""
        return {
            "directory": self._directory,
            "wal": self._wal.stats(),
            "applied_seq": self._applied_seq,
            "wal_lag": max(0, self._wal.last_seq - self._applied_seq),
            "snapshot_seq": self._last_snapshot_seq,
            "snapshot_bytes": self._last_snapshot_bytes,
            "checkpoints": self._checkpoints,
        }
