"""The write-ahead delta log: durable, CRC-framed, repairable by truncation.

Every ``apply_delta`` batch is journaled *before* it touches the engine, as
one framed record:

* file magic ``b"RWAL1\\n"`` (written once, checked on open);
* per record a fixed header ``<QQII`` — sequence number (u64, strictly
  monotonic from 1), the database version the delta was applied *on top of*
  (u64), payload length (u32) and the CRC-32 of the payload (u32);
* the payload: the delta's :meth:`~repro.materialize.delta.Delta.to_text`
  form, UTF-8 encoded.  Reusing the human-readable delta text means a WAL
  can be inspected with ``strings`` and a record can be replayed by the
  normal :func:`~repro.materialize.delta.parse_delta` path.

Durability is governed by the *fsync policy*: ``"always"`` syncs after every
append (safe against power loss), ``"batch"`` syncs on :meth:`flush` and
:meth:`close` (safe against process crash, one fsync per batch), ``"none"``
never syncs (safe against ``kill -9`` via the OS page cache, fastest).

Recovery reads the log front to back and **repairs by truncation**: a torn
tail (partial header or payload), a CRC mismatch, or a non-monotonic
sequence number marks the end of the trustworthy prefix — everything from
the first bad byte on is discarded and, with ``repair=True``, physically
truncated so the next append continues a clean log.  Only a bad *magic*
raises :class:`~repro.errors.WalCorruptionError` outright: that file is not
ours to repair.
"""

from __future__ import annotations

import os
import struct
import time
import zlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import StorageError, WalCorruptionError

MAGIC = b"RWAL1\n"
_HEADER = struct.Struct("<QQII")  # seq, db_version, payload_len, crc32

#: Refuse records claiming more than this many payload bytes — a corrupt
#: length field must not make replay allocate gigabytes.
MAX_PAYLOAD = 1 << 30

FSYNC_POLICIES = ("always", "batch", "none")


@dataclass(frozen=True)
class WalRecord:
    """One journaled delta batch."""

    seq: int
    db_version: int
    payload: str

    def __repr__(self) -> str:
        return f"WalRecord(seq={self.seq}, version={self.db_version}, {len(self.payload)}B)"


@dataclass
class WalReplayReport:
    """What a front-to-back read of the log found (and possibly repaired)."""

    records: int = 0
    last_seq: int = 0
    bytes_read: int = 0
    #: Why the scan stopped early, or None for a clean end-of-file.
    corruption: Optional[str] = None
    #: File offset of the first untrustworthy byte (== file size when clean).
    truncated_at: Optional[int] = None
    #: Whether the file was physically truncated to drop the bad tail.
    repaired: bool = False

    def to_dict(self) -> Dict[str, Any]:
        return {
            "records": self.records,
            "last_seq": self.last_seq,
            "bytes_read": self.bytes_read,
            "corruption": self.corruption,
            "truncated_at": self.truncated_at,
            "repaired": self.repaired,
        }


class WriteAheadLog:
    """An append-only delta journal at ``path``.

    Parameters
    ----------
    path:
        The log file; created (with magic) when absent.
    fsync:
        One of :data:`FSYNC_POLICIES` — see the module docs.
    on_append / on_fsync:
        Optional observability callbacks, called with the elapsed seconds of
        each append (payload bytes as a second argument) and each fsync.
    """

    def __init__(
        self,
        path: str,
        fsync: str = "batch",
        on_append: Optional[Callable[[float, int], None]] = None,
        on_fsync: Optional[Callable[[float], None]] = None,
    ):
        if fsync not in FSYNC_POLICIES:
            raise StorageError(
                f"unknown fsync policy {fsync!r}; choose from {FSYNC_POLICIES}"
            )
        self._path = str(path)
        self._fsync = fsync
        self._on_append = on_append
        self._on_fsync = on_fsync
        self._appended = 0
        self._synced = 0
        self._dirty = False
        self._closed = False

        existed = os.path.exists(self._path)
        self._file = open(self._path, "ab")
        if not existed or os.path.getsize(self._path) == 0:
            self._file.write(MAGIC)
            self._file.flush()
            self._do_fsync()
        self._last_seq = self._scan_last_seq()

    # -- properties --------------------------------------------------------------
    @property
    def path(self) -> str:
        return self._path

    @property
    def last_seq(self) -> int:
        """The sequence number of the newest appended record (0 when empty)."""
        return self._last_seq

    # -- writing -----------------------------------------------------------------
    def append(self, payload: str, db_version: int) -> int:
        """Journal one delta text; returns its sequence number."""
        if self._closed:
            raise StorageError("this write-ahead log is closed")
        data = payload.encode("utf-8")
        if len(data) > MAX_PAYLOAD:
            raise StorageError(
                f"delta payload of {len(data)} bytes exceeds the WAL record limit"
            )
        seq = self._last_seq + 1
        header = _HEADER.pack(seq, db_version, len(data), zlib.crc32(data))
        started = time.perf_counter()
        self._file.write(header)
        self._file.write(data)
        self._file.flush()
        if self._fsync == "always":
            self._do_fsync()
        else:
            self._dirty = True
        if self._on_append is not None:
            self._on_append(time.perf_counter() - started, len(data))
        self._last_seq = seq
        self._appended += 1
        return seq

    def flush(self) -> None:
        """Force appended records to disk (a no-op under ``fsync="none"``)."""
        if self._closed:
            return
        self._file.flush()
        if self._fsync != "none" and self._dirty:
            self._do_fsync()
            self._dirty = False

    def _do_fsync(self) -> None:
        started = time.perf_counter()
        os.fsync(self._file.fileno())
        self._synced += 1
        if self._on_fsync is not None:
            self._on_fsync(time.perf_counter() - started)

    def close(self) -> None:
        if self._closed:
            return
        self.flush()
        self._closed = True
        self._file.close()

    # -- reading -----------------------------------------------------------------
    def _scan_last_seq(self) -> int:
        records, report = read_wal(self._path, repair=False)
        if report.corruption is not None:
            # Repair before continuing to append: writing past a torn tail
            # would bury the corruption inside the log.
            records, report = read_wal(self._path, repair=True)
            self._file.close()
            self._file = open(self._path, "ab")
        self._open_report = report
        return report.last_seq

    def replay(
        self, after_seq: int = 0, repair: bool = True
    ) -> Tuple[List[WalRecord], WalReplayReport]:
        """All trustworthy records with ``seq > after_seq``, plus the report.

        A corrupt tail that was already repaired when the log was *opened*
        is still reported (the file reads clean now, but recovery needs to
        know history was truncated).
        """
        self._file.flush()
        records, report = read_wal(self._path, repair=repair)
        if repair and report.repaired:
            # Reopen so our append offset agrees with the truncated size.
            self._file.close()
            self._file = open(self._path, "ab")
        opened = getattr(self, "_open_report", None)
        if report.corruption is None and opened is not None and opened.repaired:
            report.corruption = opened.corruption
            report.truncated_at = opened.truncated_at
            report.repaired = True
        return [r for r in records if r.seq > after_seq], report

    # -- introspection -----------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        return {
            "path": self._path,
            "fsync": self._fsync,
            "last_seq": self._last_seq,
            "appended": self._appended,
            "fsyncs": self._synced,
            "bytes": os.path.getsize(self._path) if os.path.exists(self._path) else 0,
        }


def read_wal(path: str, repair: bool = False) -> Tuple[List[WalRecord], WalReplayReport]:
    """Read a WAL file front to back; optionally truncate a corrupt tail.

    Returns every record up to the first corruption and a
    :class:`WalReplayReport`.  A missing file reads as an empty log; a file
    whose *magic* is wrong raises :class:`WalCorruptionError` (it is not a
    WAL — truncating it would destroy someone else's data).
    """
    report = WalReplayReport()
    records: List[WalRecord] = []
    if not os.path.exists(path):
        return records, report
    with open(path, "rb") as handle:
        magic = handle.read(len(MAGIC))
        if len(magic) == 0:
            return records, report
        if magic != MAGIC:
            raise WalCorruptionError(
                f"{path} does not start with the WAL magic (found {magic!r})"
            )
        offset = len(MAGIC)
        last_seq = 0
        while True:
            header = handle.read(_HEADER.size)
            if not header:
                break  # clean end of file
            if len(header) < _HEADER.size:
                report.corruption = "torn record header"
                report.truncated_at = offset
                break
            seq, db_version, payload_len, crc = _HEADER.unpack(header)
            if payload_len > MAX_PAYLOAD:
                report.corruption = f"implausible payload length {payload_len}"
                report.truncated_at = offset
                break
            payload = handle.read(payload_len)
            if len(payload) < payload_len:
                report.corruption = "torn record payload"
                report.truncated_at = offset
                break
            if zlib.crc32(payload) != crc:
                report.corruption = f"CRC mismatch at seq {seq}"
                report.truncated_at = offset
                break
            if seq != last_seq + 1:
                report.corruption = (
                    f"non-monotonic sequence {seq} after {last_seq}"
                )
                report.truncated_at = offset
                break
            try:
                text = payload.decode("utf-8")
            except UnicodeDecodeError:
                report.corruption = f"undecodable payload at seq {seq}"
                report.truncated_at = offset
                break
            records.append(WalRecord(seq=seq, db_version=db_version, payload=text))
            last_seq = seq
            offset += _HEADER.size + payload_len
        report.records = len(records)
        report.last_seq = last_seq
        report.bytes_read = offset
    if report.corruption is not None and repair:
        with open(path, "r+b") as handle:
            handle.truncate(report.truncated_at)
            handle.flush()
            os.fsync(handle.fileno())
        report.repaired = True
    return records, report
