"""Write-ahead log framing, fsync accounting, and repair-by-truncation.

The corruption cases mirror what a crash can physically leave behind: a torn
header, a torn payload, a bit-flipped record (CRC mismatch), and a file that
was never a WAL at all (bad magic — the one case recovery must *not* repair,
because truncating it would destroy someone else's data).
"""

import struct

import pytest

from repro.errors import StorageError, WalCorruptionError
from repro.storage import read_wal
from repro.storage.wal import WalRecord, WriteAheadLog
from repro.storage.wal import _HEADER, MAGIC


def wal_path(tmp_path):
    return str(tmp_path / "wal.log")


def append_three(path):
    log = WriteAheadLog(path, fsync="none")
    for index in range(3):
        log.append(f"+ r({index}, {index + 1}).", db_version=index)
    log.close()


class TestAppendAndReplay:
    def test_roundtrip_and_monotonic_seqs(self, tmp_path):
        path = wal_path(tmp_path)
        log = WriteAheadLog(path, fsync="batch")
        assert log.last_seq == 0
        assert log.append("+ r(a, b).", db_version=0) == 1
        assert log.append("- r(a, b).", db_version=1) == 2
        records, report = log.replay()
        log.close()
        assert records == [
            WalRecord(seq=1, db_version=0, payload="+ r(a, b)."),
            WalRecord(seq=2, db_version=1, payload="- r(a, b)."),
        ]
        assert report.corruption is None
        assert report.last_seq == 2

    def test_reopen_continues_the_sequence(self, tmp_path):
        path = wal_path(tmp_path)
        append_three(path)
        log = WriteAheadLog(path)
        assert log.last_seq == 3
        assert log.append("+ r(x, y).", db_version=3) == 4
        log.close()
        records, _ = read_wal(path)
        assert [r.seq for r in records] == [1, 2, 3, 4]

    def test_replay_after_seq_filters(self, tmp_path):
        path = wal_path(tmp_path)
        append_three(path)
        log = WriteAheadLog(path)
        records, _ = log.replay(after_seq=2)
        log.close()
        assert [r.seq for r in records] == [3]

    def test_missing_file_reads_empty(self, tmp_path):
        records, report = read_wal(wal_path(tmp_path))
        assert records == [] and report.records == 0

    def test_unicode_payload_roundtrip(self, tmp_path):
        path = wal_path(tmp_path)
        log = WriteAheadLog(path)
        payload = "+ r('café', 'naïve\\n')."
        log.append(payload, db_version=0)
        log.close()
        [record], _ = read_wal(path)
        assert record.payload == payload

    def test_fsync_accounting(self, tmp_path):
        always = WriteAheadLog(wal_path(tmp_path), fsync="always")
        always.append("+ r(a, b).", 0)
        always.append("+ r(b, c).", 1)
        stats = always.stats()
        always.close()
        # One fsync for the magic write plus one per append.
        assert stats["fsyncs"] == 3
        assert stats["appended"] == 2

        batch = WriteAheadLog(str(tmp_path / "batch.log"), fsync="batch")
        batch.append("+ r(a, b).", 0)
        batch.append("+ r(b, c).", 1)
        assert batch.stats()["fsyncs"] == 1  # just the magic
        batch.flush()
        assert batch.stats()["fsyncs"] == 2
        batch.close()

    def test_observability_callbacks_fire(self, tmp_path):
        appends, fsyncs = [], []
        log = WriteAheadLog(
            wal_path(tmp_path),
            fsync="always",
            on_append=lambda seconds, size: appends.append(size),
            on_fsync=lambda seconds: fsyncs.append(seconds),
        )
        log.append("+ r(a, b).", 0)
        log.close()
        assert appends == [len(b"+ r(a, b).")]
        assert len(fsyncs) >= 1

    def test_bad_policy_and_closed_log_raise(self, tmp_path):
        with pytest.raises(StorageError):
            WriteAheadLog(wal_path(tmp_path), fsync="sometimes")
        log = WriteAheadLog(wal_path(tmp_path))
        log.close()
        with pytest.raises(StorageError):
            log.append("+ r(a, b).", 0)


class TestCorruption:
    def test_torn_header_truncated(self, tmp_path):
        path = wal_path(tmp_path)
        append_three(path)
        with open(path, "ab") as handle:
            handle.write(b"\x01\x02\x03")  # partial header
        records, report = read_wal(path, repair=False)
        assert len(records) == 3
        assert report.corruption == "torn record header"
        assert not report.repaired

        records, report = read_wal(path, repair=True)
        assert report.repaired
        _, clean = read_wal(path)
        assert clean.corruption is None and clean.records == 3

    def test_torn_payload_truncated(self, tmp_path):
        path = wal_path(tmp_path)
        append_three(path)
        payload = b"+ r(x, y)."
        import zlib

        header = _HEADER.pack(4, 3, len(payload), zlib.crc32(payload))
        with open(path, "ab") as handle:
            handle.write(header + payload[: len(payload) // 2])
        records, report = read_wal(path, repair=True)
        assert len(records) == 3
        assert report.corruption == "torn record payload"
        assert report.repaired

    def test_crc_mismatch_truncated(self, tmp_path):
        path = wal_path(tmp_path)
        append_three(path)
        # Flip one byte inside the *last* record's payload.
        with open(path, "r+b") as handle:
            handle.seek(-1, 2)
            last = handle.read(1)
            handle.seek(-1, 2)
            handle.write(bytes([last[0] ^ 0xFF]))
        records, report = read_wal(path, repair=True)
        assert len(records) == 2
        assert "CRC mismatch" in report.corruption
        assert report.repaired
        _, clean = read_wal(path)
        assert clean.records == 2 and clean.corruption is None

    def test_implausible_length_truncated(self, tmp_path):
        path = wal_path(tmp_path)
        append_three(path)
        header = _HEADER.pack(4, 3, (1 << 30) + 1, 0)
        with open(path, "ab") as handle:
            handle.write(header)
        _, report = read_wal(path, repair=True)
        assert "implausible payload length" in report.corruption

    def test_bad_magic_raises_never_truncates(self, tmp_path):
        path = wal_path(tmp_path)
        with open(path, "wb") as handle:
            handle.write(b"NOT-A-WAL\n" + b"x" * 64)
        size = 74
        with pytest.raises(WalCorruptionError):
            read_wal(path, repair=True)
        import os

        assert os.path.getsize(path) == size  # untouched

    def test_open_auto_repairs_then_appends_cleanly(self, tmp_path):
        path = wal_path(tmp_path)
        append_three(path)
        with open(path, "ab") as handle:
            handle.write(b"\xde\xad\xbe")
        log = WriteAheadLog(path)
        assert log.last_seq == 3
        assert log.append("+ r(p, q).", 3) == 4
        log.close()
        records, report = read_wal(path)
        assert [r.seq for r in records] == [1, 2, 3, 4]
        assert report.corruption is None

    def test_oversized_append_rejected_up_front(self, tmp_path):
        log = WriteAheadLog(wal_path(tmp_path))
        with pytest.raises(StorageError):
            # Claim, without allocating one, a payload over the record limit.
            class Huge(str):
                def encode(self, *a, **k):
                    return _FakeBytes()

            class _FakeBytes(bytes):
                def __len__(self):
                    return (1 << 30) + 1

            log.append(Huge(), 0)
        log.close()
