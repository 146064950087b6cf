"""StorageManager recovery semantics, engine wiring, and fault injection.

The recovery contract: final state == base (the newest readable snapshot)
+ the WAL tail with ``seq > base_seq``, replayed in order.  Crashes are simulated by *not* closing the first engine cleanly and
by mutilating the files a real crash could leave torn; every case must end
in a recovered engine whose answers match a never-crashed oracle — or a
typed ReproError — never a stack trace.
"""

import os
import re
import struct
import zlib

import pytest

from repro import connect
from repro.engine.database import Database
from repro.errors import SnapshotError, StorageError
from repro.materialize.delta import Delta, parse_delta
from repro.storage import StorageManager
from repro.storage.snapshot import list_snapshots, write_snapshot
from repro.storage.manager import WAL_FILENAME
from repro.storage.wal import MAGIC as WAL_MAGIC, WriteAheadLog

VIEWS = "v1(X, Y) :- cites(X, Y)."
DATA = "cites(a, b). cites(b, c). refs(a, 1)."
QUERY = "q(X, Y) :- cites(X, Y)."

JOIN_VIEWS = "v(X, Z) :- r(X, Y), s(Y, Z)."
JOIN_DATA = "r(1, 2). s(2, 5)."
JOIN_QUERY = "q(X, Z) :- r(X, Y), s(Y, Z)."

DELTAS = [
    "+ cites(c, d).",
    "- cites(a, b).\n+ cites(d, e).",
    "+ refs(b, 2).",
]


def run_workload(storage, wal="none", snapshot=None, deltas=DELTAS):
    """Build an engine over fresh data, apply deltas, return its answers."""
    engine = connect(views=VIEWS, data=DATA, storage=storage, wal=wal, snapshot=snapshot)
    for delta in deltas:
        engine.apply(delta)
    return engine


def answers_of(engine):
    return sorted(engine.query(QUERY).answers().rows)


def oracle_answers():
    engine = connect(views=VIEWS, data=DATA)
    for delta in DELTAS:
        engine.apply(delta)
    return answers_of(engine)


class TestRecovery:
    @pytest.mark.parametrize("wal", ["none", "batch", "always"])
    def test_reopen_restores_exact_answers(self, tmp_path, wal):
        storage = str(tmp_path / "store")
        expected = answers_of(run_workload(storage, wal=wal))
        assert expected == oracle_answers()
        # No clean close: the WAL tail is all recovery has beyond the base.
        recovered = connect(views=VIEWS, storage=storage)
        try:
            assert answers_of(recovered) == expected
            assert recovered.verify() == []
            report = recovered.recovery_report
            assert report["replayed"] == len(DELTAS) - report["base_seq"]
        finally:
            recovered.close()

    def test_attach_keeps_the_callers_database(self, tmp_path):
        database = Database.from_dict({"cites": [("a", "b")]})
        engine = connect(
            views=VIEWS, data=database, storage=str(tmp_path / "store")
        )
        try:
            assert engine.database is database
        finally:
            engine.close()

    def test_checkpoint_shortens_the_tail(self, tmp_path):
        storage = str(tmp_path / "store")
        engine = run_workload(storage, wal="batch")
        engine.checkpoint()
        engine.apply("+ cites(e, f).")
        engine.close()
        recovered = connect(views=VIEWS, storage=storage)
        try:
            report = recovered.recovery_report
            assert report["base_seq"] == len(DELTAS)
            assert report["replayed"] == 1
            assert report["store_restored"] is True
            assert ("e", "f") in recovered.query(QUERY).answers().rows
        finally:
            recovered.close()

    def test_auto_checkpoint_every_n_deltas(self, tmp_path):
        storage = str(tmp_path / "store")
        engine = run_workload(storage, snapshot=2)
        try:
            assert engine.storage_status()["checkpoints"] >= 2
            [(seq, _)] = list_snapshots(storage)
            assert seq == 2  # the N-delta checkpoint (baseline pruned)
        finally:
            engine.close()

    def test_attaching_data_over_existing_state_raises(self, tmp_path):
        storage = str(tmp_path / "store")
        run_workload(storage)
        with pytest.raises(StorageError):
            connect(views=VIEWS, data=DATA, storage=storage)

    def test_wal_or_snapshot_without_storage_raise(self):
        with pytest.raises(StorageError):
            connect(views=VIEWS, data=DATA, wal="always")
        with pytest.raises(StorageError):
            connect(views=VIEWS, data=DATA, snapshot=10)
        with pytest.raises(TypeError, match="backend"):
            connect(views=VIEWS, backend="memory")

    def test_checkpoint_without_storage_raises(self):
        engine = connect(views=VIEWS, data=DATA)
        with pytest.raises(StorageError):
            engine.checkpoint()

    def test_closed_engine_rejects_durable_applies(self, tmp_path):
        engine = run_workload(str(tmp_path / "store"))
        engine.close()
        with pytest.raises(StorageError):
            engine.apply("+ cites(x, y).")


EDGE_VIEWS = "v_edge(X, Y) :- edge(X, Y)."
EDGE_FACTS, EDGE_BATCH = 2_000, 100
EDGE_PROBES = [
    f"q{key}(Y) :- edge({key}, Y)." for key in range(0, EDGE_FACTS, EDGE_FACTS // 16)
]


def edge_stream():
    """Ordered ``edge(i, i+1)`` insert batches; every tenth batch also removes
    ten rows of the batch before it, so replay exercises both delta sides."""
    deltas = []
    for start in range(0, EDGE_FACTS, EDGE_BATCH):
        removed = {}
        if (start // EDGE_BATCH) % 10 == 9:
            removed = {"edge": [(i, i + 1) for i in range(start - 10, start)]}
        inserted = {"edge": [(i, i + 1) for i in range(start, start + EDGE_BATCH)]}
        deltas.append(Delta(inserted=inserted, removed=removed))
    return deltas


class TestCrashRecoveryExactness:
    """A writer abandoned mid-stream recovers to exactly its state: by full
    replay, from a snapshot at 90 % of the stream plus the WAL tail, from the
    newest of its automatic snapshots, or after an engine recovered halfway
    through wrote the rest of the stream and was abandoned in turn."""

    #: mode -> the base_seq recovery must start from (20 deltas in the stream)
    BASES = {"full_replay": 0, "snapshot_tail": 18, "auto_snapshot": 14, "second_writer": 0}

    @pytest.mark.parametrize("mode", list(BASES))
    def test_recovered_engine_matches_the_writer(self, tmp_path, mode):
        storage = str(tmp_path / "store")
        deltas = edge_stream()
        checkpoint_after = int(len(deltas) * 0.9) if mode == "snapshot_tail" else 0
        snapshot = 7 if mode == "auto_snapshot" else None
        handoff = len(deltas) // 2 if mode == "second_writer" else 0
        writer = connect(views=EDGE_VIEWS, storage=storage, wal="none", snapshot=snapshot)
        for count, delta in enumerate(deltas, start=1):
            writer.apply(delta)
            if count == checkpoint_after:
                writer.checkpoint()
            if count == handoff:
                writer = connect(views=EDGE_VIEWS, storage=storage, wal="none")
                assert writer.recovery_report["replayed"] == handoff
        expected = [sorted(writer.query(text).answers().rows) for text in EDGE_PROBES]
        facts = writer.database.size()
        # No close: the writer is abandoned as a crash would leave it.
        recovered = connect(views=EDGE_VIEWS, storage=storage)
        try:
            answers = [sorted(recovered.query(text).answers().rows) for text in EDGE_PROBES]
            assert answers == expected
            assert recovered.database.size() == facts
            assert recovered.verify() == []
            report = recovered.recovery_report
            # The base is the newest snapshot, or nothing.
            base_seq = self.BASES[mode]
            assert (report["base_seq"], report["replayed"]) == (
                base_seq, len(deltas) - base_seq
            )
            assert report["store_restored"] is bool(base_seq)
        finally:
            recovered.close()


class TestFaultInjection:
    @pytest.mark.parametrize(
        "torn, corruption",
        [
            (b"\x13partial", "torn record header"),
            (struct.pack("<QQII", len(DELTAS) + 1, 0, 64, zlib.crc32(b"+ r")) + b"+ r",
             "torn record payload"),
        ],
        ids=["header", "payload"],
    )
    def test_torn_wal_tail_recovers_to_prefix(self, tmp_path, torn, corruption):
        storage = str(tmp_path / "store")
        run_workload(storage)
        with open(os.path.join(storage, WAL_FILENAME), "ab") as handle:
            handle.write(torn)
        recovered = connect(views=VIEWS, storage=storage)
        try:
            assert answers_of(recovered) == oracle_answers()
            assert recovered.verify() == []
            wal = recovered.recovery_report["wal"]
            assert wal["corruption"] == corruption
            assert wal["repaired"] is True
        finally:
            recovered.close()

    def test_crc_corrupt_record_truncates_from_there(self, tmp_path):
        storage = str(tmp_path / "store")
        run_workload(storage)
        path = os.path.join(storage, WAL_FILENAME)
        with open(path, "r+b") as handle:
            handle.seek(-1, 2)
            last = handle.read(1)
            handle.seek(-1, 2)
            handle.write(bytes([last[0] ^ 0xFF]))
        recovered = connect(views=VIEWS, storage=storage)
        try:
            # The last delta is gone; state must equal the shorter history.
            oracle = connect(views=VIEWS, data=DATA)
            for delta in DELTAS[:-1]:
                oracle.apply(delta)
            assert answers_of(recovered) == answers_of(oracle)
            assert recovered.verify() == []
            assert "CRC mismatch" in recovered.recovery_report["wal"]["corruption"]
        finally:
            recovered.close()

    def test_missing_snapshot_falls_back_to_full_replay(self, tmp_path):
        storage = str(tmp_path / "store")
        # All facts arrive through journaled deltas, so the WAL alone can
        # rebuild everything once the snapshots are gone.
        engine = connect(views=VIEWS, storage=storage, wal="batch")
        for delta in DELTAS:
            engine.apply(delta)
        engine.checkpoint()
        expected = answers_of(engine)
        engine.close()
        for _, path in list_snapshots(storage):
            os.remove(path)
        recovered = connect(views=VIEWS, storage=storage)
        try:
            assert answers_of(recovered) == expected
            report = recovered.recovery_report
            assert report["base_seq"] == 0
            assert report["replayed"] == len(DELTAS)
        finally:
            recovered.close()

    def test_corrupt_snapshot_falls_back_to_older_one(self, tmp_path):
        storage = str(tmp_path / "store")
        engine = run_workload(storage, wal="batch")
        engine.checkpoint()
        expected = answers_of(engine)
        engine.close()
        # Plant an older, *valid* snapshot of the baseline state, then chew
        # up the newest one: recovery must skip it and replay a longer tail.
        [(newest_seq, newest_path)] = list_snapshots(storage)
        baseline = Database.from_dict(
            {"cites": [("a", "b"), ("b", "c")], "refs": [("a", 1)]}
        )
        write_snapshot(
            storage, seq=0, version=0,
            relations={
                relation.name: (relation.arity, sorted(relation.tuples(), key=repr))
                for relation in baseline
            },
            prune=False,
        )
        with open(newest_path, "r+b") as handle:
            handle.seek(20)
            handle.write(b"\xff" * 8)
        recovered = connect(views=VIEWS, storage=storage)
        try:
            assert answers_of(recovered) == expected
            report = recovered.recovery_report
            assert report["base_seq"] == 0
            assert report["replayed"] == len(DELTAS)
            [skipped] = report["snapshots_skipped"]
            assert skipped["path"] == newest_path
        finally:
            recovered.close()

    def test_an_unreadable_only_snapshot_raises_naming_it(self, tmp_path):
        # The base lives only in the snapshot: opening without it would
        # answer from an empty base.
        storage = str(tmp_path / "store")
        connect(views=VIEWS, data=DATA, storage=storage).close()
        [(_seq, path)] = list_snapshots(storage)
        with open(path, "r+b") as handle:
            handle.seek(20)
            handle.write(b"\xff" * 64)
        with pytest.raises(SnapshotError, match=re.escape(path)):
            connect(views=VIEWS, storage=storage)
        # Deleting the unreadable file is the explicit way to recover by
        # full WAL replay (here: nothing was journaled).
        os.remove(path)
        recovered = connect(views=VIEWS, storage=storage)
        try:
            assert answers_of(recovered) == []
        finally:
            recovered.close()

    def test_delta_replay_is_idempotent_at_least_once(self, tmp_path):
        # Journaled, applied in memory, never marked or checkpointed: the
        # attach-time snapshot holds none of the tail, which recovery replays.
        storage = str(tmp_path / "store")
        manager = StorageManager(storage)
        database = manager.attach_database(
            Database.from_dict({"cites": [("a", "b")]})
        )
        delta = parse_delta("+ cites(b, c).\n- cites(a, b).")
        manager.journal(delta, database.version)
        database.apply_delta(delta)  # applied in memory, never marked
        manager.close()

        result = StorageManager(storage).recover()
        recovered = result.database
        for record in result.tail:
            recovered.apply_delta(parse_delta(record.payload))
        assert recovered.tuples("cites") == frozenset({("b", "c")})


class TestDurableServedPath:
    """A durable engine serves exactly as a plain one: it holds a plain
    Database, so nothing forks the served path."""

    SHAPE = "q(X) :- t(X, Y), Y != '%s'."

    def test_bound_forms_are_left_and_hit(self, tmp_path):
        # No view covers t: the plan reads the base relations.
        engine = connect(
            views="w(X) :- u(X).", data="t(1, c). t(2, e). t(3, f).",
            storage=str(tmp_path / "store"),
        )
        try:
            rows = [engine.query(self.SHAPE % c).answers().rows for c in ("c", "e", "f")]
            assert rows == [{(2,), (3,)}, {(1,), (3,)}, {(1,), (2,)}]
            forms = engine.stats()["session"]["bound_forms"]
            assert (forms["size"], forms["hits"]) == (1, 2)
        finally:
            engine.close()

    def test_constant_filtered_scans_match_a_plain_engine(self, tmp_path):
        # Single-atom queries with constants over heterogeneous values, read
        # back from the base after a restart, answer as over the original rows.
        database = Database.from_dict({
            "t": [("a", 1), ("b", 2.5), ("c", "1"), ("d", 1)],
        })
        queries = [
            "q(X) :- t(X, 1).", "q(X) :- t(X, 2.5).", "q(X) :- t(X, '1').",
            "q(Y) :- t(a, Y).", "q(X, Y) :- t(X, Y), X != d.",
        ]
        storage = str(tmp_path / "store")
        connect(
            views="w(X) :- u(X).", data=database.copy(), storage=storage,
        ).close()
        plain = connect(views="w(X) :- u(X).", data=database)
        recovered = connect(views="w(X) :- u(X).", storage=storage)
        try:
            assert recovered.database == database
            for text in queries:
                assert recovered.query(text).answers().rows == plain.query(text).answers().rows
        finally:
            recovered.close()

class TestBaseImage:
    """What the directory's snapshot keeps of the engine's plain Database."""

    def test_a_failed_base_write_moves_neither_rows_nor_watermark(self, tmp_path, monkeypatch):
        # The base is the newest snapshot: a checkpoint whose file never lands
        # leaves the attach-time snapshot as the base and the delta in the tail.
        storage = str(tmp_path / "store")
        manager = StorageManager(storage)
        database = manager.attach_database(Database.from_dict({"r": [(1, 2)]}))
        delta = parse_delta("- r(1, 2).\n+ r(3, 4).")
        seq = manager.journal(delta, database.version)
        database.apply_delta(delta)
        manager.mark_applied(seq)

        def refuse(source, target):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="No space left"):
            manager.checkpoint(database)
        monkeypatch.undo()
        status = manager.status()
        assert (status["snapshot_seq"], status["checkpoints"]) == (0, 1)
        manager.close()
        reopened = StorageManager(storage)
        try:
            result = reopened.recover()
            assert result.base_seq == 0
            assert result.database.tuples("r") == frozenset({(1, 2)})
            assert [record.seq for record in result.tail] == [seq]
        finally:
            reopened.close()

    def test_a_base_store_in_the_documented_layout_reopens(self, tmp_path):
        # Written with the format's own writers, not an engine: a snapshot
        # file and a log whose record lies past it are the on-disk format.
        storage = tmp_path / "store"
        write_snapshot(
            str(storage), seq=1, version=1,
            relations={"r": (2, [(1, 2), (3, 2), ("x", 2.5)]), "s": (2, [(2, 5), (2, 6)])},
        )
        wal = WriteAheadLog(str(storage / WAL_FILENAME))
        wal.append("+ s(2, 6).", 1)  # seq 1: the snapshot already holds it
        wal.append("- r(3, 2).", 2)  # seq 2: the tail
        wal.close()
        recovered = connect(views=JOIN_VIEWS, storage=str(storage))
        try:
            report = recovered.recovery_report
            assert (report["base_seq"], report["replayed"]) == (1, 1)
            assert recovered.database.tuples("r") == frozenset({(1, 2), ("x", 2.5)})
            assert sorted(recovered.query(JOIN_QUERY).answers().rows) == [(1, 5), (1, 6)]
        finally:
            recovered.close()

    def test_an_attached_empty_relation_keeps_its_arity(self, tmp_path):
        database = Database.from_dict({"cites": [("a", "b")]})
        database.ensure_relation("empty", 3)
        storage = str(tmp_path / "store")
        connect(views=VIEWS, data=database, storage=storage)
        recovered = connect(views=VIEWS, storage=storage)
        try:
            assert recovered.database.schema() == {"cites": 2, "empty": 3}
        finally:
            recovered.close()

    def test_a_delta_can_introduce_a_relation(self, tmp_path):
        storage = str(tmp_path / "store")
        fresh = Delta(inserted={"fresh": [(1, "x", 2.5)]}, removed={})
        writer = run_workload(storage, deltas=[fresh])
        recovered = connect(views=VIEWS, storage=storage)
        try:
            assert recovered.database.schema()["fresh"] == 3
            assert recovered.database.tuples("fresh") == frozenset({(1, "x", 2.5)})
            assert recovered.database == writer.database
        finally:
            recovered.close()
            writer.close()


class TestManagerDirectly:
    def test_journal_assigns_monotonic_seqs(self, tmp_path):
        manager = StorageManager(str(tmp_path / "store"))
        delta = Delta(inserted={"r": [(1, 2)]}, removed={})
        assert manager.journal(delta, 0) == 1
        assert manager.journal(delta, 1) == 2
        manager.close()
        assert manager.closed
        with pytest.raises(StorageError):
            manager.journal(delta, 2)

    def test_status_reports_wal_lag(self, tmp_path):
        manager = StorageManager(str(tmp_path / "store"))
        delta = Delta(inserted={"r": [(1, 2)]}, removed={})
        seq = manager.journal(delta, 0)
        assert manager.status()["wal_lag"] == 1
        manager.mark_applied(seq)
        assert manager.status()["wal_lag"] == 0
        manager.close()

    def test_has_state(self, tmp_path):
        fresh = StorageManager(str(tmp_path / "fresh"))
        assert not fresh.has_state
        fresh.journal(Delta(inserted={"r": [(1,)]}, removed={}), 0)
        assert fresh.has_state
        fresh.close()
        attached = StorageManager(str(tmp_path / "attached"))
        attached.attach_database(Database())
        assert not attached.has_state  # nothing to keep, nothing written
        attached.attach_database(Database.from_dict({"r": [(1,)]}))
        assert attached.has_state  # the baseline snapshot
        attached.close()

    def test_a_log_holding_only_its_magic_is_not_state(self, tmp_path):
        storage = str(tmp_path / "store")
        StorageManager(storage).close()
        assert os.path.getsize(os.path.join(storage, WAL_FILENAME)) == len(WAL_MAGIC)
        manager = StorageManager(storage)
        try:
            assert not manager.has_state
        finally:
            manager.close()

    def test_mark_applied_without_a_delta_moves_only_the_watermark(self, tmp_path):
        # The watermark is in memory; only a checkpoint moves the base.
        storage = str(tmp_path / "store")
        manager = StorageManager(storage)
        manager.attach_database(Database.from_dict({"r": [(1, 2)]}))
        seq = manager.journal(parse_delta("+ r(3, 4)."), 0)
        manager.mark_applied(seq)
        status = manager.status()
        assert (status["applied_seq"], status["wal_lag"]) == (seq, 0)
        assert (status["snapshot_seq"], status["checkpoints"]) == (0, 1)
        manager.close()
        reopened = StorageManager(storage)
        try:
            result = reopened.recover()
            assert result.base_seq == 0
            assert [record.seq for record in result.tail] == [seq]
            assert result.database.tuples("r") == frozenset({(1, 2)})
        finally:
            reopened.close()

    def test_a_torn_first_record_is_not_state(self, tmp_path):
        # A crash inside the first append: opening repairs the log, and the
        # directory takes fresh data.
        storage = str(tmp_path / "store")
        StorageManager(storage).close()
        path = os.path.join(storage, WAL_FILENAME)
        with open(path, "ab") as handle:
            handle.write(b"\x13partial")
        manager = StorageManager(storage)
        try:
            assert not manager.has_state
            assert os.path.getsize(path) == len(WAL_MAGIC)
            manager.attach_database(Database.from_dict({"r": [(1,)]}))
            assert manager.has_state
        finally:
            manager.close()

    @pytest.mark.parametrize("backend", ["sqlite", "papyrus", "Memory", ""])
    def test_unknown_backend_rejected(self, tmp_path, backend):
        directory = tmp_path / "store"
        with pytest.raises(StorageError, match="unknown storage backend"):
            StorageManager(str(directory), backend=backend)
        assert not directory.exists()

    @pytest.mark.parametrize("backend", [None, "memory"])
    def test_only_the_memory_backend_is_accepted(self, tmp_path, backend):
        manager = StorageManager(str(tmp_path / "store"), backend=backend)
        try:
            manager.attach_database(Database.from_dict({"r": [(1,)]}))
            assert manager.recover().database.tuples("r") == frozenset({(1,)})
        finally:
            manager.close()
