"""StorageManager recovery semantics, engine wiring, and fault injection.

The recovery contract: final state == base (newest readable snapshot, or
the sqlite base store) + the WAL tail with ``seq > base_seq``, replayed in
order.  Crashes are simulated by *not* closing the first engine cleanly and
by mutilating the files a real crash could leave torn; every case must end
in a recovered engine whose answers match a never-crashed oracle — or a
typed ReproError — never a stack trace.
"""

import os
import sqlite3
import subprocess
import sys

import pytest

from repro import connect
from repro.engine.database import Database
from repro.engine.relation import SkolemValue
from repro.errors import StorageError
from repro.materialize.delta import Delta, parse_delta
from repro.storage import StorageManager
from repro.storage.snapshot import list_snapshots, write_snapshot
from repro.storage.manager import APPLIED_SEQ_KEY, SQLITE_FILENAME, WAL_FILENAME
from repro.storage.sqlite import SQLiteBackend
from repro.storage.wal import MAGIC as WAL_MAGIC

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


def run_workload(storage, backend=None, wal="none", snapshot=None, deltas=DELTAS):
    """Build an engine over fresh data, apply deltas, return its answers."""
    engine = connect(
        views=VIEWS, data=DATA, storage=storage, backend=backend,
        wal=wal, snapshot=snapshot,
    )
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


@pytest.fixture(params=["memory", "sqlite"])
def backend_name(request):
    return request.param


class TestRecovery:
    def test_reopen_restores_exact_answers(self, tmp_path, backend_name):
        storage = str(tmp_path / "store")
        expected = answers_of(run_workload(storage, backend=backend_name))
        assert expected == oracle_answers()
        # No clean close: the WAL tail is all recovery has beyond the base.
        recovered = connect(views=VIEWS, storage=storage, backend=backend_name)
        try:
            assert answers_of(recovered) == expected
            assert recovered.verify() == []
            report = recovered.recovery_report
            assert report["backend"] == backend_name
            assert report["replayed"] == len(DELTAS) - report["base_seq"]
        finally:
            recovered.close()

    def test_backend_autodetected_from_directory(self, tmp_path):
        storage = str(tmp_path / "store")
        run_workload(storage, backend="sqlite")
        recovered = connect(views=VIEWS, storage=storage)  # no backend=
        try:
            assert recovered.recovery_report["backend"] == "sqlite"
            assert type(recovered.database) is Database
        finally:
            recovered.close()

    @pytest.mark.parametrize("first, other", [("sqlite", "memory"), ("memory", "sqlite")])
    def test_reopening_with_the_other_backend_raises(self, tmp_path, first, other):
        storage = str(tmp_path / "store")
        engine = connect(views=JOIN_VIEWS, data=JOIN_DATA, storage=storage, backend=first)
        engine.apply("+ r(3, 2).")
        engine.close()
        before = sorted(os.listdir(storage))
        with pytest.raises(StorageError, match="holds"):
            connect(views=JOIN_VIEWS, storage=storage, backend=other)
        assert sorted(os.listdir(storage)) == before  # nothing written
        # Naming no backend reopens whichever the directory holds.
        for backend in (None, first):
            recovered = connect(views=JOIN_VIEWS, storage=storage, backend=backend)
            try:
                assert recovered.recovery_report["backend"] == first
                assert sorted(recovered.query(JOIN_QUERY).answers().rows) == [(1, 5), (3, 5)]
            finally:
                recovered.close()

    def test_fresh_data_over_a_sqlite_base_without_wal_records_raises(self, tmp_path):
        storage = str(tmp_path / "store")
        connect(views=JOIN_VIEWS, data=JOIN_DATA, storage=storage, backend="sqlite").close()
        with pytest.raises(StorageError, match="already holds state"):
            connect(views=JOIN_VIEWS, data="r(7, 8). s(8, 9).", storage=storage)
        recovered = connect(views=JOIN_VIEWS, storage=storage)
        try:
            assert sorted(recovered.query(JOIN_QUERY).answers().rows) == [(1, 5)]
        finally:
            recovered.close()

    def test_attach_keeps_the_callers_database(self, tmp_path, backend_name):
        database = Database.from_dict({"cites": [("a", "b")]})
        engine = connect(
            views=VIEWS, data=database, storage=str(tmp_path / "store"), backend=backend_name
        )
        try:
            assert engine.database is database
        finally:
            engine.close()

    def test_checkpoint_shortens_the_tail(self, tmp_path):
        storage = str(tmp_path / "store")
        engine = run_workload(storage, backend="memory", wal="batch")
        engine.checkpoint()
        engine.apply("+ cites(e, f).")
        engine.close()
        recovered = connect(views=VIEWS, storage=storage, backend="memory")
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
        engine = run_workload(storage, backend="memory", snapshot=2)
        try:
            assert engine.storage_status()["checkpoints"] >= 2
            [(seq, _)] = list_snapshots(storage)
            assert seq == 2  # the N-delta checkpoint (baseline pruned)
        finally:
            engine.close()

    def test_attaching_data_over_existing_state_raises(self, tmp_path):
        storage = str(tmp_path / "store")
        run_workload(storage, backend="memory")
        with pytest.raises(StorageError):
            connect(views=VIEWS, data=DATA, storage=storage)

    def test_wal_snapshot_or_backend_without_storage_raise(self):
        with pytest.raises(StorageError):
            connect(views=VIEWS, data=DATA, wal="always")
        with pytest.raises(StorageError):
            connect(views=VIEWS, data=DATA, snapshot=10)
        for backend in ("memory", "sqlite", "papyrus"):
            with pytest.raises(StorageError, match="backend= requires"):
                connect(views=VIEWS, backend=backend)

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
    """A writer abandoned mid-stream recovers to exactly its state, by full
    replay or from a snapshot at 90 % of the stream plus the WAL tail."""

    @pytest.mark.parametrize("mode", ["full_replay", "snapshot_tail"])
    def test_recovered_engine_matches_the_writer(self, tmp_path, backend_name, mode):
        storage = str(tmp_path / "store")
        deltas = edge_stream()
        checkpoint_after = int(len(deltas) * 0.9) if mode == "snapshot_tail" else 0
        writer = connect(views=EDGE_VIEWS, storage=storage, backend=backend_name, wal="none")
        for count, delta in enumerate(deltas, start=1):
            writer.apply(delta)
            if count == checkpoint_after:
                writer.checkpoint()
        expected = [sorted(writer.query(text).answers().rows) for text in EDGE_PROBES]
        facts = writer.database.size()
        # No close: the writer is abandoned as a crash would leave it.
        recovered = connect(views=EDGE_VIEWS, storage=storage, backend=backend_name)
        try:
            answers = [sorted(recovered.query(text).answers().rows) for text in EDGE_PROBES]
            assert answers == expected
            assert recovered.database.size() == facts
            assert recovered.verify() == []
            report = recovered.recovery_report
            assert report["replayed"] == len(deltas) - report["base_seq"]
            if backend_name == "memory":
                # The memory backend's base is the snapshot, or nothing.
                assert report["base_seq"] == checkpoint_after
                assert report["store_restored"] is bool(checkpoint_after)
        finally:
            recovered.close()


class TestFaultInjection:
    def test_torn_wal_tail_recovers_to_prefix(self, tmp_path, backend_name):
        storage = str(tmp_path / "store")
        run_workload(storage, backend=backend_name)
        with open(os.path.join(storage, WAL_FILENAME), "ab") as handle:
            handle.write(b"\x13partial")
        recovered = connect(views=VIEWS, storage=storage, backend=backend_name)
        try:
            assert answers_of(recovered) == oracle_answers()
            assert recovered.verify() == []
            wal = recovered.recovery_report["wal"]
            assert wal["corruption"] == "torn record header"
            assert wal["repaired"] is True
        finally:
            recovered.close()

    def test_crc_corrupt_record_truncates_from_there(self, tmp_path):
        storage = str(tmp_path / "store")
        run_workload(storage, backend="memory")
        path = os.path.join(storage, WAL_FILENAME)
        with open(path, "r+b") as handle:
            handle.seek(-1, 2)
            last = handle.read(1)
            handle.seek(-1, 2)
            handle.write(bytes([last[0] ^ 0xFF]))
        recovered = connect(views=VIEWS, storage=storage, backend="memory")
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
        engine = connect(views=VIEWS, storage=storage, backend="memory", wal="batch")
        for delta in DELTAS:
            engine.apply(delta)
        engine.checkpoint()
        expected = answers_of(engine)
        engine.close()
        for _, path in list_snapshots(storage):
            os.remove(path)
        recovered = connect(views=VIEWS, storage=storage, backend="memory")
        try:
            assert answers_of(recovered) == expected
            report = recovered.recovery_report
            assert report["base_seq"] == 0
            assert report["replayed"] == len(DELTAS)
        finally:
            recovered.close()

    def test_corrupt_snapshot_falls_back_to_older_one(self, tmp_path):
        storage = str(tmp_path / "store")
        engine = run_workload(storage, backend="memory", wal="batch")
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
        recovered = connect(views=VIEWS, storage=storage, backend="memory")
        try:
            assert answers_of(recovered) == expected
            report = recovered.recovery_report
            assert report["base_seq"] == 0
            assert report["replayed"] == len(DELTAS)
            [skipped] = report["snapshots_skipped"]
            assert skipped["path"] == newest_path
        finally:
            recovered.close()

    def test_delta_replay_is_idempotent_at_least_once(self, tmp_path):
        # Journaled, not applied: mark_applied never ran, so the sqlite base
        # holds none of the tail, which recovery replays onto it.
        storage = str(tmp_path / "store")
        manager = StorageManager(storage, backend="sqlite")
        database = manager.attach_database(
            Database.from_dict({"cites": [("a", "b")]})
        )
        delta = parse_delta("+ cites(b, c).\n- cites(a, b).")
        manager.journal(delta, database.version)
        database.apply_delta(delta)  # applied in memory, never marked
        manager.close()

        result = StorageManager(storage, backend="sqlite").recover()
        recovered = result.database
        for record in result.tail:
            recovered.apply_delta(parse_delta(record.payload))
        assert recovered.tuples("cites") == frozenset({("b", "c")})


class TestDurableServedPath:
    """A durable engine serves exactly as a plain one: every backend holds a
    plain Database, so nothing forks the served path."""

    SHAPE = "q(X) :- t(X, Y), Y != '%s'."

    def test_bound_forms_are_left_and_hit(self, tmp_path, backend_name):
        # No view covers t: the plan reads the base relations.
        engine = connect(
            views="w(X) :- u(X).", data="t(1, c). t(2, e). t(3, f).",
            storage=str(tmp_path / "store"), backend=backend_name,
        )
        try:
            rows = [engine.query(self.SHAPE % c).answers().rows for c in ("c", "e", "f")]
            assert rows == [{(2,), (3,)}, {(1,), (3,)}, {(1,), (2,)}]
            forms = engine.stats()["session"]["bound_forms"]
            assert (forms["size"], forms["hits"]) == (1, 2)
        finally:
            engine.close()

    def test_constant_filtered_scans_match_a_plain_engine(self, tmp_path, backend_name):
        # Single-atom queries with constants over heterogeneous values, read
        # back from the base after a restart, answer as over the original rows.
        database = Database.from_dict({
            "t": [("a", 1), ("b", 2.5), ("c", "1"), ("d", 1), ("e", SkolemValue("f", (1,)))],
        })
        queries = [
            "q(X) :- t(X, 1).", "q(X) :- t(X, 2.5).", "q(X) :- t(X, '1').",
            "q(Y) :- t(a, Y).", "q(X, Y) :- t(X, Y), X != d.",
        ]
        storage = str(tmp_path / "store")
        connect(
            views="w(X) :- u(X).", data=database.copy(), storage=storage, backend=backend_name,
        ).close()
        plain = connect(views="w(X) :- u(X).", data=database)
        recovered = connect(views="w(X) :- u(X).", storage=storage)
        try:
            assert recovered.database == database
            for text in queries:
                assert recovered.query(text).answers().rows == plain.query(text).answers().rows
        finally:
            recovered.close()

    def test_the_environment_does_not_choose_the_backend(self, tmp_path):
        storage = str(tmp_path / "store")
        script = (
            "import sys, repro\n"
            "engine = repro.connect(views='v(X) :- r(X).', data='r(1).', storage=sys.argv[1])\n"
            "print(engine.storage_status()['backend'])\n"
            "engine.close()\n"
            "print(repro.connect(views='v(X) :- r(X).', data='r(1).').storage_status())\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "src")
        env = dict(os.environ, REPRO_DEFAULT_BACKEND="sqlite", PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", script, storage],
            env=env, capture_output=True, text=True, check=True,
        ).stdout.split()
        assert out == ["memory", "None"]
        assert not os.path.exists(os.path.join(storage, SQLITE_FILENAME))


class TestBaseImage:
    """What the directory keeps of the engine's plain Database: the sqlite
    file per applied delta, the snapshot on the memory backend."""

    def test_sqlite_base_holds_every_applied_delta(self, tmp_path):
        storage = str(tmp_path / "store")
        writer = run_workload(storage, backend="sqlite")
        # No close: the base alone must already hold the writer's state.
        base = SQLiteBackend(os.path.join(storage, SQLITE_FILENAME))
        try:
            assert base.get_meta(APPLIED_SEQ_KEY) == str(len(DELTAS))
            stored = {name: frozenset(base.scan(name)) for name in base.relation_names()}
            assert stored == {
                name: writer.database.tuples(name) for name in writer.database.relation_names()
            }
        finally:
            base.close()
        recovered = connect(views=VIEWS, storage=storage)
        try:
            report = recovered.recovery_report
            assert (report["base_seq"], report["replayed"]) == (len(DELTAS), 0)
            assert recovered.database == writer.database
        finally:
            recovered.close()
            writer.close()

    def test_only_the_effective_delta_reaches_the_sqlite_base(self, tmp_path):
        engine = connect(
            views=JOIN_VIEWS, data=JOIN_DATA, storage=str(tmp_path / "store"), backend="sqlite"
        )
        statements = []
        engine.storage._base._conn.set_trace_callback(statements.append)
        # A present row, an absent one, and a relation the base never held.
        engine.apply("+ r(1, 2).\n- s(9, 9).\n- zzz(1).")
        engine.storage._base._conn.set_trace_callback(None)
        try:
            assert not any(s.startswith(("INSERT OR IGNORE", "DELETE")) for s in statements)
            assert any("repro_meta" in s and APPLIED_SEQ_KEY in s for s in statements)
            assert engine.storage_status()["wal_lag"] == 0
        finally:
            engine.close()

    def test_a_failed_base_write_moves_neither_rows_nor_watermark(self, tmp_path, monkeypatch):
        storage = str(tmp_path / "store")
        manager = StorageManager(storage, backend="sqlite")
        database = manager.attach_database(Database.from_dict({"r": [(1, 2)]}))
        delta = parse_delta("- r(1, 2).\n+ r(3, 4).")
        seq = manager.journal(delta, database.version)
        effective = database.apply_delta(delta)

        def refuse(key, value):
            raise StorageError("disk full")

        monkeypatch.setattr(manager._base, "set_meta", refuse)
        with pytest.raises(StorageError, match="disk full"):
            manager.mark_applied(seq, effective)
        assert manager.status()["wal_lag"] == 1
        monkeypatch.undo()
        manager.close()
        reopened = StorageManager(storage)
        try:
            result = reopened.recover()
            # The row writes rolled back with the watermark: the base is as
            # attached, and the delta is still in the tail to replay.
            assert result.base_seq == 0
            assert result.database.tuples("r") == frozenset({(1, 2)})
            assert [record.seq for record in result.tail] == [seq]
        finally:
            reopened.close()

    def test_a_snapshot_restores_the_store_only_at_the_bases_seq(self, tmp_path):
        storage = str(tmp_path / "store")
        engine = run_workload(storage, backend="sqlite", wal="batch")
        engine.checkpoint()
        engine.close()
        recovered = connect(views=VIEWS, storage=storage)
        report = recovered.recovery_report
        assert (report["base_seq"], report["replayed"]) == (len(DELTAS), 0)
        assert report["snapshot"]["seq"] == len(DELTAS)
        assert report["store_restored"] is True
        recovered.apply("+ cites(e, f).")
        expected = answers_of(recovered)
        # Abandoned after one more delta: the base is past the snapshot, so
        # the store recomputes from the base instead of using stale counters.
        again = connect(views=VIEWS, storage=storage)
        try:
            report = again.recovery_report
            assert (report["base_seq"], report["replayed"]) == (len(DELTAS) + 1, 0)
            assert report["store_restored"] is False
            assert answers_of(again) == expected
            assert again.verify() == []
        finally:
            again.close()
            recovered.close()

    def test_a_base_store_in_the_documented_layout_reopens(self, tmp_path):
        # Written with plain SQL, not SQLiteBackend: the tables and the
        # tagged-text encoding are the on-disk format.
        storage = tmp_path / "store"
        storage.mkdir()
        conn = sqlite3.connect(str(storage / SQLITE_FILENAME))
        conn.executescript(
            "CREATE TABLE repro_catalog (name TEXT PRIMARY KEY, arity INTEGER NOT NULL);"
            "CREATE TABLE repro_meta (key TEXT PRIMARY KEY, value TEXT);"
            'CREATE TABLE "r_r" (c0 TEXT NOT NULL, c1 TEXT NOT NULL, '
            "PRIMARY KEY (c0, c1)) WITHOUT ROWID;"
            'CREATE TABLE "r_s" (c0 TEXT NOT NULL, c1 TEXT NOT NULL, '
            "PRIMARY KEY (c0, c1)) WITHOUT ROWID;"
            "INSERT INTO repro_catalog VALUES ('r', 2), ('s', 2);"
            "INSERT INTO repro_meta VALUES ('applied_seq', '0');"
            "INSERT INTO \"r_r\" VALUES ('i1', 'i2'), ('i3', 'i2'), ('sx', 'f2.5');"
            "INSERT INTO \"r_s\" VALUES ('i2', 'i5');"
        )
        conn.commit()
        conn.close()
        recovered = connect(views=JOIN_VIEWS, storage=str(storage))
        try:
            assert recovered.recovery_report["backend"] == "sqlite"
            assert recovered.database.tuples("r") == frozenset({(1, 2), (3, 2), ("x", 2.5)})
            assert sorted(recovered.query(JOIN_QUERY).answers().rows) == [(1, 5), (3, 5)]
        finally:
            recovered.close()

    def test_an_attached_empty_relation_keeps_its_arity(self, tmp_path, backend_name):
        database = Database.from_dict({"cites": [("a", "b")]})
        database.ensure_relation("empty", 3)
        storage = str(tmp_path / "store")
        connect(views=VIEWS, data=database, storage=storage, backend=backend_name)
        recovered = connect(views=VIEWS, storage=storage)
        try:
            assert recovered.database.schema() == {"cites": 2, "empty": 3}
        finally:
            recovered.close()

    def test_a_delta_can_introduce_a_relation(self, tmp_path, backend_name):
        storage = str(tmp_path / "store")
        fresh = Delta(inserted={"fresh": [(1, "x", 2.5)]}, removed={})
        writer = run_workload(storage, backend=backend_name, deltas=[fresh])
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

    def test_sqlite_delta_rows_and_watermark_commit_in_one_transaction(self, tmp_path):
        engine = connect(
            views=JOIN_VIEWS, data=JOIN_DATA, storage=str(tmp_path / "store"), backend="sqlite"
        )
        statements = []
        engine.storage._base._conn.set_trace_callback(statements.append)
        engine.apply("+ r(3, 2).\n- s(2, 5).")
        engine.storage._base._conn.set_trace_callback(None)
        engine.close()
        assert statements[0].startswith("BEGIN") and statements[-1] == "COMMIT"
        assert sum(s.startswith(("BEGIN", "COMMIT")) for s in statements) == 2
        inner = statements[1:-1]
        assert any(s.startswith('INSERT OR IGNORE INTO "r_r"') for s in inner)
        assert any(s.startswith('DELETE FROM "r_s"') for s in inner)
        assert any("repro_meta" in s and APPLIED_SEQ_KEY in s for s in inner)

    def test_mark_applied_without_a_delta_moves_only_the_watermark(self, tmp_path):
        storage = str(tmp_path / "store")
        manager = StorageManager(storage, backend="sqlite")
        manager.attach_database(Database.from_dict({"r": [(1, 2)]}))
        seq = manager.journal(parse_delta("+ r(3, 4)."), 0)
        manager.mark_applied(seq)
        manager.close()
        reopened = StorageManager(storage)
        try:
            result = reopened.recover()
            assert result.base_seq == seq and result.tail == []
            assert result.database.tuples("r") == frozenset({(1, 2)})
        finally:
            reopened.close()

    def test_has_state(self, tmp_path):
        fresh = StorageManager(str(tmp_path / "fresh"))
        assert not fresh.has_state
        fresh.journal(Delta(inserted={"r": [(1,)]}, removed={}), 0)
        assert fresh.has_state
        fresh.close()
        sqlite = StorageManager(str(tmp_path / "sqlite"), backend="sqlite")
        sqlite.attach_database(Database())
        assert sqlite.has_state
        assert os.path.exists(os.path.join(sqlite.directory, SQLITE_FILENAME))
        sqlite.close()

    def test_a_log_holding_only_its_magic_is_not_state(self, tmp_path):
        storage = str(tmp_path / "store")
        StorageManager(storage).close()
        assert os.path.getsize(os.path.join(storage, WAL_FILENAME)) == len(WAL_MAGIC)
        manager = StorageManager(storage, backend="sqlite")
        try:
            assert manager.backend_name == "sqlite"
            assert not manager.has_state
        finally:
            manager.close()

    def test_a_torn_first_record_is_memory_state(self, tmp_path):
        storage = str(tmp_path / "store")
        StorageManager(storage).close()
        with open(os.path.join(storage, WAL_FILENAME), "ab") as handle:
            handle.write(b"\x13partial")
        with pytest.raises(StorageError, match="holds memory state"):
            StorageManager(storage, backend="sqlite")
        assert not os.path.exists(os.path.join(storage, SQLITE_FILENAME))
        manager = StorageManager(storage)
        try:
            assert manager.backend_name == "memory"
        finally:
            manager.close()

    def test_unknown_backend_rejected(self, tmp_path):
        with pytest.raises(StorageError):
            StorageManager(str(tmp_path / "store"), backend="papyrus")
