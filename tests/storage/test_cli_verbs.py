"""The snapshot / restore / replay CLI verbs and their documented exit codes.

Exit-code contract (see the :mod:`repro.cli` module docs): 0 success,
1 "found corruption but did not repair it" (replay without ``--repair``) or
a failed ``restore --verify``, 74 for unrecoverable storage errors (a file
that is not a WAL at all, a directory written by 2.x's SQLite backend).
"""

import io
import os
import re
import sqlite3

import pytest

from repro.cli import main
from repro.errors import StorageError
from repro.materialize.delta import parse_delta
from repro import connect
from repro.storage import StorageManager
from repro.storage.manager import WAL_FILENAME

VIEWS = "v1(X, Y) :- cites(X, Y)."
DATA = "cites(a, b). cites(b, c). refs(a, 1)."


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def seeded_store(tmp_path):
    storage = str(tmp_path / "store")
    engine = connect(views=VIEWS, data=DATA, storage=storage, wal="batch")
    engine.apply(parse_delta("+ cites(c, d).\n- cites(a, b)."))
    engine.close()
    return storage


def views_file(tmp_path):
    path = tmp_path / "views.dl"
    path.write_text(VIEWS)
    return str(path)


class TestSnapshotCommand:
    def test_writes_a_checkpoint(self, tmp_path):
        storage = seeded_store(tmp_path)
        code, output = run_cli(
            ["snapshot", "--storage", storage, "--views", views_file(tmp_path)]
        )
        assert code == 0
        assert "# snapshot" in output and "seq=1" in output
        # Restoring from it now replays an empty tail.
        code, output = run_cli(["restore", "--storage", storage])
        assert code == 0
        assert "snapshot seq 1 + 0 WAL record(s)" in output


class TestRestoreCommand:
    def test_reports_and_exports_recovered_state(self, tmp_path):
        storage = seeded_store(tmp_path)
        exported = str(tmp_path / "facts.dl")
        code, output = run_cli(
            [
                "restore", "--storage", storage,
                "--views", views_file(tmp_path),
                "--verify", "--output", exported,
            ]
        )
        assert code == 0
        assert "# verified" in output
        facts = open(exported).read()
        assert '+ ' not in facts  # plain facts, not a delta
        assert 'cites("c", "d").' in facts
        assert 'cites("a", "b").' not in facts
        assert 'refs("a", 1).' in facts

    def test_fresh_directory_reports_nothing_to_recover(self, tmp_path):
        code, output = run_cli(
            ["restore", "--storage", str(tmp_path / "fresh")]
        )
        assert code == 0
        assert "nothing to recover" in output

    def test_verify_without_views_exits_nonzero(self, tmp_path):
        storage = seeded_store(tmp_path)
        code, output = run_cli(["restore", "--storage", storage, "--verify"])
        assert code == 1
        assert "--verify needs --views" in output

    def test_reports_the_snapshot_it_recovered_from(self, tmp_path):
        storage = seeded_store(tmp_path)
        code, output = run_cli(["restore", "--storage", storage])
        assert code == 0
        # The attach-time baseline, then the one journaled delta.
        assert "# recovered from snapshot seq 0 + 1 WAL record(s)\n" in output


class TestReplayCommand:
    def test_clean_log(self, tmp_path):
        storage = seeded_store(tmp_path)
        code, output = run_cli(["replay", "--storage", storage, "--show"])
        assert code == 0
        assert "# log is clean" in output
        assert "seq=1" in output

    def test_corrupt_tail_exit_codes(self, tmp_path):
        storage = seeded_store(tmp_path)
        with open(os.path.join(storage, WAL_FILENAME), "ab") as handle:
            handle.write(b"torn")
        code, output = run_cli(["replay", "--storage", storage])
        assert code == 1
        assert "re-run with --repair" in output

        code, output = run_cli(["replay", "--storage", storage, "--repair"])
        assert code == 0
        assert "repaired" in output

        code, output = run_cli(["replay", "--storage", storage])
        assert code == 0
        assert "# log is clean" in output

    def test_not_a_wal_exits_74(self, tmp_path):
        bogus = tmp_path / "bogus.log"
        bogus.write_text("NOT-A-WAL\n")
        code, _ = run_cli(
            ["replay", "--storage", str(tmp_path), "--wal-file", str(bogus)]
        )
        assert code == 74


class TestServeAndStatsFlags:
    def test_stats_includes_storage_section(self, tmp_path):
        import json

        storage = seeded_store(tmp_path)
        code, output = run_cli(
            [
                "stats", "--views", views_file(tmp_path),
                "--storage", storage, "--stats-json",
            ]
        )
        assert code == 0
        stats = json.loads(output)
        assert stats["storage"]["wal_lag"] == 0
        relations = stats["session"]["storage"]["relations"]
        assert relations["cites"]["rows"] == 2



def legacy_store(tmp_path):
    """The base store of 2.x's SQLite backend, beside its empty log."""
    storage = tmp_path / "store"
    storage.mkdir()
    conn = sqlite3.connect(str(storage / "data.sqlite"))
    conn.executescript(
        "CREATE TABLE repro_catalog (name TEXT PRIMARY KEY, arity INTEGER NOT NULL);"
        "CREATE TABLE repro_meta (key TEXT PRIMARY KEY, value TEXT);"
        "INSERT INTO repro_meta VALUES ('applied_seq', '0');"
    )
    conn.commit()
    conn.close()
    (storage / WAL_FILENAME).write_bytes(b"RWAL1\n")
    return storage


#: Every way to open a storage directory: a library call raises, a verb exits.
OPENERS = {
    "connect": lambda d: connect(views=VIEWS, storage=d),
    "connect-data": lambda d: connect(views=VIEWS, data=DATA, storage=d),
    "manager": lambda d: StorageManager(d),
    "restore": lambda d: run_cli(["restore", "--storage", d]),
    "stats": lambda d: run_cli(["stats", "--views", VIEWS, "--storage", d]),
    "snapshot": lambda d: run_cli(["snapshot", "--storage", d, "--views", VIEWS]),
    "serve": lambda d: run_cli(["serve", "--views", VIEWS, "--storage", d]),
}


class TestLegacySqliteDirectory:
    @pytest.mark.parametrize("opener", list(OPENERS))
    def test_a_2x_sqlite_directory_is_refused_untouched(self, tmp_path, capsys, opener):
        storage = legacy_store(tmp_path)

        def files():
            return {path.name: path.read_bytes() for path in storage.iterdir()}

        before = files()
        way_out = r"repro restore --storage DIR --output"
        if opener.startswith(("connect", "manager")):
            with pytest.raises(StorageError, match=way_out):
                OPENERS[opener](str(storage))
        else:
            code, _ = OPENERS[opener](str(storage))
            assert code == 74
            assert re.search(way_out, capsys.readouterr().err)
        assert files() == before
