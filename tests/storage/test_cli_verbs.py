"""The snapshot / restore / replay CLI verbs and their documented exit codes.

Exit-code contract (see the :mod:`repro.cli` module docs): 0 success,
1 "found corruption but did not repair it" (replay without ``--repair``) or
a failed ``restore --verify``, 74 for unrecoverable storage errors (a file
that is not a WAL at all).
"""

import io
import os

import pytest

from repro.cli import main
from repro.materialize.delta import parse_delta
from repro import connect
from repro.storage.manager import WAL_FILENAME

VIEWS = "v1(X, Y) :- cites(X, Y)."
DATA = "cites(a, b). cites(b, c). refs(a, 1)."


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def seeded_store(tmp_path, backend=None):
    storage = str(tmp_path / "store")
    engine = connect(
        views=VIEWS, data=DATA, storage=storage, backend=backend, wal="batch"
    )
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

    def test_sqlite_store_reports_its_base(self, tmp_path):
        storage = seeded_store(tmp_path, backend="sqlite")
        code, output = run_cli(["restore", "--storage", storage])
        assert code == 0
        assert "sqlite base store at seq 1" in output


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

        storage = seeded_store(tmp_path, backend="sqlite")
        code, output = run_cli(
            [
                "stats", "--views", views_file(tmp_path),
                "--storage", storage, "--stats-json",
            ]
        )
        assert code == 0
        stats = json.loads(output)
        assert stats["storage"]["backend"] == "sqlite"
        assert stats["storage"]["wal_lag"] == 0
        relations = stats["session"]["storage"]["relations"]
        assert relations["cites"]["rows"] == 2

    def test_naming_the_other_backend_exits_74(self, tmp_path):
        storage = seeded_store(tmp_path, backend="sqlite")
        code, _ = run_cli(
            [
                "stats", "--views", views_file(tmp_path),
                "--storage", storage, "--backend", "memory",
            ]
        )
        assert code == 74
