"""``docs/migration.md``'s "One durable format (removals)" table, row by row.

A storage directory holds one format, snapshots plus a WAL.  Each row of the
table names an option, a name or a field that went with the SQLite backend;
each case checks that it is gone and that what the table says replaces it is
there.  The refusal of a 2.x ``data.sqlite`` directory is pinned per entry
point in ``test_cli_verbs.py``.
"""

import ast
import http.client
import importlib
import io
import json
from pathlib import Path

import pytest

import repro.storage
from repro import connect
from repro.cli import main
from repro.engine.database import Database
from repro.materialize.delta import parse_delta
from repro.server import ReproServer
from repro.storage import StorageManager

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
VIEWS = "v1(X, Y) :- cites(X, Y)."
DATA = "cites(a, b). cites(b, c)."


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_connect_takes_no_backend(tmp_path, backend):
    storage = tmp_path / "store"
    with pytest.raises(TypeError, match="backend"):
        connect(views=VIEWS, data=DATA, storage=str(storage), backend=backend)
    assert not storage.exists()


def test_the_storage_package_lists_no_backends():
    assert "BACKENDS" not in repro.storage.__all__
    assert not hasattr(repro.storage, "BACKENDS")


def test_the_sqlite_module_is_gone():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.storage.sqlite")


def test_nothing_in_src_imports_sqlite3():
    importers = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(module.split(".")[0] == "sqlite3" for module in modules):
                importers.append(str(path.relative_to(SRC)))
    assert importers == []


def test_the_manager_names_no_backend(tmp_path):
    manager = StorageManager(str(tmp_path / "store"))
    try:
        assert not hasattr(manager, "backend_name")
    finally:
        manager.close()


def test_mark_applied_takes_only_the_seq(tmp_path):
    manager = StorageManager(str(tmp_path / "store"))
    try:
        delta = parse_delta("+ r(1).")
        seq = manager.journal(delta, 0)
        with pytest.raises(TypeError):
            manager.mark_applied(seq, delta)
        assert manager.status()["wal_lag"] == 1
        manager.mark_applied(seq)
        assert manager.status()["wal_lag"] == 0
    finally:
        manager.close()


def healthz_storage(engine):
    with ReproServer(engine) as running:
        client = http.client.HTTPConnection("127.0.0.1", running.port, timeout=10)
        try:
            client.request("GET", "/healthz")
            return json.loads(client.getresponse().read())["storage"]
        finally:
            client.close()


#: Every place that reported the backend, read off a durable engine.
STATUS_BLOCKS = {
    "manager-status": lambda engine: engine.storage.status(),
    "storage_status": lambda engine: engine.storage_status(),
    "stats-storage": lambda engine: engine.stats()["storage"],
    "recovery_report": lambda engine: engine.recovery_report,
    "healthz-storage": healthz_storage,
}


@pytest.mark.parametrize("block", list(STATUS_BLOCKS))
def test_no_status_block_reports_a_backend(tmp_path, block):
    storage = str(tmp_path / "store")
    writer = connect(views=VIEWS, data=DATA, storage=storage)
    writer.apply("+ cites(c, d).")
    writer.close()
    engine = connect(views=VIEWS, storage=storage)
    try:
        status = STATUS_BLOCKS[block](engine)
        assert "backend" not in status
        # What recovery started from is the snapshot's sequence number.
        key = "base_seq" if block == "recovery_report" else "snapshot_seq"
        assert status[key] == 0
    finally:
        engine.close()


def test_restore_names_an_empty_base(tmp_path):
    # Facts that only ever arrived as deltas: no snapshot, the log is all.
    storage = str(tmp_path / "store")
    engine = connect(views=VIEWS, storage=storage, wal="batch")
    engine.apply("+ cites(a, b).")
    engine.close()
    out = io.StringIO()
    assert main(["restore", "--storage", storage], out=out) == 0
    assert "# recovered from empty state + 1 WAL record(s)" in out.getvalue()
    assert "backend" not in out.getvalue()
    manager = StorageManager(storage)
    try:
        recovered = manager.recover()
        assert recovered.database == Database() and len(recovered.tail) == 1
    finally:
        manager.close()
