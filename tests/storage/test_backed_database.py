"""BackedDatabase: lazy hydration, write-through, and pushdown scans.

The invariants under test:

* opening a backed database reads only the backend *catalog* — relation
  content stays cold until something actually needs the rows;
* every mutation is written through to the backend, so reopening the same
  backend file reproduces the database exactly;
* ``storage_scan`` serves constant-filtered scans straight from a
  pushdown-capable backend while the relation is still cold, and steps
  aside (returns None) once the relation is hydrated or for backends
  without pushdown.
"""

import pytest

from repro.engine.database import Database
from repro.engine.relation import Relation
from repro.materialize.delta import Delta
from repro.storage import BackedDatabase, MemoryBackend
from repro.storage.sqlite import SQLiteBackend


def seeded_backend(tmp_path):
    backend = SQLiteBackend(str(tmp_path / "data.sqlite"))
    backend.create_relation("cites", 2)
    backend.insert("cites", 2, [("a", "b"), ("b", "c")])
    backend.create_relation("refs", 2)
    backend.insert("refs", 2, [("a", 1)])
    return backend


class TestHydration:
    def test_open_is_lazy_and_reads_hydrate(self, tmp_path):
        database = BackedDatabase(seeded_backend(tmp_path))
        assert database.schema() == {"cites": 2, "refs": 2}
        assert not database.is_hydrated("cites")
        assert database.hydrations == 0

        assert database.tuples("cites") == frozenset({("a", "b"), ("b", "c")})
        assert database.is_hydrated("cites")
        assert not database.is_hydrated("refs")
        assert database.hydrations == 1

    def test_size_counts_cold_relations_without_hydrating(self, tmp_path):
        database = BackedDatabase(seeded_backend(tmp_path))
        assert database.size() == 3
        assert database.hydrations == 0

    def test_equality_with_plain_database_hydrates_all(self, tmp_path):
        database = BackedDatabase(seeded_backend(tmp_path))
        plain = Database.from_dict(
            {"cites": [("a", "b"), ("b", "c")], "refs": [("a", 1)]}
        )
        assert database == plain
        assert database.is_hydrated("cites") and database.is_hydrated("refs")

    def test_storage_stats_distinguishes_cold_and_hot(self, tmp_path):
        database = BackedDatabase(seeded_backend(tmp_path))
        database.tuples("cites")
        stats = database.storage_stats()
        assert stats["cites"]["hydrated"] is True
        assert stats["refs"] == {"rows": 1, "hydrated": False}


class TestWriteThrough:
    def test_mutations_survive_reopen(self, tmp_path):
        path = str(tmp_path / "data.sqlite")
        backend = SQLiteBackend(path)
        database = BackedDatabase.from_database(
            Database.from_dict({"cites": [("a", "b")]}), backend
        )
        database.add_fact("cites", ("b", "c"))
        database.remove_fact("cites", ("a", "b"))
        database.apply_delta(
            Delta(inserted={"cites": [("c", "d")]}, removed={})
        )
        database.ensure_relation("empty", 3)
        backend.close()

        reopened = BackedDatabase(SQLiteBackend(path))
        assert reopened.tuples("cites") == frozenset({("b", "c"), ("c", "d")})
        assert reopened.schema()["empty"] == 3

    def test_add_relation_replaces_backend_rows(self, tmp_path):
        backend = seeded_backend(tmp_path)
        database = BackedDatabase(backend)
        replacement = Relation("cites", 2)
        replacement.add(("x", "y"))
        database.add_relation(replacement)
        assert sorted(backend.scan("cites")) == [("x", "y")]

    def test_remove_relation_drops_backend_table(self, tmp_path):
        backend = seeded_backend(tmp_path)
        database = BackedDatabase(backend)
        database.remove_relation("refs")
        assert "refs" not in backend.relation_names()


class TestPushdown:
    def test_cold_pushdown_scan_returns_rows(self, tmp_path):
        database = BackedDatabase(seeded_backend(tmp_path))
        rows = database.storage_scan("cites", {0: "a"})
        assert rows is not None and list(rows) == [("a", "b")]
        assert not database.is_hydrated("cites")

    def test_hydrated_relation_declines_pushdown(self, tmp_path):
        database = BackedDatabase(seeded_backend(tmp_path))
        database.tuples("cites")
        assert database.storage_scan("cites", {0: "a"}) is None

    def test_backend_without_pushdown_declines(self):
        backend = MemoryBackend()
        backend.create_relation("r", 1)
        backend.insert("r", 1, [("a",)])
        database = BackedDatabase(backend)
        assert database.storage_scan("r", {0: "a"}) is None


class TestHashing:
    def test_backed_database_is_unhashable(self, tmp_path):
        database = BackedDatabase(seeded_backend(tmp_path))
        with pytest.raises(TypeError):
            hash(database)
