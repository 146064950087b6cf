"""Contract tests of the sqlite base store (:class:`SQLiteBackend`).

It promises set-semantics insert/delete with accurate new/present counts,
scans of unknown relations yielding nothing, mutations of unknown relations
raising, idempotent relation creation with arity-conflict detection, a
metadata table, value-encoding fidelity (heterogeneous Python values
round-trip with equality intact) and rollback on a failed transaction.
"""

import pytest

from repro.rewriting.inverse_rules import SkolemValue
from repro.errors import StorageError
from repro.storage.sqlite import SQLiteBackend, decode_value, encode_value


@pytest.fixture
def backend(tmp_path):
    instance = SQLiteBackend(str(tmp_path / "data.sqlite"))
    yield instance
    instance.close()


class TestContract:
    def test_create_insert_scan_roundtrip(self, backend):
        backend.create_relation("r", 2)
        assert backend.insert("r", 2, [("a", 1), ("b", 2), ("a", 1)]) == 2
        assert sorted(backend.scan("r"), key=repr) == [("a", 1), ("b", 2)]
        assert backend.arity("r") == 2

    def test_create_is_idempotent_but_arity_conflicts_raise(self, backend):
        backend.create_relation("r", 2)
        backend.create_relation("r", 2)
        with pytest.raises(StorageError):
            backend.create_relation("r", 3)

    def test_delete_returns_actually_present_count(self, backend):
        backend.create_relation("r", 1)
        backend.insert("r", 1, [("a",), ("b",)])
        assert backend.delete("r", [("a",), ("missing",)]) == 1
        assert list(backend.scan("r")) == [("b",)]

    def test_unknown_relation_scans_empty_and_mutations_raise(self, backend):
        assert list(backend.scan("nope")) == []
        with pytest.raises(StorageError):
            backend.delete("nope", [("a",)])
        with pytest.raises(StorageError):
            backend.arity("nope")

    def test_meta_roundtrip(self, backend):
        assert backend.get_meta("applied_seq") is None
        backend.set_meta("applied_seq", "17")
        assert backend.get_meta("applied_seq") == "17"
        backend.set_meta("applied_seq", "18")
        assert backend.get_meta("applied_seq") == "18"

    def test_numeric_equality_dedup_matches_python(self, backend):
        # True == 1 and 2.0 == 2 in Python; a backend must not hold both.
        backend.create_relation("r", 1)
        assert backend.insert("r", 1, [(1,), (True,)]) == 1
        assert backend.insert("r", 1, [(2,), (2.0,)]) == 1
        assert sorted(backend.scan("r")) == [(1,), (2,)]

    def test_closed_backend_rejects_mutations(self, backend):
        backend.create_relation("r", 1)
        backend.close()
        with pytest.raises(StorageError):
            backend.insert("r", 1, [("a",)])
        backend.close()  # close must tolerate repeated calls


class TestSQLiteSpecifics:
    def test_values_survive_reopen(self, tmp_path):
        path = str(tmp_path / "data.sqlite")
        values = ("text", 0, -3, 2.5, True)
        backend = SQLiteBackend(path)
        backend.create_relation("r", len(values))
        backend.insert("r", len(values), [values])
        backend.set_meta("applied_seq", "5")
        backend.close()

        reopened = SQLiteBackend(path)
        try:
            [row] = list(reopened.scan("r"))
            assert row == values
            assert reopened.get_meta("applied_seq") == "5"
        finally:
            reopened.close()

    def test_transaction_rolls_back_on_error(self, tmp_path):
        backend = SQLiteBackend(str(tmp_path / "data.sqlite"))
        try:
            backend.create_relation("r", 1)
            backend.insert("r", 1, [("keep",)])
            with pytest.raises(RuntimeError):
                with backend.transaction():
                    backend.insert("r", 1, [("doomed",)])
                    raise RuntimeError("boom")
            assert list(backend.scan("r")) == [("keep",)]
        finally:
            backend.close()

    def test_malicious_relation_name_rejected(self, tmp_path):
        backend = SQLiteBackend(str(tmp_path / "data.sqlite"))
        try:
            with pytest.raises(StorageError):
                backend.create_relation('r"; DROP TABLE repro_meta; --', 1)
        finally:
            backend.close()

    def test_encode_decode_roundtrip_for_each_type(self):
        for value in ("plain", "", "i123", 7, -7, 2.5):
            assert decode_value(encode_value(value)) == value
        assert decode_value(encode_value(True)) == 1
        assert decode_value(encode_value(3.0)) == 3

    def test_nan_and_unsupported_types_raise(self):
        with pytest.raises(StorageError):
            encode_value(float("nan"))
        with pytest.raises(StorageError):
            encode_value(object())

    def test_skolem_values_are_not_storable(self):
        # Invented values never leave an inverse-rules fixpoint; a stray one
        # gets the unsupported-type error, not an encoding of its own.
        with pytest.raises(StorageError, match="SkolemValue"):
            encode_value(SkolemValue("f", (1, "x")))
        with pytest.raises(StorageError, match="unknown value tag 'k'"):
            decode_value('k{"f":"f","a":["i1"]}')
