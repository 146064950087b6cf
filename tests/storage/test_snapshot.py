"""Snapshot file format: atomic write, validation chain, listing and pruning.

Every malformed-file case must surface as :class:`SnapshotError` — recovery
treats an unreadable snapshot as "fall back to an older one", so read errors
have to be catchable and precise, never a raw ``EOFError``/``KeyError``.
"""

import os

import pytest

from repro.errors import SnapshotError
from repro.storage.snapshot import (
    latest_snapshot,
    list_snapshots,
    read_snapshot,
    write_snapshot,
)
from repro.storage.snapshot import snapshot_path

RELATIONS = {"r": (2, [("a", 1), ("b", 2)]), "s": (1, [("x",)])}


def test_write_read_roundtrip(tmp_path):
    directory = str(tmp_path)
    state = {"format": 1, "counts": {"v1": {("a",): 2}}}
    path, size = write_snapshot(
        directory, seq=7, version=12, relations=RELATIONS, store_state=state
    )
    assert os.path.getsize(path) == size
    snapshot = read_snapshot(path)
    assert snapshot.seq == 7
    assert snapshot.version == 12
    assert snapshot.relations == RELATIONS
    assert snapshot.store_state == state
    assert snapshot.size_bytes == size


def test_listing_orders_newest_first_and_ignores_noise(tmp_path):
    directory = str(tmp_path)
    write_snapshot(directory, seq=1, version=1, relations={}, prune=False)
    write_snapshot(directory, seq=5, version=3, relations={}, prune=False)
    (tmp_path / "not-a-snapshot.txt").write_text("noise")
    (tmp_path / "snapshot-zzz.snap").write_text("badly named")
    entries = list_snapshots(directory)
    assert entries == [
        (5, snapshot_path(directory, 5)),
        (1, snapshot_path(directory, 1)),
    ]
    assert latest_snapshot(directory) == (5, snapshot_path(directory, 5))


def test_prune_keeps_only_the_newest(tmp_path):
    directory = str(tmp_path)
    write_snapshot(directory, seq=1, version=1, relations={}, prune=False)
    write_snapshot(directory, seq=2, version=2, relations={})
    assert list_snapshots(directory) == [(2, snapshot_path(directory, 2))]


def test_missing_directory_lists_empty(tmp_path):
    missing = str(tmp_path / "never-created")
    assert list_snapshots(missing) == []
    assert latest_snapshot(missing) is None


@pytest.mark.parametrize(
    "mutilate",
    [
        lambda data: b"WRONGMAG" + data[8:],                # bad magic
        lambda data: data[: len(data) // 2],                # truncated payload
        lambda data: data[:10],                             # truncated header
        lambda data: data[:-1] + bytes([data[-1] ^ 0xFF]),  # payload bit flip
        lambda data: b"",                                   # empty file
    ],
)
def test_malformed_snapshots_raise_snapshot_error(tmp_path, mutilate):
    directory = str(tmp_path)
    path, _ = write_snapshot(directory, seq=3, version=1, relations=RELATIONS)
    data = open(path, "rb").read()
    with open(path, "wb") as handle:
        handle.write(mutilate(data))
    with pytest.raises(SnapshotError):
        read_snapshot(path)


def test_missing_file_raises_snapshot_error(tmp_path):
    with pytest.raises(SnapshotError):
        read_snapshot(str(tmp_path / "snapshot-0000000000000009.snap"))


def test_no_temp_files_left_behind(tmp_path):
    directory = str(tmp_path)
    write_snapshot(directory, seq=1, version=1, relations=RELATIONS)
    leftovers = [n for n in os.listdir(directory) if not n.endswith(".snap")]
    assert leftovers == []
