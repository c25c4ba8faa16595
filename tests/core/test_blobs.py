"""The one on-disk writer: atomic writes and the pickle-per-entry blob store."""

import pytest

from repro.core.blobs import BlobStore, atomic_write


class TestAtomicWrite:
    def test_failed_write_keeps_old_file_and_no_tmp(self, tmp_path):
        path = tmp_path / "record.json"
        atomic_write(path, b"old")
        with pytest.raises(TypeError):
            atomic_write(path, "text, not bytes")  # the write itself raises
        assert path.read_bytes() == b"old"
        assert list(tmp_path.glob("*.tmp.*")) == []


class TestBlobStore:
    def test_round_trip(self, tmp_path):
        store = BlobStore(tmp_path / "blobs")
        value = {"artifact": [1, 2.5, "x"], "nested": (None, b"\x00")}
        assert store.get("ab" * 32) is None
        store.put("ab" * 32, value)
        assert store.get("ab" * 32) == value
        assert BlobStore(tmp_path / "blobs").get("ab" * 32) == value

    def test_write_failure_is_not_cached(self, tmp_path):
        store = BlobStore(tmp_path / "blobs")
        store.directory.rmdir()
        store.directory.write_bytes(b"")  # every write now raises OSError
        store.put("k", 1)
        assert store.get("k") is None
