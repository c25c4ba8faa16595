"""Blob-store eviction (LRU-by-mtime) under DiskPipelineCache, and the
cache CLI."""

import os
import pickle
import time

import pytest

from repro.__main__ import main
from repro.core import AtomiqueCompiler, AtomiqueConfig
from repro.core.blobs import cache_clear, cache_stats, evict_lru
from repro.core.pipeline import DiskPipelineCache
from repro.core.serialize import program_to_dict
from repro.generators import qaoa_random
from repro.hardware import RAAArchitecture


def fill(directory, names_sizes, start=1000.0):
    """Create fake entries with controlled sizes and increasing mtimes."""
    for i, (name, size) in enumerate(names_sizes):
        path = directory / f"{name}.pkl"
        path.write_bytes(b"x" * size)
        ts = start + i
        os.utime(path, (ts, ts))


class TestEvictLru:
    def test_oldest_entries_go_first(self, tmp_path):
        fill(tmp_path, [("a", 100), ("b", 100), ("c", 100)])
        report = evict_lru(tmp_path, max_bytes=150)
        assert report["removed"] == 2
        assert report["remaining_bytes"] == 100
        assert not (tmp_path / "a.pkl").exists()
        assert not (tmp_path / "b.pkl").exists()
        assert (tmp_path / "c.pkl").exists()

    def test_under_cap_is_noop(self, tmp_path):
        fill(tmp_path, [("a", 10), ("b", 10)])
        report = evict_lru(tmp_path, max_bytes=1000)
        assert report["removed"] == 0
        assert (tmp_path / "a.pkl").exists()

    def test_zero_cap_clears_everything(self, tmp_path):
        fill(tmp_path, [("a", 10), ("b", 10)])
        report = evict_lru(tmp_path, max_bytes=0)
        assert report["removed"] == 2
        assert report["remaining_bytes"] == 0

    def test_stats_and_clear(self, tmp_path):
        fill(tmp_path, [("a", 64), ("b", 36)])
        (tmp_path / "stray.tmp.123").write_bytes(b"partial")
        stats = cache_stats(tmp_path)
        assert stats["entries"] == 2
        assert stats["total_bytes"] == 100
        assert cache_clear(tmp_path) == 2
        assert cache_stats(tmp_path)["entries"] == 0
        assert not (tmp_path / "stray.tmp.123").exists()


def program_doc(result):
    """The v2 program document minus its wall-clock header fields."""
    doc = program_to_dict(result.program)
    for timing in ("emit_seconds", "compile_seconds"):
        doc.pop(timing, None)
    return doc


class TestDiskCacheCap:
    def test_lru_keeps_recently_read_entries(self, tmp_path):
        cache = DiskPipelineCache(tmp_path)
        for i in range(4):
            cache.store(("pass", i), b"v" * 64)
        paths = sorted(tmp_path.glob("*.pkl"))
        assert len(paths) == 4
        # age everything, then touch one entry via a disk hit
        for p in paths:
            os.utime(p, (1000.0, 1000.0))
        fresh = DiskPipelineCache(tmp_path)  # cold in-memory layer
        assert fresh.lookup("pass", ("pass", 2)) == b"v" * 64
        total = cache_stats(tmp_path)["total_bytes"]
        per_entry = total // 4
        evict_lru(tmp_path, max_bytes=per_entry)
        survivors = list(tmp_path.glob("*.pkl"))
        assert len(survivors) == 1
        with survivors[0].open("rb") as fh:
            version, value = pickle.load(fh)
        assert value == b"v" * 64

    def test_capped_cache_still_compiles_correctly(self, tmp_path):
        circuit = qaoa_random(8, seed=3)
        arch = RAAArchitecture.default(side=4)

        def compile_once():
            cache = DiskPipelineCache(tmp_path)  # cold in-memory layer
            return AtomiqueCompiler(
                arch, AtomiqueConfig(seed=7), cache=cache
            ).compile(circuit)

        first = compile_once()
        assert cache_stats(tmp_path)["entries"] > 0
        # gc to zero between the compiles: the second recompiles every pass
        evict_lru(tmp_path, 0)
        assert cache_stats(tmp_path)["entries"] == 0
        second = compile_once()
        assert program_doc(second) == program_doc(first)
        assert cache_stats(tmp_path)["entries"] > 0


class TestCacheCli:
    def test_stats_gc_clear_flow(self, tmp_path, capsys):
        fill(tmp_path, [("a", 100), ("b", 100), ("c", 100)])
        assert main(["cache", "stats", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "entries      : 3" in out
        assert "total bytes  : 300" in out

        assert main(["cache", "gc", str(tmp_path), "--max-bytes", "150"]) == 0
        out = capsys.readouterr().out
        assert "evicted 2 entries" in out
        assert cache_stats(tmp_path)["entries"] == 1

        assert main(["cache", "clear", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "cleared 1 entries" in out
        assert cache_stats(tmp_path)["entries"] == 0

    def test_gc_requires_max_bytes(self, tmp_path, capsys):
        assert main(["cache", "gc", str(tmp_path)]) == 2
        assert "requires --max-bytes" in capsys.readouterr().err

    def test_gc_negative_cap_refused_and_touches_nothing(self, tmp_path, capsys):
        fill(tmp_path, [("a", 100), ("b", 100), ("c", 100)])
        assert main(["cache", "gc", str(tmp_path), "--max-bytes", "-1"]) == 2
        assert "max_bytes must be >= 0" in capsys.readouterr().err
        assert cache_stats(tmp_path)["entries"] == 3

    @pytest.mark.parametrize("action", ["stats", "gc", "clear"])
    def test_missing_directory_is_an_error(self, tmp_path, capsys, action):
        missing = tmp_path / "no-such-cache"
        argv = ["cache", action, str(missing)]
        if action == "gc":
            argv += ["--max-bytes", "0"]
        assert main(argv) == 2
        assert "no such cache directory" in capsys.readouterr().err
        assert not missing.exists()
