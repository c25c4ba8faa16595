"""One way to put bytes on disk: atomic writes and a pickle-per-entry store.

:func:`atomic_write` is the only tmp + ``os.replace`` writer in the
package: the job spool (records, results, programs), shard leases,
cancel markers and both compile caches go through it, so a concurrent
reader never observes a torn file.  It adds no ``fsync``: the spool
writes through it on every job transition, and the atomicity it promises
is against concurrent readers, not power loss.

:class:`BlobStore` is the on-disk shape behind both compile caches
(:class:`~repro.experiments.batch.ResultCache` and
:class:`~repro.core.pipeline.DiskPipelineCache`): flat ``<sha256>.pkl``
entries plus transient ``*.tmp.<pid>`` files.  :func:`cache_stats`,
:func:`evict_lru` and :func:`cache_clear` are its GC layer, behind
``python -m repro cache``.
"""

from __future__ import annotations

import os
import pickle
from pathlib import Path
from typing import Any


def atomic_write(path: Path, data: bytes) -> None:
    """Write *data* to a tmp file next to *path*, then ``os.replace`` it.

    If the write raises, the tmp file is removed and the error re-raised;
    the previous contents of *path* (if any) stay intact.
    """
    tmp = path.with_suffix(f".tmp.{os.getpid()}")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            tmp.unlink(missing_ok=True)
        except OSError:
            pass
        raise


class BlobStore:
    """Pickle-per-entry directory keyed by sha256 hex strings.

    Every failure to read or unpickle an entry is a miss, so the caller
    recompiles and rewrites it: a missing file, a torn write, a class
    moved since the entry was pickled, or arbitrary bytes — on which
    ``pickle.load`` raises almost anything (``ValueError``,
    ``OverflowError``, ``MemoryError``, ...).  A write failure (disk full,
    read-only directory) leaves the entry uncached.  A cache entry must
    never fail a compile.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def get(self, key: str) -> Any:
        """The unpickled entry under *key*, or ``None`` on a miss.

        A hit re-stamps the entry's mtime, so LRU eviction drops cold
        entries first and recency survives process restarts.
        """
        path = self.directory / f"{key}.pkl"
        try:
            with path.open("rb") as fh:
                value = pickle.load(fh)
        except Exception:
            return None
        try:
            os.utime(path)
        except OSError:
            pass  # a concurrent eviction won: the value is still good
        return value

    def put(self, key: str, value: Any) -> None:
        try:
            atomic_write(self.directory / f"{key}.pkl", pickle.dumps(value))
        except OSError:
            pass


def _cache_entries(directory: str | Path) -> list[tuple[Path, int, float]]:
    """``(path, size_bytes, mtime)`` for every entry, oldest first."""
    entries = []
    for path in Path(directory).glob("*.pkl"):
        try:
            stat = path.stat()
        except OSError:
            continue  # evicted/replaced by a concurrent process
        entries.append((path, stat.st_size, stat.st_mtime))
    entries.sort(key=lambda e: e[2])
    return entries


def cache_stats(directory: str | Path) -> dict[str, Any]:
    """Entry count, byte total, and mtime range of a cache directory."""
    entries = _cache_entries(directory)
    return {
        "directory": str(directory),
        "entries": len(entries),
        "total_bytes": sum(size for _p, size, _m in entries),
        "oldest_mtime": entries[0][2] if entries else None,
        "newest_mtime": entries[-1][2] if entries else None,
    }


def evict_lru(directory: str | Path, max_bytes: int) -> dict[str, int]:
    """Delete least-recently-used entries until the total fits *max_bytes*.

    Recency is mtime: writes stamp entries, hits re-stamp them.  Missing
    files (raced by a concurrent evictor) are skipped.  Returns
    ``{"removed": n, "removed_bytes": b, "remaining_bytes": r}``.
    """
    if max_bytes < 0:
        raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
    entries = _cache_entries(directory)
    total = sum(size for _p, size, _m in entries)
    removed = removed_bytes = 0
    for path, size, _mtime in entries:
        if total <= max_bytes:
            break
        try:
            path.unlink()
        except OSError:
            continue
        total -= size
        removed += 1
        removed_bytes += size
    return {
        "removed": removed,
        "removed_bytes": removed_bytes,
        "remaining_bytes": total,
    }


def cache_clear(directory: str | Path) -> int:
    """Delete every entry (and stray tmp file); returns entries removed."""
    removed = 0
    base = Path(directory)
    for pattern in ("*.pkl", "*.tmp.*"):
        for path in base.glob(pattern):
            try:
                path.unlink()
            except OSError:
                continue
            if pattern == "*.pkl":
                removed += 1
    return removed
