"""Pass-pipeline compiler architecture: the Fig. 3 flow as composable passes.

The monolithic ``AtomiqueCompiler.compile`` flow is expressed as five
passes over a shared :class:`CompilationContext`:

1. :class:`LowerToNativePass`   — lower to the RAA native basis {CZ, U3};
2. :class:`ArrayMapperPass`     — greedy MAX k-cut qubit-array mapping
   (Algorithm 1);
3. :class:`SabreSwapPass`       — SABRE SWAP insertion on the multipartite
   coupling graph (Fig. 5), SWAPs decomposed to 3 CZ + 1Q;
4. :class:`AtomMapperPass`      — load-balance SLM + aligned AOD placement
   (Figs. 6-7);
5. :class:`StageRouterPass`     — high-parallelism routing into stages
   (Figs. 8-11).

:class:`PassPipeline` executes a declared pass list, records per-pass
wall-time in ``context.pass_seconds``, and assembles the usual
:class:`~repro.core.compiler.CompileResult`.  The default pipeline is
bit-identical to the pre-refactor monolithic compiler; custom pipelines can
reorder, drop, or insert passes (instrumentation, caching, alternative
mappers) without touching the compiler facade.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

from ..circuits.circuit import QuantumCircuit
from ..circuits.decompose import decompose_swaps, lower_to_two_qubit, merge_1q_runs
from ..hardware.raa import AtomLocation, RAAArchitecture
from ..transpile.layout import Layout
from ..transpile.sabre import sabre_route
from .array_mapper import map_qubits_to_arrays
from .atom_mapper import map_qubits_to_atoms
from .program import ProgramStore
from .router import HighParallelismRouter

if TYPE_CHECKING:  # avoid a module-level cycle with .compiler
    from .compiler import AtomiqueConfig, CompileResult


class PipelineError(RuntimeError):
    """A pass ran before the context field it depends on was produced."""


#: Bump when pass artifacts or the cache-key layout change shape.  Stale
#: on-disk entries written under an older version land at a different path,
#: so they are recompiled, never deserialized.
PIPELINE_CACHE_VERSION = 1


def _circuit_fingerprint(circuit: QuantumCircuit) -> str:
    """SHA-256 over a circuit's register size and exact gate stream."""
    h = hashlib.sha256()
    h.update(f"{circuit.num_qubits}|{circuit.name}|".encode())
    for g in circuit.gates:
        h.update(f"{g.name}{tuple(g.qubits)}{tuple(g.params)};".encode())
    return h.hexdigest()


def _architecture_fingerprint(architecture: RAAArchitecture) -> str:
    return (
        f"{architecture.slm_shape!r}|{architecture.aod_shapes!r}|"
        f"{architecture.params!r}"
    )


class PipelineCache:
    """Prefix-reuse store for pass artifacts shared across pipeline runs.

    Two compiles that agree on a *prefix* of the Fig. 3 flow — same circuit,
    same architecture, and the same values for only the config knobs the
    prefix consumes — reuse its cached artifacts instead of recomputing
    them.  Each pass keys on exactly its input closure:

    ======================  =====================================================
    pass                    key fields beyond (circuit, architecture)
    ======================  =====================================================
    ``lower``               — (circuit only)
    ``array_mapper``        ``gamma``, ``array_mapper``
    ``sabre_swap``          ``gamma``, ``array_mapper``, ``seed``
    ``atom_mapper``         ``gamma``, ``array_mapper``, ``seed``, ``atom_mapper``
    ======================  =====================================================

    Router toggles are deliberately absent from every key: a Fig. 22-style
    constraint-relaxation sweep shares one SABRE artifact across all its
    configs and recompiles only the stage router.  Passes are
    deterministic, so a hit is bit-identical to a recompute.

    The cache is in-memory and unbounded; share one instance across the
    compiles of a sweep (``AtomiqueCompiler(..., cache=...)`` or
    ``CompileOptions(pipeline_cache=...)``), not across a whole service.
    ``hits``/``misses`` count lookups per pass name for tests and
    instrumentation.
    """

    def __init__(self) -> None:
        self._store: dict[tuple, Any] = {}
        self.hits: dict[str, int] = {}
        self.misses: dict[str, int] = {}

    def lookup(self, pass_name: str, key: tuple) -> Any:
        """Cached value or None, counting the hit/miss under *pass_name*."""
        value = self._store.get(key)
        if value is None:
            self.misses[pass_name] = self.misses.get(pass_name, 0) + 1
        else:
            self.hits[pass_name] = self.hits.get(pass_name, 0) + 1
        return value

    def store(self, key: tuple, value: Any) -> None:
        self._store[key] = value

    @staticmethod
    def context_prefix(context: "CompilationContext") -> tuple[str, str]:
        """(circuit, architecture) fingerprints, computed once per run."""
        prefix = context.artifacts.get("cache_prefix")
        if prefix is None:
            prefix = (
                _circuit_fingerprint(context.circuit),
                _architecture_fingerprint(context.architecture),
            )
            context.artifacts["cache_prefix"] = prefix
        return prefix


def _key_digest(key: tuple) -> str:
    """Stable on-disk name for a pass-cache key.

    Key tuples hold the pass name, the circuit/architecture fingerprints,
    and config knob values (str/int/float/bool), whose ``repr`` round-trips
    exactly across processes and Python versions we support.
    """
    h = hashlib.sha256()
    h.update(f"v{PIPELINE_CACHE_VERSION}|{key!r}".encode())
    return h.hexdigest()


class DiskPipelineCache(PipelineCache):
    """Disk-backed prefix cache: pass artifacts persist across runs.

    Same contract as :class:`PipelineCache`, plus a pickle-per-entry
    directory keyed like :class:`~repro.experiments.batch.ResultCache`
    (sha256 of the versioned key tuple).  A fresh process pointed at the
    same directory reuses the SABRE/mapping artifacts of earlier runs —
    the compile service's shards share one directory so *cross-run* sweeps
    compile SABRE once per circuit.

    Writes are atomic (tmp + ``os.replace``), so concurrent workers sharing
    the directory never observe a torn entry.  Corrupt or stale entries are
    treated as misses and recompiled: entries carry their
    :data:`PIPELINE_CACHE_VERSION` both in the path digest and inside the
    payload, and a mismatch of either means the pickle is never trusted.

    ``max_bytes`` bounds the directory: when writes push the total entry
    size past the cap, least-recently-used entries (by mtime — disk hits
    touch their entry, so recency survives process restarts) are evicted
    until it fits.  ``None`` keeps the historical unbounded behaviour.
    The total is tracked as a running counter seeded by one directory
    scan at construction, so the write path never re-scans; concurrent
    workers each enforce the cap against their own (approximate) view,
    which re-syncs to the true on-disk total at every eviction pass.
    Evicting an entry another worker still wants is safe: it recompiles
    and rewrites it.

    ``disk_hits``/``disk_misses`` count per-pass lookups that went to disk
    (i.e. missed the in-memory layer) for tests and service stats.
    """

    def __init__(
        self, directory: str | Path, max_bytes: int | None = None
    ) -> None:
        super().__init__()
        if max_bytes is not None and max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.max_bytes = max_bytes
        self._approx_bytes = (
            cache_stats(self.directory)["total_bytes"]
            if max_bytes is not None
            else 0
        )
        self.disk_hits: dict[str, int] = {}
        self.disk_misses: dict[str, int] = {}

    def _path(self, key: tuple) -> Path:
        return self.directory / f"{_key_digest(key)}.pkl"

    def lookup(self, pass_name: str, key: tuple) -> Any:
        value = self._store.get(key)
        if value is not None:
            self.hits[pass_name] = self.hits.get(pass_name, 0) + 1
            return value
        value = self._load(key)
        if value is None:
            self.disk_misses[pass_name] = self.disk_misses.get(pass_name, 0) + 1
            self.misses[pass_name] = self.misses.get(pass_name, 0) + 1
            return None
        self._store[key] = value
        self.disk_hits[pass_name] = self.disk_hits.get(pass_name, 0) + 1
        self.hits[pass_name] = self.hits.get(pass_name, 0) + 1
        return value

    def store(self, key: tuple, value: Any) -> None:
        super().store(key, value)
        path = self._path(key)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        try:
            with tmp.open("wb") as fh:
                pickle.dump((PIPELINE_CACHE_VERSION, value), fh)
            os.replace(tmp, path)
        except OSError:
            # Disk full / read-only directory: degrade to the in-memory
            # layer (already updated above) — a cache write failure must
            # never fail the compile whose artifact it was persisting.
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass
            return
        if self.max_bytes is not None:
            try:
                self._approx_bytes += path.stat().st_size
            except OSError:
                pass  # already evicted/replaced by a concurrent worker
            if self._approx_bytes > self.max_bytes:
                report = evict_lru(self.directory, self.max_bytes)
                self._approx_bytes = report["remaining_bytes"]

    def _load(self, key: tuple) -> Any:
        path = self._path(key)
        payload = load_entry(path)
        if (
            not isinstance(payload, tuple)
            or len(payload) != 2
            or payload[0] != PIPELINE_CACHE_VERSION
        ):
            return None  # stale version: recompile, never deserialize
        try:
            # LRU bookkeeping: a disk hit refreshes the entry's mtime so
            # eviction (here or via `repro cache gc`) drops cold entries
            # first.  Best-effort — a concurrent eviction may win.
            os.utime(path)
        except OSError:
            pass
        return payload[1]


# -- cache-directory maintenance ---------------------------------------------
#
# The pickle-per-entry directories (DiskPipelineCache here, the batch
# layer's ResultCache) share one on-disk shape: flat ``*.pkl`` entries plus
# transient ``*.tmp.<pid>`` files.  These helpers are the shared load and
# GC layer behind both caches and ``python -m repro cache``.


def load_entry(path: Path) -> Any:
    """The unpickled contents of cache entry *path*, or ``None`` on a miss.

    Every failure to read or unpickle the entry is a miss, so the caller
    recompiles and rewrites it: a missing file, a torn write, a class moved
    since the entry was pickled, or arbitrary bytes — on which
    ``pickle.load`` raises almost anything (``ValueError``,
    ``OverflowError``, ``MemoryError``, ...).  A cache entry must never
    fail a compile.
    """
    try:
        with path.open("rb") as fh:
            return pickle.load(fh)
    except Exception:
        return None


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

    Recency is mtime: writes stamp entries, disk hits re-stamp them.
    Missing files (raced by a concurrent evictor) are skipped.  Returns
    ``{"removed": n, "removed_bytes": b, "remaining_bytes": r}``.
    """
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


@dataclass
class CompilationContext:
    """Mutable state threaded through the passes of one compile.

    ``circuit``, ``architecture`` and ``config`` are inputs; everything
    else is produced by passes.  ``pass_seconds`` maps each executed pass
    name to its wall-clock time, in execution order.  ``artifacts`` is a
    free-form scratch area for custom passes.
    """

    circuit: QuantumCircuit
    architecture: RAAArchitecture
    config: "AtomiqueConfig"

    native: QuantumCircuit | None = None
    array_of_qubit: list[int] | None = None
    transpiled: QuantumCircuit | None = None
    num_swaps: int | None = None
    final_layout: dict[int, int] | None = None
    locations: dict[int, AtomLocation] | None = None
    program: ProgramStore | None = None

    pass_seconds: dict[str, float] = field(default_factory=dict)
    artifacts: dict[str, Any] = field(default_factory=dict)
    #: optional shared prefix-reuse cache (see :class:`PipelineCache`)
    cache: "PipelineCache | None" = None

    def require(self, name: str) -> Any:
        """Fetch a context field, failing clearly if no pass produced it."""
        value = getattr(self, name)
        if value is None:
            raise PipelineError(
                f"context field {name!r} has not been produced — a pass that "
                f"computes it must run earlier in the pipeline"
            )
        return value


class Pass:
    """One pipeline step: reads and writes :class:`CompilationContext`."""

    #: Stable identifier used for timing entries and logs.
    name: str = "pass"

    def run(self, context: CompilationContext) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} name={self.name!r}>"


class CachedPass(Pass):
    """A pass whose artifact can be reused through a :class:`PipelineCache`.

    Subclasses declare ``key_fields`` — the ``AtomiqueConfig`` attribute
    names their input closure depends on (the circuit and architecture
    fingerprints are always included) — and implement :meth:`compute` plus
    the :meth:`capture`/:meth:`restore` pair that decides what is stored
    and how a hit is copied back into a fresh context.  Keying and the
    lookup/store flow live here once, so the per-pass code is only the
    copy discipline.
    """

    #: AtomiqueConfig attribute names participating in this pass's key.
    key_fields: tuple[str, ...] = ()

    def run(self, context: CompilationContext) -> None:
        cache = context.cache
        if cache is None:
            self.compute(context)
            return
        cfg = context.config
        key = (
            self.name,
            *cache.context_prefix(context),
            *(getattr(cfg, f) for f in self.key_fields),
        )
        hit = cache.lookup(self.name, key)
        if hit is not None:
            self.restore(context, hit)
            return
        self.compute(context)
        cache.store(key, self.capture(context))

    def compute(self, context: CompilationContext) -> None:
        raise NotImplementedError

    def capture(self, context: CompilationContext) -> Any:
        """The value to store after a miss (copy anything mutable)."""
        raise NotImplementedError

    def restore(self, context: CompilationContext, value: Any) -> None:
        """Install a cached value into *context* (copy anything mutable)."""
        raise NotImplementedError


class LowerToNativePass(CachedPass):
    """Lower the input circuit to the RAA native basis ``{CZ, U3}``."""

    name = "lower"
    key_fields = ()

    def compute(self, context: CompilationContext) -> None:
        context.native = lower_to_two_qubit(context.circuit.without_directives())

    # Circuits are treated as immutable by every pass, so the native
    # circuit is shared rather than copied.
    def capture(self, context: CompilationContext) -> Any:
        return context.native

    def restore(self, context: CompilationContext, value: Any) -> None:
        context.native = value


class ArrayMapperPass(CachedPass):
    """Coarse-grained qubit-array mapping (Algorithm 1, greedy MAX k-cut)."""

    name = "array_mapper"
    key_fields = ("gamma", "array_mapper")

    def compute(self, context: CompilationContext) -> None:
        cfg = context.config
        context.array_of_qubit = map_qubits_to_arrays(
            context.require("native"),
            context.architecture,
            gamma=cfg.gamma,
            strategy=cfg.array_mapper,
        )

    def capture(self, context: CompilationContext) -> Any:
        return list(context.array_of_qubit)

    def restore(self, context: CompilationContext, value: Any) -> None:
        context.array_of_qubit = list(value)


class SabreSwapPass(CachedPass):
    """SABRE SWAP insertion on the multipartite coupling graph (Fig. 5).

    The multipartite "device" has exactly the circuit's qubits, so the
    routed circuit stays on the same register.  Inserted SWAPs become
    3 CX each; logical 2Q gates stay atomic (the paper's accounting).
    """

    name = "sabre_swap"
    key_fields = ("gamma", "array_mapper", "seed")

    def compute(self, context: CompilationContext) -> None:
        native = context.require("native")
        coupling = context.architecture.multipartite_coupling(
            context.require("array_of_qubit")
        )
        routed = sabre_route(
            native,
            coupling,
            Layout.trivial(native.num_qubits),
            seed=context.config.seed,
        )
        context.num_swaps = routed.num_swaps
        context.final_layout = routed.final_layout.as_dict()
        context.transpiled = merge_1q_runs(decompose_swaps(routed.circuit))

    def capture(self, context: CompilationContext) -> Any:
        return (
            context.num_swaps,
            dict(context.final_layout),
            context.transpiled,  # circuits are shared, not copied
        )

    def restore(self, context: CompilationContext, value: Any) -> None:
        num_swaps, final_layout, transpiled = value
        context.num_swaps = num_swaps
        context.final_layout = dict(final_layout)
        context.transpiled = transpiled


class AtomMapperPass(CachedPass):
    """Fine-grained qubit-atom mapping (Figs. 6-7)."""

    name = "atom_mapper"
    key_fields = ("gamma", "array_mapper", "seed", "atom_mapper")

    def compute(self, context: CompilationContext) -> None:
        cfg = context.config
        context.locations = map_qubits_to_atoms(
            context.require("transpiled"),
            context.require("array_of_qubit"),
            context.architecture,
            strategy=cfg.atom_mapper,
            seed=cfg.seed,
        )

    def capture(self, context: CompilationContext) -> Any:
        return dict(context.locations)

    def restore(self, context: CompilationContext, value: Any) -> None:
        context.locations = dict(value)


class StageRouterPass(Pass):
    """High-parallelism routing into movement/gate stages (Figs. 8-11)."""

    name = "router"

    def run(self, context: CompilationContext) -> None:
        router = HighParallelismRouter(
            context.architecture,
            context.require("locations"),
            context.config.router,
        )
        context.program = router.route(context.require("transpiled"))


def default_passes() -> list[Pass]:
    """The five Fig. 3 passes in order — the stock Atomique pipeline."""
    return [
        LowerToNativePass(),
        ArrayMapperPass(),
        SabreSwapPass(),
        AtomMapperPass(),
        StageRouterPass(),
    ]


#: Optional per-pass progress callback ``(name, index, total, seconds)``,
#: invoked after each pass completes.  Process-global because service
#: workers run one compile at a time; the service points it at the job's
#: spooled progress file so ``status``/streaming ``result`` can report
#: per-pass completion while the compile is still running.
_PROGRESS_SINK = None


def set_pass_progress_sink(sink):
    """Install (or clear, with ``None``) the per-pass progress callback.

    Returns the previous sink so callers can restore it in a ``finally``.
    Sink exceptions are swallowed — progress is best-effort and must never
    fail a compile.
    """
    global _PROGRESS_SINK
    previous = _PROGRESS_SINK
    _PROGRESS_SINK = sink
    return previous


class PassPipeline:
    """Execute a declared pass list and assemble a ``CompileResult``."""

    def __init__(
        self,
        architecture: RAAArchitecture | None = None,
        config: "AtomiqueConfig | None" = None,
        passes: list[Pass] | None = None,
        cache: PipelineCache | None = None,
    ) -> None:
        from .compiler import AtomiqueConfig

        self.architecture = architecture or RAAArchitecture.default()
        self.config = config or AtomiqueConfig()
        self.passes = passes if passes is not None else default_passes()
        self.cache = cache

    def run(self, circuit: QuantumCircuit) -> CompilationContext:
        """Run every pass over *circuit*; return the populated context."""
        arch = self.architecture
        if circuit.num_qubits > arch.total_capacity:
            raise ValueError(
                f"circuit needs {circuit.num_qubits} qubits; architecture "
                f"has {arch.total_capacity} traps"
            )
        context = CompilationContext(
            circuit=circuit, architecture=arch, config=self.config, cache=self.cache
        )
        sink = _PROGRESS_SINK
        total = len(self.passes)
        for index, p in enumerate(self.passes):
            t0 = time.perf_counter()
            p.run(context)
            elapsed = time.perf_counter() - t0
            # Accumulate so a pass appearing twice keeps its full time.
            context.pass_seconds[p.name] = (
                context.pass_seconds.get(p.name, 0.0) + elapsed
            )
            if sink is not None:
                try:
                    sink(p.name, index + 1, total, elapsed)
                except Exception:  # progress must never fail a compile
                    pass
        return context

    def compile(self, circuit: QuantumCircuit) -> "CompileResult":
        """Run the pipeline and bundle the context into a result record."""
        from .compiler import CompileResult

        t0 = time.perf_counter()
        context = self.run(circuit)
        return CompileResult(
            program=context.require("program"),
            transpiled=context.require("transpiled"),
            array_of_qubit=context.require("array_of_qubit"),
            locations=context.require("locations"),
            num_swaps=context.require("num_swaps"),
            compile_seconds=time.perf_counter() - t0,
            architecture=self.architecture,
            final_layout=context.final_layout,
            pass_seconds=dict(context.pass_seconds),
        )
