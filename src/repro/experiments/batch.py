"""Parallel batch compilation: fan a job list out across worker processes.

``compile_many(jobs, workers=N)`` runs each :class:`CompileJob` through the
backend registry, optionally on a ``concurrent.futures`` process pool.
Results always come back in job order, and every job carries its own seed
inside its :class:`~repro.baselines.registry.CompileOptions`, so every
deterministic metric (gate counts, depth, fidelity, extras) is identical
regardless of worker count or scheduling.  Wall-clock fields
(``compile_seconds``, the ``pass_seconds.*`` extras) are measurements, not
outputs: they vary with CPU contention and come back verbatim from the
run that populated a cache entry.

An optional on-disk :class:`ResultCache` keyed by a circuit/config hash
skips recompiles across runs — handy for the sweep harnesses, which re-hit
the same (circuit, backend, config) cells while iterating on plots.

``prefix_cache`` additionally shares *pipeline prefix* artifacts (lowering,
array mapping, SABRE, atom placement) across the jobs of a run: a
:class:`~repro.core.pipeline.PipelineCache` in the serial path, or a
directory (→ :class:`~repro.core.pipeline.DiskPipelineCache`) that worker
processes — and entirely separate runs — share on disk.  The compile
service (:mod:`repro.service`) builds its sharded workers on the same
initializer/run-job machinery exported here.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, cast

from ..analysis.metrics import CompiledMetrics
from ..baselines.registry import CompileOptions, get_backend
from ..circuits.circuit import QuantumCircuit
from ..core.blobs import BlobStore
from ..core.pipeline import (
    DiskPipelineCache,
    PipelineCache,
    _circuit_fingerprint,
)

#: Bump when CompiledMetrics or the key layout changes shape.
CACHE_VERSION = 3


@dataclass(frozen=True)
class CompileJob:
    """One unit of batch work: a backend name, a circuit, and its options."""

    backend: str
    circuit: QuantumCircuit
    options: CompileOptions = field(default_factory=CompileOptions)

    def cache_key(self) -> str:
        """Stable hash over backend, circuit contents, and every option."""
        opts = self.options
        return hashlib.sha256(
            f"v{CACHE_VERSION}|{self.backend}|"
            f"{_circuit_fingerprint(self.circuit)}|{opts.seed}|"
            f"{opts.config!r}|{opts.raa!r}|{opts.params!r}"
            f"|{opts.label!r}|{opts.extra!r}".encode()
        ).hexdigest()


class ResultCache:
    """On-disk cache of :class:`CompiledMetrics`: a blob store keyed by
    :meth:`CompileJob.cache_key`."""

    def __init__(self, directory: str | Path) -> None:
        self.blobs = BlobStore(directory)

    def get(self, job: CompileJob) -> CompiledMetrics | None:
        return self.blobs.get(job.cache_key())

    def put(self, job: CompileJob, metrics: CompiledMetrics) -> None:
        self.blobs.put(job.cache_key(), metrics)


#: Per-worker-process pipeline prefix cache, installed by the pool
#: initializer.  Module-global so it survives across the jobs a worker runs.
_WORKER_PREFIX_CACHE: PipelineCache | None = None


def init_worker_prefix_cache(
    directory: str | None = None, fault_spec: Any = None
) -> None:
    """Process-pool initializer: build this worker's prefix cache once.

    With a *directory*, the worker gets a :class:`DiskPipelineCache` over
    it — every worker (and every later run pointed at the same directory)
    shares the persisted artifacts.  Without one, jobs run uncached unless
    they carry their own ``pipeline_cache``.

    *fault_spec* (a :meth:`FaultPlan.to_spec` dict) arms the chaos
    harness's fault-injection plan inside the worker process; absent one,
    the ``REPRO_FAULTS`` environment variable (inherited from the parent)
    is honored.  Outside chaos tests both are unset and this is a no-op.
    """
    global _WORKER_PREFIX_CACHE
    _WORKER_PREFIX_CACHE = (
        DiskPipelineCache(directory) if directory is not None else None
    )
    # Imported lazily: batch is a core experiments module and must not pay
    # a service import (or create a cycle) outside worker-pool boots.
    from ..service import faults

    if fault_spec is not None:
        faults.install(fault_spec)
    else:
        faults.install_from_env()


def with_worker_prefix_cache(job: CompileJob) -> CompileJob:
    """Inject the worker's prefix cache into a job that has none."""
    if _WORKER_PREFIX_CACHE is not None and job.options.pipeline_cache is None:
        return replace(
            job,
            options=replace(job.options, pipeline_cache=_WORKER_PREFIX_CACHE),
        )
    return job


def _run_job(job: CompileJob) -> CompiledMetrics:
    # Module-level so ProcessPoolExecutor can pickle it into workers.
    job = with_worker_prefix_cache(job)
    return get_backend(job.backend).compile(job.circuit, job.options)


def compile_many(
    jobs: Iterable[CompileJob],
    workers: int = 1,
    cache: ResultCache | str | Path | None = None,
    prefix_cache: PipelineCache | str | Path | None = None,
) -> list[CompiledMetrics]:
    """Compile every job, in order; ``workers > 1`` uses a process pool.

    ``prefix_cache`` shares pipeline prefix artifacts across jobs (and, for
    a directory or :class:`DiskPipelineCache`, across runs).  Jobs that
    already carry their own ``options.pipeline_cache`` keep it.  Like
    per-job caches, a plain in-memory :class:`PipelineCache` cannot cross
    a process boundary: with ``workers > 1`` it is ignored — pass a
    directory (or :class:`DiskPipelineCache`) to share prefixes with
    worker processes.
    """
    jobs = list(jobs)
    store = (
        cache
        if isinstance(cache, ResultCache) or cache is None
        else ResultCache(cache)
    )
    prefix_dir: str | None = None
    if isinstance(prefix_cache, (str, Path)):
        prefix_cache = DiskPipelineCache(prefix_cache)
    if isinstance(prefix_cache, DiskPipelineCache):
        prefix_dir = str(prefix_cache.directory)

    results: list[CompiledMetrics | None] = [None] * len(jobs)
    pending: list[int] = []
    for i, job in enumerate(jobs):
        hit = store.get(job) if store is not None else None
        if hit is not None:
            results[i] = hit
        else:
            pending.append(i)

    if workers <= 1 or len(pending) <= 1:
        for i in pending:
            job = jobs[i]
            if (
                isinstance(prefix_cache, PipelineCache)
                and job.options.pipeline_cache is None
            ):
                job = replace(
                    job,
                    options=replace(job.options, pipeline_cache=prefix_cache),
                )
            results[i] = _run_job(job)
    else:
        # An in-process PipelineCache cannot cross a process boundary (and
        # shipping its contents would defeat the point); strip it so the
        # jobs stay picklable.  Serial runs above keep it and share hits.
        # A disk-backed prefix cache *can* cross: each worker rebuilds its
        # own DiskPipelineCache over the shared directory (atomic writes
        # make concurrent sharing safe).
        shipped = [
            replace(jobs[i], options=replace(jobs[i].options, pipeline_cache=None))
            if jobs[i].options.pipeline_cache is not None
            else jobs[i]
            for i in pending
        ]
        # Every compile scores with scipy.special, which the library loads
        # on first use; load it once here so the forked workers share it
        # instead of each paying its ~0.3 s import.
        import scipy.special  # noqa: F401

        with ProcessPoolExecutor(
            max_workers=min(workers, len(pending)),
            initializer=init_worker_prefix_cache,
            initargs=(prefix_dir,),
        ) as pool:
            computed = pool.map(_run_job, shipped)
            for i, metrics in zip(pending, computed):
                results[i] = metrics

    if store is not None:
        for i in pending:
            store.put(jobs[i], results[i])
    return cast("list[CompiledMetrics]", results)  # every slot is filled
