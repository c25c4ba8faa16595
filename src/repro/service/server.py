"""The compile-service daemon: an async front-end over ``compile_many``'s
job model.

:class:`CompileService` owns a persistent :class:`~repro.service.queue.JobQueue`
and a set of *shards*.  Each shard is one worker process (a single-process
``ProcessPoolExecutor``) fed by its own asyncio dispatcher, and keeps a
long-lived pipeline prefix cache installed by
:func:`repro.experiments.batch.init_worker_prefix_cache` (through
:func:`_init_shard_worker`, which also arms the fault plan) — jobs that agree
on a (circuit, architecture) prefix are routed to the same shard, so the
in-memory layer hits across jobs of one run, and the disk layer
(:class:`~repro.core.pipeline.DiskPipelineCache`, shared directory) hits
across daemon restarts.  An optional :class:`ResultCache` short-circuits
whole jobs the service has compiled before.

Fault tolerance (see docs/ARCHITECTURE.md "Failure model"):

- A dispatched job holds a **lease** (:meth:`JobQueue.acquire`), extended
  by a heartbeat task while the attempt runs; a lease-reaper requeues
  jobs whose lease expired because a dispatcher lost track of them.
- A worker-process crash (``BrokenProcessPool``) is contained to its
  shard: the pool and its prefix cache are rebuilt, the in-flight job is
  retried, and a poison job that keeps killing its worker dead-letters
  as FAILED once its attempts reach ``max_retries``.
- Per-job **timeouts** (pool mode) kill the stuck worker, rebuild the
  shard, and charge the attempt; per-job ``max_retries`` bounds every
  retry path.
- Infrastructure failures retry; deterministic compile errors (the job
  itself raising) fail immediately — retrying a deterministic failure
  can only waste attempts.

``inline=True`` executes jobs in the server process instead of worker
pools — deterministic single-process mode for tests and tiny deployments;
results are identical either way because compiles are seeded and
deterministic.  Timeouts are not preemptive inline (nothing can interrupt
the in-process compile).

**Farm mode** (``farm=True``): N daemons share one spool (and one
:class:`~repro.core.pipeline.DiskPipelineCache` directory) with no
coordinator.  Shard ownership is elected through
:class:`~repro.service.shards.ShardBoard` lease files — each daemon
claims up to its fair share ``ceil(shards / live_daemons)`` of shards,
renews them on the farm tick, and adopts expired ones (a dead peer's
shards redistribute within one shard-lease).  Every dispatch is guarded
by a :class:`~repro.service.shards.JobClaims` exclusive-create claim
file, so the takeover window and the **work-stealing** path (a daemon
whose owned shards drain takes PENDING jobs from the most backlogged
unowned shard) can never double-run a job.  Worker slots decouple from
logical shards in farm mode (``workers`` local pools, shard → slot by
modulo); peers' record writes are ingested by the queue's fingerprint
``sync`` on the same tick, and cross-daemon cancellation travels as
marker files under ``spool/control/`` applied by the owning daemon.

:class:`ServiceServer` exposes the service over a binary-frame socket
protocol (:mod:`repro.service.wire`: one request frame in, one response
frame — or a frame sequence for streaming results — out), Unix or TCP.
``python -m repro serve`` boots the pair; see
:mod:`repro.service.client` for the matching client and
:mod:`repro.service.http` for the REST gateway in front of it.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import logging
import math
import os
import tempfile
import time
import traceback
import weakref
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable

from .. import forkserver
from ..baselines.atomique_adapter import metrics_from_result
from ..baselines.registry import atomique_result, available_backends, get_backend
from ..core.pipeline import (
    DiskPipelineCache,
    PipelineCache,
    _architecture_fingerprint,
    _circuit_fingerprint,
    set_pass_progress_sink,
)
from ..core import binformat
from ..core.blobs import atomic_write
from ..experiments import batch
from ..experiments.batch import CompileJob, ResultCache
from ..hardware.raa import RAAArchitecture
from . import faults
from .queue import JobQueue, JobRecord, JobState, QueueError
from .shards import DEFAULT_SHARD_LEASE_SECONDS, JobClaims, ShardBoard
from .wire import (
    FRAME_HEADER_LEN,
    FRAME_MAGIC,
    WireError,
    decode_frame_payload,
    decode_job,
    decode_job_control,
    decode_metrics,
    encode_bindoc_frame,
    encode_frame,
    encode_metrics,
    parse_frame_header,
)

log = logging.getLogger("repro.service")

#: Default lease duration; heartbeats land every third of this, so a
#: healthy attempt can miss two heartbeats before the reaper acts.
DEFAULT_LEASE_SECONDS = 30.0


class ServiceError(RuntimeError):
    """A request the service must reject (unknown backend, bad payload,
    submission after draining started)."""


class _RetryableJobError(RuntimeError):
    """An infrastructure failure of one attempt (crash/timeout): the job
    itself may be fine, so it goes through the retry budget rather than
    failing outright."""


def _prefix_shard(job: CompileJob, shards: int) -> int:
    """Stable shard for *job*: jobs sharing a pipeline prefix co-locate.

    Keyed exactly like the head of every :class:`PipelineCache` key —
    (circuit fingerprint, architecture fingerprint) — so a sweep over one
    circuit lands on one shard and reuses its warm prefix cache.
    """
    arch = job.options.raa or RAAArchitecture.default()
    digest = hashlib.sha256(
        f"{_circuit_fingerprint(job.circuit)}|"
        f"{_architecture_fingerprint(arch)}".encode()
    ).digest()
    return int.from_bytes(digest[:4], "big") % shards


def _capture_envelope(job: CompileJob) -> dict[str, Any]:
    """Compile an Atomique job keeping its program: {"metrics", "program"}.

    The metrics come out of the same :func:`metrics_from_result` scoring
    the registered backend uses on the same setup path
    (:func:`~repro.baselines.registry.atomique_result`), so capturing the
    program never perturbs them.  The program travels back to the daemon
    (and into the spool) as a v3 binary columnar record — bytes pickle
    across the worker pool boundary like any other payload.
    """
    result = atomique_result(job.circuit, job.options)
    metrics = metrics_from_result(
        result, job.circuit.name, job.options.label or "Atomique"
    )
    return {
        "metrics": encode_metrics(metrics),
        "program": binformat.encode_program(result.program),
    }


def _progress_file_sink(progress_path: str | Path, attempt: int):
    """A pass-progress sink appending JSONL events to the job's spool file.

    One small append per pass — the write is the worker's only mid-compile
    channel back to the daemon(s), and every ``status``/streaming
    ``result`` reader tails the same file (farm peers included).
    """

    def sink(name: str, index: int, total: int, seconds: float) -> None:
        event = {
            "pass": name,
            "index": index,
            "total": total,
            "seconds": seconds,
            "attempt": attempt,
        }
        with open(progress_path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(event) + "\n")

    return sink


def _execute_wire_job(
    payload: dict[str, Any],
    attempt: int,
    keep_program: bool,
    progress_path: str,
) -> dict[str, Any]:
    """Decode, compile, and re-encode one job (runs inside a shard worker).

    Module-level so ``ProcessPoolExecutor`` can pickle it; the worker's
    prefix cache (installed by the pool initializer) is injected by
    :func:`repro.experiments.batch.with_worker_prefix_cache` inside
    ``batch._run_job``.  The fault-injection context includes the attempt
    number so chaos plans can target "only the first attempt of job X".

    The pipeline appends one JSONL progress event to ``progress_path``
    as each pass completes.

    Returns an envelope ``{"metrics": ..., "program": ...}``; the program
    slot is filled only for ``keep_program`` jobs.
    """
    job = decode_job(payload)
    context = f"{job.backend}:{job.circuit.name}#a{attempt}"
    faults.maybe_exit("worker.crash", context)
    faults.maybe_sleep("job.slow", context)
    previous = set_pass_progress_sink(
        _progress_file_sink(progress_path, attempt)
    )
    try:
        if keep_program:
            return _capture_envelope(batch.with_worker_prefix_cache(job))
        return {"metrics": encode_metrics(batch._run_job(job)), "program": None}
    finally:
        set_pass_progress_sink(previous)


def _init_shard_worker(prefix_dir: str | None, fault_spec: Any) -> None:
    """Shard-worker initializer: the batch worker set-up, then the fault
    plan.

    *fault_spec* (a :meth:`FaultPlan.to_spec` dict) arms the chaos
    harness's fault-injection plan inside the worker; absent one, the
    ``REPRO_FAULTS`` environment variable is honored.  Outside chaos tests
    both are unset and installing is a no-op.  Only shard workers run
    fault hooks, so ``compile_many``'s workers never import this module.
    """
    batch.init_worker_prefix_cache(prefix_dir)
    if fault_spec is not None:
        faults.install(fault_spec)
    else:
        faults.install_from_env()


def _pool_ready() -> bool:
    """No-op worker task: its round trip proves a started worker is up."""
    return True


class CompileService:
    """Job submission/status/result orchestration over sharded workers."""

    def __init__(
        self,
        spool_dir: str | Path | None = None,
        shards: int = 2,
        prefix_cache_dir: str | Path | None = None,
        result_cache_dir: str | Path | None = None,
        inline: bool = False,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
        fault_plan: "faults.FaultPlan | str | dict[str, Any] | None" = None,
        farm: bool = False,
        node: str | None = None,
        workers: int | None = None,
        shard_lease_seconds: float = DEFAULT_SHARD_LEASE_SECONDS,
        farm_tick_seconds: float | None = None,
        steal: bool = True,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if lease_seconds <= 0:
            raise ValueError(f"lease_seconds must be > 0, got {lease_seconds}")
        if farm and spool_dir is None:
            raise ValueError("farm mode needs a spool_dir shared by the farm")
        self.shards = shards
        self.inline = inline
        self.lease_seconds = lease_seconds
        self.fault_plan = faults.FaultPlan.coerce(fault_plan)
        self.farm = farm
        self.node = node or f"daemon-{os.getpid()}"
        self._owner = self.node
        # Non-farm keeps the historical one-worker-per-shard shape; a farm
        # daemon covers all logical shards with a small local pool (shard →
        # slot by modulo), since the farm-wide shard count exceeds any one
        # daemon's fair share.
        self.workers = (
            workers if workers is not None else (shards if not farm else
                                                 max(1, min(2, shards)))
        )
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        self.steal = steal
        self.shard_lease_seconds = shard_lease_seconds
        self._farm_tick = (
            farm_tick_seconds
            if farm_tick_seconds is not None
            else max(min(shard_lease_seconds / 4.0, 1.0), 0.05)
        )
        node_digest = hashlib.sha256(self.node.encode()).hexdigest()[:6]
        #: an ephemeral service spools to a temp directory aclose() removes
        self._temp_spool: tempfile.TemporaryDirectory[str] | None = None
        if spool_dir is None:
            self._temp_spool = tempfile.TemporaryDirectory(
                prefix="repro-spool-", ignore_cleanup_errors=True
            )
            spool_dir = self._temp_spool.name
        self.queue = JobQueue(
            spool_dir,
            clock=clock,
            node_id=node_digest if farm else None,
            shared=farm,
        )
        self._board: ShardBoard | None = None
        self._claims: JobClaims | None = None
        if farm:
            self._board = ShardBoard(
                Path(spool_dir) / "shards",
                owner=self.node,
                shards=shards,
                lease_seconds=shard_lease_seconds,
                clock=clock,
            )
            self._claims = JobClaims(
                Path(spool_dir) / "claims",
                owner=self.node,
                lease_seconds=lease_seconds,
                clock=clock,
            )
        self._prefix_cache_dir = (
            str(prefix_cache_dir) if prefix_cache_dir is not None else None
        )
        self._result_cache = (
            ResultCache(result_cache_dir) if result_cache_dir is not None else None
        )
        self._pools: list[ProcessPoolExecutor] = []
        #: pools whose worker has answered a round trip since it started
        self._warm_pools: "weakref.WeakSet[ProcessPoolExecutor]" = (
            weakref.WeakSet()
        )
        #: inline mode: one long-lived prefix cache per worker slot,
        #: mirroring what the pool initializer builds inside each worker
        self.shard_caches: list[PipelineCache] = []
        self._wake: list[asyncio.Event] = []
        self._dispatchers: list[asyncio.Task[None]] = []
        self._reaper: asyncio.Task[None] | None = None
        self._farm_task: asyncio.Task[None] | None = None
        self._events: dict[str, asyncio.Event] = {}
        self._inflight: dict[str, asyncio.Future[Any]] = {}
        #: shards this daemon currently owns (all of them when not a farm)
        self._owned: set[int] = set(range(shards)) if not farm else set()
        #: unowned-shard jobs this daemon claimed through work-stealing
        self._stolen: set[str] = set()
        #: job_id -> retry-not-before time after a lost claim race
        self._claim_skip: dict[str, float] = {}
        self._steal_count = 0
        self._shards_claimed = 0
        self._shards_lost = 0
        #: cleared by crash-simulation tests so aclose() leaves leases to
        #: expire naturally instead of releasing them gracefully
        self.release_leases_on_close = True
        self._accepting = True
        self._started = False

    # -- lifecycle -----------------------------------------------------------

    def _make_pool(self) -> ProcessPoolExecutor:
        fault_spec = (
            self.fault_plan.to_spec() if self.fault_plan is not None else None
        )
        # Forked from the preloaded forkserver, never from the daemon: a
        # worker forked here would inherit the listening socket, and after
        # a daemon hard-kill the orphan would keep the old listener alive
        # and black-hole connects meant for the replacement daemon.
        return ProcessPoolExecutor(
            max_workers=1,
            mp_context=forkserver.context(),
            initializer=_init_shard_worker,
            initargs=(self._prefix_cache_dir, fault_spec),
        )

    async def start(self) -> None:
        """Spin up worker slots/dispatchers and re-dispatch spooled jobs."""
        if self._started:
            return
        self._started = True
        if self.fault_plan is not None:
            faults.install(self.fault_plan)
        self._wake = [asyncio.Event() for _ in range(self.shards)]
        if self.inline:
            self.shard_caches = [
                DiskPipelineCache(self._prefix_cache_dir)
                if self._prefix_cache_dir is not None
                else PipelineCache()
                for _ in range(self.workers)
            ]
        else:
            self._pools = [self._make_pool() for _ in range(self.workers)]
        if self.farm:
            # Claim our fair share of shards before the first dispatch so
            # the boot backlog does not sit through a whole tick.
            self._farm_step()
        self._dispatchers = [
            asyncio.create_task(self._dispatch(shard))
            for shard in range(self.shards)
        ]
        self._reaper = asyncio.create_task(self._reap_expired_leases())
        if self.farm:
            self._farm_task = asyncio.create_task(self._farm_loop())
        # Jobs spooled by a previous daemon: PENDING (including interrupted
        # RUNNING ones, already demoted by the queue's loader when the
        # spool is unshared) wake their shard; every non-terminal record
        # needs a waiter event.
        for record in self.queue.jobs():
            if not record.state.terminal:
                self._events.setdefault(record.job_id, asyncio.Event())
            if record.state is JobState.PENDING:
                self._wake_shard(record.shard % self.shards)

    def _our_backlog(self) -> list[JobRecord]:
        """Non-terminal records this daemon is responsible for finishing."""
        records = [r for r in self.queue.jobs() if not r.state.terminal]
        if not self.farm:
            return records
        return [
            r
            for r in records
            if (r.shard % self.shards) in self._owned
            or r.job_id in self._stolen
            or r.owner == self.node
        ]

    async def drain(self) -> int:
        """Stop accepting, finish everything queued, shut workers down.

        Returns the number of jobs that reached a terminal state during
        the drain.  A farm daemon drains only its own responsibility —
        owned shards, stolen jobs, and its RUNNING attempts — and keeps
        renewing its shard leases meanwhile so peers do not steal the
        backlog it is about to finish.  Idempotent; the service cannot be
        restarted after."""
        self._accepting = False
        if self.farm:
            # Sweep in peers' latest spool writes before judging the
            # backlog: a submission accepted seconds ago on another
            # daemon may not have crossed a farm tick yet.
            self._farm_step()
        in_flight = len(self._our_backlog())
        while self._our_backlog():
            await asyncio.sleep(0.02)
        await self.aclose()
        return in_flight

    async def aclose(self) -> None:
        """Tear down dispatchers and worker pools (no waiting for jobs);
        an ephemeral service also removes its temporary spool."""
        self._accepting = False
        tasks = list(self._dispatchers)
        if self._reaper is not None:
            tasks.append(self._reaper)
        if self._farm_task is not None:
            tasks.append(self._farm_task)
        for task in tasks:
            task.cancel()
        for task in tasks:
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._dispatchers = []
        self._reaper = None
        self._farm_task = None
        if (
            self.farm
            and self._board is not None
            and self.release_leases_on_close
        ):
            # Graceful exit: hand the shards back instantly instead of
            # making peers wait out the lease (crash tests skip this).
            for shard in sorted(self._owned):
                self._board.release(shard)
            self._owned.clear()
        for pool in self._pools:
            # Kill workers still computing (e.g. a cancelled job's
            # attempt): their results are discarded anyway, and a live
            # worker would block interpreter exit until it finishes.
            victims = list((getattr(pool, "_processes", None) or {}).values())
            pool.shutdown(wait=False, cancel_futures=True)
            for proc in victims:
                try:
                    proc.kill()
                except Exception:
                    pass
        self._pools = []
        if self._temp_spool is not None:
            self._temp_spool.cleanup()

    # -- job APIs ------------------------------------------------------------

    async def submit(
        self,
        payload: dict[str, Any],
        timeout: float | None = None,
        max_retries: int | None = None,
        job_key: str | None = None,
        priority: int = 0,
        deadline: float | None = None,
        keep_program: bool = False,
    ) -> str:
        """Validate and enqueue a wire-encoded job; returns its id.

        Validation happens here, not on the worker: an unknown backend or
        a malformed circuit fails the *submission*, with the registry's
        known-backends message, instead of producing a FAILED job later.

        With a *job_key*, submission is idempotent: a key the queue has
        already seen returns the existing job's id without enqueuing
        anything, so a client may safely resubmit after a lost response.

        *priority* orders dispatch within a shard (higher first);
        *deadline* is seconds from now the job must dispatch by;
        *keep_program* captures the compiled program for the ``program``
        op (Atomique jobs only — the other backends never build one).
        """
        if not self._started:
            await self.start()
        if self.farm:
            # A key submitted through a peer daemon lives on disk, not in
            # our memory yet: sync before the idempotency check.
            self.queue.sync()
        if job_key is not None:
            existing = self.queue.by_key(job_key)
            if existing is not None:
                return existing.job_id
        if not self._accepting:
            raise ServiceError("service is draining; submissions are closed")
        try:
            job = decode_job(payload)
            get_backend(job.backend)  # raises with the known-backends list
        except (WireError, ValueError) as exc:
            raise ServiceError(str(exc)) from exc
        if keep_program and job.backend != "Atomique":
            raise ServiceError(
                "keep_program captures Atomique stage programs only "
                f"(got backend {job.backend!r})"
            )
        shard = _prefix_shard(job, self.shards)
        record = self.queue.submit(
            payload,
            shard=shard,
            job_key=job_key,
            timeout=timeout,
            max_retries=max_retries,
            priority=priority,
            deadline=(
                self.queue.clock() + deadline if deadline is not None else None
            ),
            keep_program=keep_program,
        )
        event = self._events.setdefault(record.job_id, asyncio.Event())
        # A result-cache hit cannot supply the program, so keep_program
        # jobs always compile.
        hit = (
            self._result_cache.get(job)
            if self._result_cache is not None and not keep_program
            else None
        )
        if hit is not None:
            self.queue.mark_done(record.job_id, encode_metrics(hit))
            event.set()
        else:
            self._wake_shard(shard)
        return record.job_id

    def _lookup(self, job_id: str) -> JobRecord:
        """Get a record, falling back to the shared spool in farm mode
        (the job may have been submitted through a peer daemon)."""
        try:
            return self.queue.get(job_id)
        except QueueError as exc:
            if self.farm:
                record = self.queue.refresh_from_disk(job_id)
                if record is not None:
                    return record
            raise ServiceError(str(exc)) from exc

    def status(self, job_id: str) -> dict[str, Any]:
        summary = self._lookup(job_id).summary()
        # per-pass progress rides along so pollers (socket status op, REST
        # gateway) see how far a RUNNING compile has come
        summary["progress"] = self.progress(job_id)
        return summary

    def progress(self, job_id: str) -> list[dict[str, Any]]:
        """Per-pass progress events of *job_id*, in completion order."""
        return self.queue.load_progress(job_id)

    async def result(
        self, job_id: str, wait: bool = False, timeout: float | None = None
    ) -> dict[str, Any]:
        """The wire-encoded metrics of a finished job.

        ``wait=True`` blocks until the job reaches a terminal state (or
        *timeout* seconds pass).  FAILED and CANCELLED jobs raise with the
        recorded error."""
        record = self._lookup(job_id)
        if wait and not record.state.terminal:
            # The event is set locally by _finish and, for jobs finishing
            # on a peer daemon, by the farm tick's spool sync.
            event = self._events.setdefault(job_id, asyncio.Event())
            try:
                await asyncio.wait_for(event.wait(), timeout)
            except asyncio.TimeoutError:
                raise ServiceError(
                    f"timed out waiting for {job_id} "
                    f"(state={record.state.value})"
                ) from None
            # refresh_from_disk replaces record objects: re-read state
            record = self._lookup(job_id)
        if record.state is JobState.DONE:
            payload = self.queue.load_result(job_id)
            if payload is None:
                raise ServiceError(f"result of {job_id} is missing from spool")
            return payload
        if record.state is JobState.FAILED:
            raise ServiceError(
                f"job {job_id} failed after {record.attempts} attempt(s): "
                f"{record.error}"
            )
        if record.state is JobState.CANCELLED:
            raise ServiceError(f"job {job_id} was cancelled")
        raise ServiceError(
            f"job {job_id} is not finished (state={record.state.value})"
        )

    def cancel(self, job_id: str) -> bool:
        """Cancel a PENDING or RUNNING job.

        A RUNNING job's lease is revoked and its in-flight future is
        cancelled best-effort — a worker-process compile cannot be
        interrupted mid-flight, so the attempt may run to completion, but
        its result is discarded and the job stays CANCELLED.

        A farm daemon that is not responsible for the job (unowned shard,
        foreign attempt) must not write its record — only owners write,
        or a half-applied cancel races the owner's heartbeat.  It drops a
        marker file instead; the owner applies it on its next tick."""
        record = self._lookup(job_id)
        if (
            self.farm
            and not record.state.terminal
            and (record.shard % self.shards) not in self._owned
            and record.owner != self.node
            and job_id not in self._stolen
        ):
            self._write_cancel_marker(job_id)
            return True
        try:
            cancelled = self.queue.cancel(job_id)
        except QueueError as exc:
            raise ServiceError(str(exc)) from exc
        if cancelled:
            future = self._inflight.get(job_id)
            if future is not None:
                future.cancel()
            event = self._events.get(job_id)
            if event is not None:
                event.set()
        return cancelled

    def _control_dir(self) -> Path:
        return self.queue.spool_dir / "control"

    def _write_cancel_marker(self, job_id: str) -> None:
        control = self._control_dir()
        control.mkdir(parents=True, exist_ok=True)
        atomic_write(
            control / f"cancel-{job_id}.json",
            json.dumps({"job_id": job_id, "by": self.node}).encode(),
        )

    def program_bytes(self, job_id: str) -> bytes:
        """The v3 binary record of a DONE ``keep_program`` job."""
        record = self._lookup(job_id)
        if not record.keep_program:
            raise ServiceError(
                f"job {job_id} was not submitted with keep_program; "
                "its compiled program was not captured"
            )
        if record.state is not JobState.DONE:
            raise ServiceError(
                f"job {job_id} is not finished (state={record.state.value})"
            )
        raw = self.queue.load_program_bytes(job_id)
        if raw is None:
            raise ServiceError(f"program of {job_id} is missing from spool")
        return raw

    def jobs(self) -> list[dict[str, Any]]:
        return [r.summary() for r in self.queue.jobs()]

    def stats(self) -> dict[str, Any]:
        counts: dict[str, int] = {s.value: 0 for s in JobState}
        per_shard = [0] * self.shards
        pending_per_shard = [0] * self.shards
        retried = dead_lettered = 0
        for record in self.queue.jobs():
            counts[record.state.value] += 1
            per_shard[record.shard % self.shards] += 1
            if record.state is JobState.PENDING:
                pending_per_shard[record.shard % self.shards] += 1
            if record.attempts > 1:
                retried += 1
            if record.state is JobState.FAILED:
                dead_lettered += 1
        return {
            "shards": self.shards,
            "inline": self.inline,
            "accepting": self._accepting,
            "owner": self._owner,
            "node": self.node,
            "farm": self.farm,
            "workers": self.workers,
            "lease_seconds": self.lease_seconds,
            "jobs": counts,
            "jobs_per_shard": per_shard,
            "pending_per_shard": pending_per_shard,
            "retried_jobs": retried,
            "dead_lettered": dead_lettered,
            "quarantined_spool_files": len(self.queue.quarantined),
            "owned_shards": sorted(self._owned),
            "shard_leases": (
                self._board.snapshot() if self._board is not None else None
            ),
            "steals": self._steal_count,
            "shards_claimed": self._shards_claimed,
            "shards_lost": self._shards_lost,
            "prefix_cache_dir": self._prefix_cache_dir,
            "backends": available_backends(),
            "faults": (
                self.fault_plan.to_spec() if self.fault_plan is not None else None
            ),
        }

    # -- execution -----------------------------------------------------------

    def _wake_shard(self, shard: int) -> None:
        if self._wake:
            self._wake[shard].set()

    def _next_dispatchable(self, shard: int) -> str | None:
        """The highest-ranked runnable job of *shard*, or None.

        Scans the shard backlog in dispatch order (priority desc, EDF,
        FIFO).  A farm daemon only dispatches from shards it owns — plus
        individually stolen jobs — and jobs whose claim was just lost to
        a peer sit out a short backoff.  Jobs whose dispatch deadline
        already passed fail here with a clear error instead of running
        late."""
        owned = (not self.farm) or shard in self._owned
        now = self.queue.clock()
        for record in self.queue.pending_for(shard, self.shards):
            if not owned and record.job_id not in self._stolen:
                continue
            skip_until = self._claim_skip.get(record.job_id)
            if skip_until is not None and now < skip_until:
                continue
            if record.deadline is not None and record.deadline < now:
                self.queue.mark_failed(
                    record.job_id,
                    f"deadline expired {now - record.deadline:.3f}s before "
                    "dispatch",
                )
                self._release_claim(record.job_id)
                self._finish(record.job_id)
                continue
            return record.job_id
        return None

    async def _dispatch(self, shard: int) -> None:
        wake = self._wake[shard]
        while True:
            wake.clear()
            job_id = self._next_dispatchable(shard)
            if job_id is None:
                await wake.wait()
                continue
            try:
                await self._run_one(job_id, shard)
            except asyncio.CancelledError:
                raise
            except Exception:
                # Bookkeeping failed (e.g. the spool directory went
                # read-only or full).  The dispatcher must outlive any
                # single job, or every later job on this shard strands in
                # PENDING; record the failure if the spool lets us.
                log.exception(
                    "shard %d: bookkeeping failure while running %s",
                    shard,
                    job_id,
                )
                try:
                    self.queue.mark_failed(
                        job_id, traceback.format_exc(limit=8)
                    )
                except Exception:
                    log.exception(
                        "shard %d: could not record the failure of %s — "
                        "the job stays in its last spooled state",
                        shard,
                        job_id,
                    )
                self._release_claim(job_id)
                self._finish(job_id)

    async def _heartbeat(self, job_id: str) -> None:
        interval = max(self.lease_seconds / 3.0, 0.05)
        while True:
            await asyncio.sleep(interval)
            if self.farm:
                # Disk is authoritative: a peer may have reaped and
                # re-leased the job while we froze.
                self.queue.refresh_from_disk(job_id)
            held = self.queue.heartbeat(
                job_id,
                self.lease_seconds,
                owner=self.node if self.farm else None,
            )
            if not held:
                return  # job left RUNNING (cancelled/reaped): stop beating

    def _reap_record(self, record: JobRecord) -> None:
        """Requeue (or dead-letter) one expired-lease RUNNING record."""
        log.warning(
            "lease expired for %s (owner %s, attempt %d/%d)",
            record.job_id,
            record.owner,
            record.attempts,
            record.max_retries,
        )
        if self._claims is not None:
            # The dead holder's claim file must go, or nobody can
            # re-dispatch the job we are about to requeue.
            self._claims.revoke(record.job_id)
        state = self.queue.retry_or_fail(
            record.job_id,
            f"lease expired after {self.lease_seconds}s "
            f"(owner {record.owner})",
        )
        if state is JobState.PENDING:
            self._wake_shard(record.shard % self.shards)
        else:
            self._finish(record.job_id)

    async def _reap_expired_leases(self) -> None:
        """Requeue (or dead-letter) RUNNING jobs whose lease expired.

        With healthy dispatchers the heartbeat keeps leases alive and this
        never fires; it is the backstop for a dispatcher that died or a
        daemon that froze past its lease.  In the farm it is also how a
        dead peer's in-flight jobs come back: whoever owns (or has just
        adopted) the shard requeues them.  A farm daemon only reaps on
        shards it owns, its own strays, and its stolen jobs — reaping a
        live peer's territory would race that peer's own reaper."""
        interval = max(self.lease_seconds / 2.0, 0.1)
        while True:
            await asyncio.sleep(interval)
            for record in self.queue.expired_leases():
                if self.farm and not (
                    (record.shard % self.shards) in self._owned
                    or record.owner == self.node
                    or record.job_id in self._stolen
                ):
                    continue
                self._reap_record(record)

    def _finish(self, job_id: str) -> None:
        event = self._events.get(job_id)
        if event is not None:
            event.set()

    def _release_claim(self, job_id: str) -> None:
        """Drop the farm claim and steal bookkeeping of a finished attempt."""
        if self._claims is not None:
            self._claims.release(job_id)
        self._stolen.discard(job_id)
        self._claim_skip.pop(job_id, None)

    # -- farm tick ------------------------------------------------------------

    async def _farm_loop(self) -> None:
        while True:
            await asyncio.sleep(self._farm_tick)
            try:
                self._farm_step()
            except asyncio.CancelledError:
                raise
            except Exception:
                # One failed tick (e.g. a transient spool error) must not
                # kill the farm membership; the next tick retries.
                log.exception("%s: farm tick failed", self.node)

    def _farm_step(self) -> None:
        """One round of farm housekeeping (also run synchronously at boot).

        Order matters: sync first (decisions below see the freshest
        records), then apply cancel markers, renew before claiming (a
        renewal failure lowers our owned count, freeing budget), and
        steal only after whole-shard claims came up empty — whole shards
        preserve cache affinity, single stolen jobs do not."""
        assert self._board is not None
        for record in self.queue.sync():
            event = self._events.setdefault(record.job_id, asyncio.Event())
            if record.state.terminal:
                event.set()
            elif record.state is JobState.PENDING:
                self._wake_shard(record.shard % self.shards)
        self._apply_cancel_markers()
        for shard in sorted(self._owned):
            if not self._board.renew(shard):
                self._owned.discard(shard)
                self._shards_lost += 1
                log.warning("%s: lost the lease on shard %d", self.node, shard)
        if self._accepting:
            self._claim_shards()
            if self.steal and not any(
                self.queue.pending_for(shard, self.shards)
                for shard in self._owned
            ):
                self._try_steal()
        # Re-wake owned shards with work: a job skipped on a lost claim
        # race would otherwise wait for an unrelated wake.
        for shard in self._owned:
            if self.queue.pending_for(shard, self.shards):
                self._wake_shard(shard)

    def _apply_cancel_markers(self) -> None:
        """Apply peers' cancel requests for jobs we are responsible for."""
        control = self._control_dir()
        if not control.is_dir():
            return
        for path in control.glob("cancel-*.json"):
            job_id = path.name[len("cancel-") : -len(".json")]
            try:
                record = self.queue.get(job_id)
            except QueueError:
                record = self.queue.refresh_from_disk(job_id)
            if record is None:
                continue  # not visible yet; keep the marker
            if record.state.terminal:
                # Already finished (possibly cancelled by its owner):
                # the marker is spent either way.
                path.unlink(missing_ok=True)
                continue
            mine = (
                (record.shard % self.shards) in self._owned
                or record.owner == self.node
                or record.job_id in self._stolen
            )
            if not mine:
                continue
            try:
                self.cancel(job_id)
            except ServiceError:
                continue
            path.unlink(missing_ok=True)

    def _claim_shards(self) -> None:
        """Claim free/expired shards up to a fair share of the live farm.

        The budget is ``ceil(shards / live_owners)`` where live owners
        are daemons holding at least one unexpired lease (us included):
        when a peer dies its leases expire, the divisor shrinks, and the
        survivors' budgets grow to cover its territory.  Expired shards
        are ranked by backlog so a dead peer's hottest shard is adopted
        first."""
        assert self._board is not None
        live = self._board.live_owners() | {self.node}
        budget = math.ceil(self.shards / len(live))
        if len(self._owned) >= budget:
            return
        candidates: list[tuple[int, int]] = []
        for row in self._board.snapshot():
            shard = row["shard"]
            if shard in self._owned or not row["expired"]:
                continue
            backlog = len(self.queue.pending_for(shard, self.shards))
            candidates.append((-backlog, shard))
        candidates.sort()
        for _neg_backlog, shard in candidates:
            if len(self._owned) >= budget:
                break
            if self._board.claim(shard):
                self._adopt_shard(shard)

    def _adopt_shard(self, shard: int) -> None:
        """Take over a shard we just claimed: reap its orphans, wake it."""
        self._owned.add(shard)
        self._shards_claimed += 1
        log.info("%s: claimed shard %d", self.node, shard)
        now = self.queue.clock()
        for record in self.queue.jobs():
            if (
                record.shard % self.shards == shard
                and record.state is JobState.RUNNING
                and record.lease_deadline is not None
                and record.lease_deadline < now
            ):
                self._reap_record(record)
        self._wake_shard(shard)

    def _try_steal(self) -> None:
        """Steal one PENDING job from the most backlogged unowned shard.

        Runs only when every owned shard is drained, and only after
        :meth:`_claim_shards` found no whole shard to adopt — a stolen
        single job gives up the prefix-cache affinity a whole-shard claim
        keeps.  The claim file is the handoff guard; ``steal.race`` chaos
        rules widen the window between choosing a victim and claiming
        it."""
        assert self._claims is not None
        best: tuple[int, int] | None = None
        for shard in range(self.shards):
            if shard in self._owned:
                continue
            backlog = len(self.queue.pending_for(shard, self.shards))
            if backlog and (best is None or backlog > best[0]):
                best = (backlog, shard)
        if best is None:
            return
        shard = best[1]
        for record in self.queue.pending_for(shard, self.shards):
            if record.job_id in self._stolen:
                continue
            faults.maybe_sleep("steal.race", f"{self.node}:{record.job_id}")
            if not self._claims.claim(record.job_id):
                continue
            fresh = self.queue.refresh_from_disk(record.job_id)
            if fresh is None or fresh.state is not JobState.PENDING:
                self._claims.release(record.job_id)
                continue
            self._stolen.add(record.job_id)
            self._steal_count += 1
            log.info(
                "%s: stole %s from shard %d (backlog %d)",
                self.node,
                record.job_id,
                shard,
                best[0],
            )
            self._wake_shard(shard)
            return

    def _slot(self, shard: int) -> int:
        """The local worker slot covering a logical shard."""
        return shard % self.workers

    def _rebuild_slot(self, slot: int, kill: bool = False) -> None:
        """Replace a worker slot's pool (crash containment / timeout).

        ``kill=True`` terminates worker processes still running (a timed-
        out job's worker keeps computing otherwise); the fresh pool
        rebuilds its prefix cache from the shared disk directory, so only
        the in-memory layer is lost."""
        if self.inline:
            return
        pool = self._pools[slot]
        victims = (
            list((getattr(pool, "_processes", None) or {}).values())
            if kill
            else []
        )
        pool.shutdown(wait=False, cancel_futures=True)
        for proc in victims:
            try:
                proc.kill()
            except Exception:
                pass
        self._pools[slot] = self._make_pool()
        log.warning("shard %d: worker pool rebuilt (kill=%s)", slot, kill)

    async def _execute(self, record: Any, shard: int) -> dict[str, Any]:
        """Run one attempt, translating infrastructure failures into
        :class:`_RetryableJobError` for the retry path.  Returns the
        ``{"metrics", "program"}`` envelope of :func:`_execute_wire_job`."""
        slot = self._slot(shard)
        progress_path = self.queue.progress_path(record.job_id)
        # Taken before any await: a cancel that lands meanwhile cuts the
        # record's payload down to its label.
        payload = record.payload
        if self.inline:
            job = decode_job(payload)
            context = f"{job.backend}:{job.circuit.name}#a{record.attempts}"
            faults.maybe_sleep("job.slow", context)
            previous = set_pass_progress_sink(
                _progress_file_sink(progress_path, record.attempts)
            )
            try:
                if record.keep_program:
                    return self._execute_inline(payload, slot, True)
                return self._execute_inline(payload, slot)
            finally:
                set_pass_progress_sink(previous)
        loop = asyncio.get_running_loop()
        try:
            # A cold (fresh or rebuilt) pool starts its worker on first use:
            # pay that before the deadline starts so a timeout covers only
            # the job.  The first submit blocks until the forkserver has
            # finished its preload and forked the worker, so it runs off
            # the event loop.  Re-checked after the await: a job sharing
            # the slot may rebuild it.
            while self._pools[slot] not in self._warm_pools:
                pool = self._pools[slot]
                ready = await asyncio.to_thread(pool.submit, _pool_ready)
                await asyncio.wrap_future(ready)
                self._warm_pools.add(pool)
            future = loop.run_in_executor(
                self._pools[slot],
                _execute_wire_job,
                payload,
                record.attempts,
                record.keep_program,
                str(progress_path),
            )
            self._inflight[record.job_id] = future
            if record.timeout is not None:
                return await asyncio.wait_for(future, record.timeout)
            return await future
        except asyncio.TimeoutError:
            self._rebuild_slot(slot, kill=True)
            raise _RetryableJobError(
                f"attempt {record.attempts} timed out after {record.timeout}s "
                f"(worker killed, shard {slot} pool rebuilt)"
            ) from None
        except BrokenProcessPool:
            self._rebuild_slot(slot)
            raise _RetryableJobError(
                f"attempt {record.attempts} crashed its worker "
                f"(BrokenProcessPool; shard {slot} pool rebuilt)"
            ) from None
        finally:
            self._inflight.pop(record.job_id, None)

    async def _run_one(self, job_id: str, shard: int) -> None:
        record = self.queue.get(job_id)
        if record.state is not JobState.PENDING:
            return  # cancelled while queued, or a duplicate wake
        if self._claims is not None and not self._claims.holds(job_id):
            # Farm mode: the exclusive claim file is what makes the
            # takeover window and the steal handoff single-winner.
            if not self._claims.claim(job_id):
                # A peer holds the claim (it is dispatching the job, or
                # died a moment ago): back this job off briefly and let
                # the spool sync surface the outcome.
                self._claim_skip[job_id] = self.queue.clock() + min(
                    self.lease_seconds / 4.0, 0.5
                )
                refreshed = self.queue.refresh_from_disk(job_id)
                if refreshed is not None and refreshed.state.terminal:
                    self._finish(job_id)
                return
            # We hold the claim; disk is authoritative on whether the
            # job is still PENDING (our view may predate a peer's write).
            refreshed = self.queue.refresh_from_disk(job_id)
            if refreshed is None or refreshed.state is not JobState.PENDING:
                self._release_claim(job_id)
                if refreshed is not None and refreshed.state.terminal:
                    self._finish(job_id)
                return
            record = refreshed
        self.queue.acquire(
            job_id, owner=self.node, lease_seconds=self.lease_seconds
        )
        attempt = record.attempts
        beat = asyncio.create_task(self._heartbeat(job_id))
        try:
            encoded = await self._execute(record, shard)
        except asyncio.CancelledError:
            # Job-level cancellation (cancel() revoked the lease and
            # cancelled the in-flight future) and dispatcher-task
            # cancellation (aclose()) both land here; a task cancel must
            # propagate even when the job was also cancelled, or the
            # dispatcher swallows it and aclose() waits forever.
            task = asyncio.current_task()
            dying = task is not None and task.cancelling()
            requeued = False
            if self.queue.get(job_id).state is not JobState.CANCELLED:
                # Hand the attempt back uncharged: on shutdown the next
                # daemon re-runs it from the spool; otherwise (the future
                # was cancelled out from under us) re-wake it here.
                self.queue.requeue(job_id, refund_attempt=True)
                requeued = True
            self._release_claim(job_id)
            if dying:
                raise
            if requeued:
                self._wake_shard(shard)
            return
        except _RetryableJobError as exc:
            log.warning("job %s: %s", job_id, exc)
            state = self.queue.retry_or_fail(job_id, str(exc))
            self._release_claim(job_id)
            if state is JobState.PENDING:
                self._wake_shard(shard)
            else:
                log.error(
                    "job %s dead-lettered after %d attempt(s): %s",
                    job_id,
                    self.queue.get(job_id).attempts,
                    exc,
                )
                self._finish(job_id)
            return
        except Exception:
            # The job itself raised — deterministic, so retrying cannot
            # help; fail it now with the traceback.
            error = traceback.format_exc(limit=8)
            log.warning("job %s failed:\n%s", job_id, error)
            self.queue.mark_failed(job_id, error)
            self._release_claim(job_id)
            self._finish(job_id)
            return
        finally:
            beat.cancel()
        if self.farm:
            # A peer may have reaped (and even re-run) the job while our
            # attempt executed; its spool record, not ours, decides.
            self.queue.refresh_from_disk(job_id)
        current = self.queue.get(job_id)
        superseded = (
            current.state is not JobState.RUNNING
            or current.attempts != attempt
            or (self.farm and current.owner != self.node)
        )
        if superseded:
            # Cancelled or reaped while the attempt ran: discard the late
            # result (the reaped case re-runs and produces it again).
            log.warning(
                "job %s: discarding result of superseded attempt %d "
                "(state=%s, attempts=%d, owner=%s)",
                job_id,
                attempt,
                current.state.value,
                current.attempts,
                current.owner,
            )
            self._release_claim(job_id)
            return
        program_payload = encoded.get("program")
        if program_payload is not None:
            try:
                self.queue.store_program(job_id, program_payload)
            except OSError:
                # The metrics are the contract; a lost program capture
                # degrades the `program` op, not the job.
                log.warning(
                    "job %s: program capture lost to a spool write failure",
                    job_id,
                )
        # decoded before mark_done, which cuts the record's payload down
        job = (
            decode_job(record.payload)
            if self._result_cache is not None
            else None
        )
        self.queue.mark_done(job_id, encoded["metrics"])
        self._release_claim(job_id)
        if job is not None:
            self._result_cache.put(job, decode_metrics(encoded["metrics"]))
        self._finish(job_id)
        # Chaos hook: a deterministic stand-in for "SIGKILL mid-run" —
        # fires only under an installed fault plan.
        faults.maybe_exit("daemon.exit", job_id)

    def _execute_inline(
        self, payload: dict[str, Any], slot: int, keep_program: bool = False
    ) -> dict[str, Any]:
        job = decode_job(payload)
        cache = self.shard_caches[slot]
        if job.options.pipeline_cache is None:
            job = replace(
                job, options=replace(job.options, pipeline_cache=cache)
            )
        if keep_program:
            return _capture_envelope(job)
        metrics = get_backend(job.backend).compile(job.circuit, job.options)
        return {"metrics": encode_metrics(metrics), "program": None}


# -- socket front-end --------------------------------------------------------


class ServiceServer:
    """Binary-frame socket server exposing a :class:`CompileService`.

    Every request and response is one length-prefixed frame (see
    :mod:`repro.service.wire`).  Supported ops: ``ping``, ``backends``,
    ``submit`` (optional ``timeout``/``max_retries``/``key``/``priority``/
    ``deadline``/``keep_program``), ``status``, ``result`` (optional
    ``wait``/``timeout``; with ``stream`` the response is a frame sequence
    — per-pass ``progress`` events, then one ``program`` frame for
    ``keep_program`` jobs, then a terminal ``done`` with the metrics),
    ``program``, ``cancel``, ``jobs``, ``stats``, ``drain``.  Programs
    ship as binary-doc attachments carrying the spooled v3 record as it
    is.

    A frame that decodes badly gets an ``ok: false`` answer and the
    connection stays usable; a bad *header* (wrong magic, version, flags,
    or length) leaves no way to find the next frame boundary, so it is
    answered with one error frame and the connection is closed.
    """

    def __init__(
        self,
        service: CompileService,
        socket_path: str | Path | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service
        self.socket_path = str(socket_path) if socket_path is not None else None
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None
        self._drained = asyncio.Event()

    @property
    def address(self) -> str:
        if self.socket_path is not None:
            return f"unix:{self.socket_path}"
        return f"tcp:{self.host}:{self.port}"

    async def start(self) -> None:
        await self.service.start()
        if self.socket_path is not None:
            stale = Path(self.socket_path)
            if stale.is_socket():  # leftover of a killed daemon
                stale.unlink()
            self._server = await asyncio.start_unix_server(
                self._handle, path=self.socket_path
            )
        else:
            self._server = await asyncio.start_server(
                self._handle, host=self.host, port=self.port
            )
            self.port = self._server.sockets[0].getsockname()[1]

    async def serve_until_drained(self) -> None:
        """Serve requests until a ``drain`` op completes, then stop."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._drained.wait()

    async def aclose(self) -> None:
        self._drained.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.service.aclose()

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                first = await reader.read(1)
                if not first:
                    break
                try:
                    # Non-frame bytes fail on the first byte: no waiting
                    # for a header a foreign peer will never send.
                    rest = b""
                    if first == FRAME_MAGIC[:1]:
                        rest = await reader.readexactly(FRAME_HEADER_LEN - 1)
                    flags, length = parse_frame_header(first + rest)
                    body = await reader.readexactly(length)
                except asyncio.IncompleteReadError:
                    break  # peer vanished mid-frame: nothing to answer
                except WireError as exc:
                    # No way to find the next frame boundary: answer once
                    # and hang up.
                    error = {"ok": False, "error": f"bad request: {exc}"}
                    writer.write(encode_frame(error))
                    await writer.drain()
                    break
                request: dict[str, Any] | None = None
                try:
                    request = decode_frame_payload(flags, body)
                except WireError as exc:
                    response = {"ok": False, "error": str(exc)}
                else:
                    if request.get("op") == "result" and request.get("stream"):
                        await self._stream_result(request, writer)
                        continue
                    response = await self._respond(request)
                # Chaos hook: drop the connection after the request was
                # processed but before the response frame leaves — the
                # window where a client cannot know whether its submit
                # landed, which is what idempotency keys are for.
                if faults.fires(
                    "socket.drop", str((request or {}).get("op", ""))
                ):
                    break
                try:
                    self._write_message(writer, response)
                except WireError as exc:  # a record past MAX_FRAME_BYTES
                    error = {
                        "ok": False,
                        "op": response.get("op"),
                        "error": str(exc),
                    }
                    self._write_message(writer, error)
                await writer.drain()
                if response.get("op") == "drain" and response.get("ok"):
                    self._drained.set()
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    def _write_message(
        self, writer: asyncio.StreamWriter, message: dict[str, Any]
    ) -> None:
        """Queue one response frame.

        A ``"_bindoc": (field, bytes)`` attachment ships as a binary-doc
        frame instead of JSON text.
        """
        bindoc = message.pop("_bindoc", None)
        if bindoc is not None:
            field, doc = bindoc
            data = encode_bindoc_frame(message, field, doc)
        else:
            data = encode_frame(message)
        # Chaos hook: flip the last payload byte of an outbound frame so
        # clients must fail fast with WireError, never hang.
        if faults.fires("frame.corrupt", str(message.get("op", ""))):
            data = data[:-1] + bytes((data[-1] ^ 0xFF,))
        writer.write(data)

    async def _stream_result(
        self, request: dict[str, Any], writer: asyncio.StreamWriter
    ) -> None:
        """The streaming ``result`` path: progress events while the job
        runs, then the program (``keep_program`` jobs) as one binary-doc
        frame carrying the spooled ``programs/<id>.bin`` bytes unchanged —
        the daemon never decodes, re-chunks or re-encodes it — then a
        terminal ``done`` message carrying the metrics.

        Every message is a standalone frame with an ``event``
        discriminator; the client reads until ``done`` (or ``ok: false``).
        """
        service = self.service
        op = "result"

        async def send(message: dict[str, Any]) -> None:
            self._write_message(writer, message)
            await writer.drain()

        try:
            job_id = request["id"]
            wait = bool(request.get("wait", True))
            timeout = request.get("timeout")
            loop = asyncio.get_running_loop()
            deadline = (
                loop.time() + float(timeout) if timeout is not None else None
            )
            sent = 0
            while True:
                record = service._lookup(job_id)
                events = service.progress(job_id)
                for event in events[sent:]:
                    await send(
                        {"ok": True, "op": op, "event": "progress", **event}
                    )
                sent = len(events)
                if record.state.terminal:
                    break
                if not wait:
                    raise ServiceError(
                        f"job {job_id} is not finished "
                        f"(state={record.state.value})"
                    )
                if deadline is not None and loop.time() >= deadline:
                    raise ServiceError(
                        f"timed out waiting for {job_id} "
                        f"(state={record.state.value})"
                    )
                # Tail progress while waiting: wake on job completion or
                # every poll slice, whichever comes first.
                event = service._events.setdefault(job_id, asyncio.Event())
                poll = 0.05
                if deadline is not None:
                    poll = min(poll, max(deadline - loop.time(), 0.01))
                try:
                    await asyncio.wait_for(event.wait(), poll)
                except asyncio.TimeoutError:
                    pass
            metrics = await service.result(job_id)
            record = service._lookup(job_id)
            raw = (
                service.queue.load_program_bytes(job_id)
                if record.keep_program
                else None
            )
            if raw is not None:
                await send(
                    {
                        "ok": True,
                        "op": op,
                        "event": "program",
                        "_bindoc": ("program", raw),
                    }
                )
            await send({"ok": True, "op": op, "event": "done", "metrics": metrics})
        except (ServiceError, WireError, ValueError) as exc:
            await send({"ok": False, "op": op, "error": str(exc)})
        except KeyError as exc:
            await send({"ok": False, "op": op, "error": f"missing field {exc}"})

    async def _respond(self, request: dict[str, Any]) -> dict[str, Any]:
        try:
            op = request["op"]
        except (KeyError, TypeError) as exc:
            return {"ok": False, "error": f"bad request: {exc}"}
        service = self.service
        try:
            if op == "ping":
                return {"ok": True, "op": op}
            if op == "backends":
                return {"ok": True, "op": op, "backends": available_backends()}
            if op == "submit":
                control = decode_job_control(request)
                job_id = await service.submit(
                    request.get("job"),
                    timeout=control.timeout,
                    max_retries=control.max_retries,
                    job_key=control.key,
                    priority=control.priority or 0,
                    deadline=control.deadline,
                    keep_program=control.keep_program,
                )
                return {"ok": True, "op": op, "id": job_id}
            if op == "status":
                return {"ok": True, "op": op, "job": service.status(request["id"])}
            if op == "result":
                payload = await service.result(
                    request["id"],
                    wait=bool(request.get("wait", False)),
                    timeout=request.get("timeout"),
                )
                return {"ok": True, "op": op, "metrics": payload}
            if op == "program":
                # _write_message ships the attachment as a binary-doc frame
                raw = service.program_bytes(request["id"])
                return {"ok": True, "op": op, "_bindoc": ("program", raw)}
            if op == "cancel":
                return {
                    "ok": True,
                    "op": op,
                    "cancelled": service.cancel(request["id"]),
                }
            if op == "jobs":
                return {"ok": True, "op": op, "jobs": service.jobs()}
            if op == "stats":
                return {"ok": True, "op": op, "stats": service.stats()}
            if op == "drain":
                finished = await service.drain()
                return {"ok": True, "op": op, "finished": finished}
        except WireError as exc:
            return {"ok": False, "op": op, "error": str(exc)}
        except ServiceError as exc:
            return {"ok": False, "op": op, "error": str(exc)}
        except KeyError as exc:
            return {"ok": False, "op": op, "error": f"missing field {exc}"}
        return {"ok": False, "error": f"unknown op {op!r}"}


async def _serve(
    socket_path: str | None,
    host: str,
    port: int,
    spool_dir: str | None,
    shards: int,
    prefix_cache_dir: str | None,
    result_cache_dir: str | None,
    inline: bool,
    lease_seconds: float,
    fault_spec: str | None,
    farm: bool,
    node: str | None,
    workers: int | None,
    shard_lease_seconds: float,
) -> None:
    service = CompileService(
        spool_dir=spool_dir,
        shards=shards,
        prefix_cache_dir=prefix_cache_dir,
        result_cache_dir=result_cache_dir,
        inline=inline,
        lease_seconds=lease_seconds,
        fault_plan=fault_spec if fault_spec is not None else faults.active(),
        farm=farm,
        node=node,
        workers=workers,
        shard_lease_seconds=shard_lease_seconds,
    )
    server = ServiceServer(service, socket_path=socket_path, host=host, port=port)
    await server.start()
    # Machine-parseable readiness line: the smoke harness and `repro submit
    # --wait-for` poll for it before connecting.
    print(f"repro-serve: listening on {server.address}", flush=True)
    try:
        await server.serve_until_drained()
    finally:
        await server.aclose()
        print("repro-serve: drained, shutting down", flush=True)


def serve_forever(
    socket_path: str | None = None,
    host: str = "127.0.0.1",
    port: int = 0,
    spool_dir: str | None = None,
    shards: int = 2,
    prefix_cache_dir: str | None = None,
    result_cache_dir: str | None = None,
    inline: bool = False,
    lease_seconds: float = DEFAULT_LEASE_SECONDS,
    fault_spec: str | None = None,
    farm: bool = False,
    node: str | None = None,
    workers: int | None = None,
    shard_lease_seconds: float = DEFAULT_SHARD_LEASE_SECONDS,
) -> int:
    """Blocking entry point used by ``python -m repro serve``."""
    logging.basicConfig(
        level=logging.INFO,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    # Chaos harnesses arm a whole daemon subprocess via the environment;
    # an explicit --faults spec wins over it.
    faults.install_from_env()
    try:
        asyncio.run(
            _serve(
                socket_path,
                host,
                port,
                spool_dir,
                shards,
                prefix_cache_dir,
                result_cache_dir,
                inline,
                lease_seconds,
                fault_spec,
                farm,
                node,
                workers,
                shard_lease_seconds,
            )
        )
    except KeyboardInterrupt:
        pass
    return 0
