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

The lifecycle decisions (dispatch, reap, cancel, every terminal
transition) are made by the sans-IO
:class:`~repro.service.lifecycle.FarmNode`; :class:`CompileService` is the
asyncio driver around it.  A solo daemon's node owns every shard.  **Farm
mode** (``farm=True``) gives the node a shard-lease board and per-job
claim files on a spool shared by N daemons, with no coordinator; worker
slots then decouple from logical shards (``workers`` local pools, shard →
slot by modulo).

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
from ..experiments import batch
from ..experiments.batch import CompileJob, ResultCache
from ..hardware.raa import RAAArchitecture
from . import faults
from .lifecycle import FarmNode
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


def _shutdown_pool(pool: ProcessPoolExecutor, kill: bool) -> None:
    """Shut *pool* down without waiting; ``kill`` also ends workers still
    computing."""
    victims = list((getattr(pool, "_processes", None) or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for proc in victims if kill else ():
        try:
            proc.kill()
        except Exception:
            pass


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
        board = claims = None
        if farm:
            board = ShardBoard(
                Path(spool_dir) / "shards",
                owner=self.node,
                shards=shards,
                lease_seconds=shard_lease_seconds,
                clock=clock,
            )
            claims = JobClaims(
                Path(spool_dir) / "claims",
                owner=self.node,
                lease_seconds=lease_seconds,
                clock=clock,
            )
        #: every dispatch, reap, cancel and terminal decision; a solo
        #: daemon's node has no board and no claims and owns every shard
        self.lifecycle = FarmNode(
            self.queue, shards, self.node, lease_seconds, board, claims,
            wake=self._wake_shard, finished=self._job_finished,
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
        #: waiters of unfinished jobs, set and dropped when the job finishes
        self._events: dict[str, asyncio.Event] = {}
        self._inflight: dict[str, asyncio.Future[Any]] = {}
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
        # A farm node claims its fair share of shards before the first
        # dispatch, so the boot backlog does not sit through a whole tick.
        self.lifecycle.tick()
        # Each dispatcher scans its shard before it first waits, so jobs
        # spooled by a previous daemon need no wake.
        self._dispatchers = [
            asyncio.create_task(self._dispatch(shard))
            for shard in range(self.shards)
        ]
        # The reaper is the backstop for a dispatcher that died or a daemon
        # that froze past its lease, and how a dead farm peer's in-flight
        # jobs come back; with healthy dispatchers it never fires.
        self._reaper = asyncio.create_task(
            self._every(max(self.lease_seconds / 2.0, 0.1), self.lifecycle.reap)
        )
        if self.lifecycle.board is not None:
            self._farm_task = asyncio.create_task(
                self._every(self._farm_tick, self.lifecycle.tick)
            )

    async def drain(self) -> int:
        """Stop accepting, finish everything queued, shut workers down.

        Returns the number of jobs that reached a terminal state during
        the drain.  A farm daemon drains only its own responsibility —
        owned shards, stolen jobs, and its RUNNING attempts — and keeps
        renewing its shard leases meanwhile so peers do not steal the
        backlog it is about to finish.  Idempotent; the service cannot be
        restarted after."""
        self.lifecycle.accepting = False
        # Sweep in peers' latest spool writes before judging the backlog:
        # a submission accepted seconds ago on another daemon may not have
        # crossed a farm tick yet.
        self.lifecycle.tick()
        in_flight = len(self.lifecycle.backlog())
        while self.lifecycle.backlog():
            await asyncio.sleep(0.02)
        await self.aclose()
        return in_flight

    async def aclose(self) -> None:
        """Tear down dispatchers and worker pools (no waiting for jobs);
        an ephemeral service also removes its temporary spool."""
        self.lifecycle.accepting = False
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
        self.lifecycle.release_shards()
        for pool in self._pools:
            # Kill workers still computing (e.g. a cancelled job's
            # attempt): their results are discarded anyway, and a live
            # worker would block interpreter exit until it finishes.
            _shutdown_pool(pool, kill=True)
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
        # A key submitted through a peer daemon lives on disk, not in our
        # memory yet: sync before the idempotency check.
        self.lifecycle.sync()
        if job_key is not None:
            existing = self.queue.by_key(job_key)
            if existing is not None:
                return existing.job_id
        if not self.lifecycle.accepting:
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
        # A result-cache hit cannot supply the program, so keep_program
        # jobs always compile.
        hit = (
            self._result_cache.get(job)
            if self._result_cache is not None and not keep_program
            else None
        )
        if hit is not None:
            self.lifecycle.settle(
                record.job_id,
                lambda: self.queue.mark_done(record.job_id, encode_metrics(hit)),
            )
        else:
            self._wake_shard(shard)
        return record.job_id

    def _lookup(self, job_id: str) -> JobRecord:
        """Get a record, falling back to the shared spool in farm mode
        (the job may have been submitted through a peer daemon)."""
        try:
            return self.queue.get(job_id)
        except QueueError as exc:
            if self.queue.shared:
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
            # The event is set when the node settles the job: locally, or
            # for a job finishing on a peer daemon, on the farm tick.
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

        A farm daemon that is not responsible for the job drops a marker
        file for the owner instead (:meth:`FarmNode.cancel`)."""
        self._lookup(job_id)
        cancelled = self.lifecycle.cancel(job_id)
        future = self._inflight.get(job_id)
        if cancelled and future is not None:
            future.cancel()
        return cancelled

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
            "accepting": self.lifecycle.accepting,
            "owner": self.node,
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
            "owned_shards": sorted(self.lifecycle.owned),
            "shard_leases": (
                self.lifecycle.board.snapshot()
                if self.lifecycle.board is not None
                else None
            ),
            "steals": self.lifecycle.steals,
            "shards_claimed": self.lifecycle.shards_claimed,
            "shards_lost": self.lifecycle.shards_lost,
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

    def _job_finished(self, job_id: str) -> None:
        event = self._events.pop(job_id, None)
        if event is not None:
            event.set()

    async def _dispatch(self, shard: int) -> None:
        wake = self._wake[shard]
        while True:
            wake.clear()
            job_id = self.lifecycle.next_dispatchable(shard)
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
                    "shard %d: bookkeeping failure while running %s", shard, job_id
                )
                try:
                    self.lifecycle.fail(job_id, traceback.format_exc(limit=8))
                except Exception:
                    log.exception(
                        "shard %d: could not record the failure of %s — the "
                        "job stays in its last spooled state", shard, job_id,
                    )

    async def _heartbeat(self, job_id: str) -> None:
        interval = max(self.lease_seconds / 3.0, 0.05)
        while True:
            await asyncio.sleep(interval)
            if not self.lifecycle.heartbeat(job_id):
                return  # job left RUNNING (cancelled/reaped): stop beating

    async def _every(self, seconds: float, step: Callable[[], None]) -> None:
        """Run *step* every *seconds*: the lease reaper and the farm tick.
        One failed round (e.g. a transient spool error) must not end the
        loop; the next round retries."""
        while True:
            await asyncio.sleep(seconds)
            try:
                step()
            except Exception:
                log.exception("%s: %s failed", self.node, step.__name__)

    def _rebuild_slot(self, slot: int, kill: bool = False) -> None:
        """Replace a worker slot's pool (crash containment / timeout).

        ``kill=True`` terminates worker processes still running (a timed-
        out job's worker keeps computing otherwise); the fresh pool
        rebuilds its prefix cache from the shared disk directory, so only
        the in-memory layer is lost."""
        if self.inline:
            return
        _shutdown_pool(self._pools[slot], kill)
        self._pools[slot] = self._make_pool()
        log.warning("shard %d: worker pool rebuilt (kill=%s)", slot, kill)

    async def _execute(
        self, record: JobRecord, payload: dict[str, Any], shard: int
    ) -> dict[str, Any]:
        """Run one attempt, translating infrastructure failures into
        :class:`_RetryableJobError` for the retry path.  Returns the
        ``{"metrics", "program"}`` envelope of :func:`_execute_wire_job`."""
        slot = shard % self.workers  # the local worker slot of the shard
        progress_path = self.queue.progress_path(record.job_id)
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
        record = self.lifecycle.begin(job_id)
        if record is None:
            return
        attempt = record.attempts
        # Taken before any await: a cancel that lands meanwhile cuts the
        # record's payload down to its label.
        payload = record.payload
        beat = asyncio.create_task(self._heartbeat(job_id))
        try:
            encoded = await self._execute(record, payload, shard)
        except asyncio.CancelledError:
            # Job-level cancellation (cancel() revoked the lease and
            # cancelled the in-flight future) and dispatcher-task
            # cancellation (aclose()) both land here; a task cancel must
            # propagate even when the job was also cancelled, or the
            # dispatcher swallows it and aclose() waits forever.
            self.lifecycle.abandon(job_id, attempt)
            task = asyncio.current_task()
            if task is not None and task.cancelling():
                raise
            return
        except _RetryableJobError as exc:
            log.warning("job %s: %s", job_id, exc)
            self.lifecycle.fail(job_id, str(exc), attempt, retry=True)
            return
        except Exception:
            # The job itself raised — deterministic, so retrying cannot
            # help; fail it now with the traceback.
            error = traceback.format_exc(limit=8)
            log.warning("job %s failed:\n%s", job_id, error)
            self.lifecycle.fail(job_id, error, attempt)
            return
        finally:
            beat.cancel()
        if not self.lifecycle.complete(
            job_id, attempt, encoded["metrics"], encoded.get("program")
        ):
            return
        if self._result_cache is not None:
            self._result_cache.put(
                decode_job(payload), decode_metrics(encoded["metrics"])
            )
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
    service_options: dict[str, Any],
) -> None:
    service = CompileService(**service_options)
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
    **service_options: Any,
) -> int:
    """Blocking entry point used by ``python -m repro serve``.

    *service_options* go to :class:`CompileService` as they are."""
    logging.basicConfig(
        level=logging.INFO,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    # Chaos harnesses arm a whole daemon subprocess via the environment;
    # an explicit --faults spec wins over it.
    faults.install_from_env()
    if service_options.get("fault_plan") is None:
        service_options["fault_plan"] = faults.active()
    try:
        asyncio.run(_serve(socket_path, host, port, service_options))
    except KeyboardInterrupt:
        pass
    return 0
