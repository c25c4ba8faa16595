"""Persistent job queue backing the compile service.

The queue is the service's source of truth: every submitted job becomes a
:class:`JobRecord` (wire payload + lifecycle state), spooled to disk so a
restarted daemon resumes exactly where the last one stopped — ``PENDING``
jobs are still pending, jobs that were ``RUNNING`` when the process died
are re-queued (their worker is gone), and finished results are served
from the spool without recompiling.  There is no memory-only mode: a
service started without a spool spools to a temporary directory it owns.

A ``RUNNING`` job holds a **lease**: :meth:`JobQueue.acquire` stamps an
owner and a lease deadline and increments the record's attempt counter;
the dispatcher extends the lease with :meth:`heartbeat` while the job
executes.  A lease that expires (daemon froze, dispatcher lost track) or
an owner that died requeues the job — unless its attempts have reached
``max_retries``, in which case it **dead-letters** as ``FAILED`` with the
last error, so a poison job that crashes its worker on every attempt
stops retrying instead of wedging the shard forever.

Layout of a spool directory::

    spool/
      jobs/<job_id>.json      one record per job, rewritten atomically on
                              every state transition
      results/<job_id>.json   wire-encoded CompiledMetrics of DONE jobs;
                              payloads over 64 KiB are zlib-deflated
                              behind a 2-byte magic (sniffed on read, so
                              pre-existing plain-JSON spools still load)
      programs/<job_id>.bin   v3 binary columnar programs of DONE jobs
                              submitted with ``keep_program``
      progress/<job_id>.jsonl per-pass progress events appended by the
                              worker mid-compile (one JSON object per
                              line), surfaced by ``status`` and the
                              streaming ``result`` op
      quarantine/<name>       spool files that failed to decode at boot,
                              moved aside (never deleted, never fatal)

Ordering is submission order (FIFO): records carry a monotonically
increasing ``seq`` assigned at submission, which survives restarts.
Jobs may carry a ``priority`` (higher dispatches first) and a dispatch
``deadline``; :meth:`JobQueue.pending_for` yields a shard's backlog in
``(-priority, deadline, seq)`` order, so default submissions (priority 0,
no deadline) keep exact FIFO behaviour.

**Shared spools** (the compile farm): with ``shared=True`` several
daemons mount one spool directory.  The queue then (a) suffixes job ids
with a per-daemon ``node_id`` so concurrent submissions on different
daemons can never collide, (b) leaves RUNNING records alone at boot —
they belong to live peers; shard-lease expiry, not boot, decides they are
orphaned — and (c) ingests peers' record writes through :meth:`sync` /
:meth:`refresh_from_disk`, tracking an ``(mtime_ns, size)`` fingerprint
per spool file so its own atomic writes are never re-ingested.  Disk is
authoritative on every conflict.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import time
import zlib
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Any, Callable

from ..core.blobs import atomic_write
from . import faults

log = logging.getLogger("repro.service")

#: Attempts a job may consume before it dead-letters as FAILED.
DEFAULT_MAX_RETRIES = 3

#: Two-byte prefix of a zlib-deflated result spool file.  ``0xAB`` can
#: never begin JSON text, so a reader sniffs the first bytes to pick the
#: decoder — pre-existing plain-JSON spool files keep loading unchanged.
SPOOL_DEFLATE_MAGIC = b"\xabZ"

#: Result payloads whose encoded JSON exceeds this are deflated on write.
SPOOL_COMPRESS_THRESHOLD = 64 * 1024


class JobState(str, Enum):
    """Lifecycle of one submitted job."""

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        return self in (JobState.DONE, JobState.FAILED, JobState.CANCELLED)


class QueueError(RuntimeError):
    """An operation referenced a job the queue does not hold."""


@dataclass
class JobRecord:
    """One queued compile job: wire payload plus lifecycle bookkeeping."""

    job_id: str
    seq: int
    shard: int
    payload: dict[str, Any]
    state: JobState = JobState.PENDING
    error: str | None = None
    #: times the job has been leased to a worker (``acquire`` increments)
    attempts: int = 0
    #: attempts allowed before the job dead-letters as FAILED
    max_retries: int = DEFAULT_MAX_RETRIES
    #: per-job execution timeout in seconds (None = no deadline)
    timeout: float | None = None
    #: client-supplied idempotency key (resubmission returns this record)
    job_key: str | None = None
    #: lease holder while RUNNING (a daemon identity string)
    owner: str | None = None
    #: wall-clock time the current lease expires (RUNNING only)
    lease_deadline: float | None = None
    #: dispatch priority — higher runs first within a shard
    priority: int = 0
    #: absolute wall-clock time the job must *dispatch* by (None = never)
    deadline: float | None = None
    #: capture the compiled program alongside the metrics
    keep_program: bool = False

    def summary(self) -> dict[str, Any]:
        """The status-API view of this record (no circuit body)."""
        return {
            "id": self.job_id,
            "seq": self.seq,
            "shard": self.shard,
            "state": self.state.value,
            "backend": self.payload.get("backend"),
            "benchmark": (self.payload.get("circuit") or {}).get("name"),
            "error": self.error,
            "attempts": self.attempts,
            "max_retries": self.max_retries,
            "timeout": self.timeout,
            "key": self.job_key,
            "owner": self.owner,
            "priority": self.priority,
            "deadline": self.deadline,
            "keep_program": self.keep_program,
        }


def dispatch_order(record: JobRecord) -> tuple[int, float, int, str]:
    """Sort key for a shard's backlog: priority first (higher wins), then
    earliest deadline, then submission order.  All-default submissions
    therefore dispatch in exact FIFO order."""
    return (
        -record.priority,
        record.deadline if record.deadline is not None else float("inf"),
        record.seq,
        record.job_id,
    )


class JobQueue:
    """FIFO job store spooled to *spool_dir*, with job leases.

    Every mutation is mirrored to disk before it is observable, so a
    crash between any two statements loses at most the in-flight
    transition — never a submitted job.

    ``clock`` is injectable (defaults to :func:`time.time`) so lease
    expiry is testable without sleeping.  Leases use wall-clock time
    because they must be comparable across daemon processes and reboots.
    """

    def __init__(
        self,
        spool_dir: str | Path,
        clock: Callable[[], float] = time.time,
        node_id: str | None = None,
        shared: bool = False,
    ) -> None:
        self._records: dict[str, JobRecord] = {}
        self._by_key: dict[str, str] = {}
        self._seq = 0
        self.clock = clock
        #: per-daemon suffix appended to job ids (farm collision guard)
        self.node_id = node_id
        #: several daemons share this spool: boot must not demote peers'
        #: RUNNING jobs, and :meth:`sync` ingests their record writes
        self.shared = shared
        #: spool filenames quarantined at boot (undecodable records)
        self.quarantined: list[str] = []
        #: (mtime_ns, size) per spool job file, as of our last read/write —
        #: sync() skips unchanged files and our own writes
        self._file_state: dict[str, tuple[int, int]] = {}
        self.spool_dir = Path(spool_dir)
        (self.spool_dir / "jobs").mkdir(parents=True, exist_ok=True)
        (self.spool_dir / "results").mkdir(parents=True, exist_ok=True)
        self._load()

    # -- submission and lookup ---------------------------------------------

    def submit(
        self,
        payload: dict[str, Any],
        shard: int,
        job_key: str | None = None,
        timeout: float | None = None,
        max_retries: int | None = None,
        priority: int = 0,
        deadline: float | None = None,
        keep_program: bool = False,
    ) -> JobRecord:
        """Register a wire-encoded job; returns its record (PENDING).

        With a *job_key*, submission is **idempotent**: a key the queue
        has already seen returns the existing record unchanged — the
        retry path of a client whose submit response was lost resubmits
        safely instead of duplicating the job.

        *deadline* is an **absolute** clock time (the server converts a
        client's seconds-from-now); *priority* orders dispatch within a
        shard (higher first).
        """
        if job_key is not None:
            existing = self.by_key(job_key)
            if existing is not None:
                return existing
        self._seq += 1
        digest = hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()
        ).hexdigest()
        job_id = f"job-{self._seq:06d}-{digest[:10]}"
        if self.node_id is not None:
            # Two farm daemons can hand out the same seq concurrently;
            # the node suffix keeps their ids (and spool files) distinct.
            job_id = f"{job_id}-{self.node_id}"
        record = JobRecord(
            job_id=job_id,
            seq=self._seq,
            shard=shard,
            payload=payload,
            timeout=timeout,
            max_retries=(
                max_retries if max_retries is not None else DEFAULT_MAX_RETRIES
            ),
            job_key=job_key,
            priority=priority,
            deadline=deadline,
            keep_program=keep_program,
        )
        self._records[record.job_id] = record
        if job_key is not None:
            self._by_key[job_key] = record.job_id
        self._persist(record)
        return record

    def get(self, job_id: str) -> JobRecord:
        try:
            return self._records[job_id]
        except KeyError:
            raise QueueError(f"unknown job {job_id!r}") from None

    def by_key(self, job_key: str) -> JobRecord | None:
        """The record submitted under an idempotency key, if any."""
        job_id = self._by_key.get(job_key)
        return self._records.get(job_id) if job_id is not None else None

    def jobs(self) -> list[JobRecord]:
        """All records in submission order (job id breaks cross-daemon
        seq ties deterministically on a shared spool)."""
        return sorted(self._records.values(), key=lambda r: (r.seq, r.job_id))

    def pending(self) -> list[JobRecord]:
        """PENDING records in submission order (restart re-dispatch)."""
        return [r for r in self.jobs() if r.state is JobState.PENDING]

    def pending_for(self, shard: int, modulo: int | None = None) -> list[JobRecord]:
        """A shard's dispatchable backlog in dispatch order.

        *modulo* maps recorded shard numbers onto the caller's shard
        count (a spool may carry records from a run with more shards).
        Order is :func:`dispatch_order`: priority desc, deadline asc,
        then FIFO.
        """
        records = [
            r
            for r in self._records.values()
            if r.state is JobState.PENDING
            and (r.shard % modulo if modulo else r.shard) == shard
        ]
        records.sort(key=dispatch_order)
        return records

    def failed(self) -> list[JobRecord]:
        """Dead-lettered records in submission order."""
        return [r for r in self.jobs() if r.state is JobState.FAILED]

    # -- leases --------------------------------------------------------------

    def acquire(
        self,
        job_id: str,
        owner: str | None = None,
        lease_seconds: float | None = None,
    ) -> JobRecord:
        """Lease a PENDING job to *owner*: RUNNING, attempts + 1.

        Raises :class:`QueueError` if the job is not PENDING (it finished,
        was cancelled, or another dispatcher got there first).
        """
        record = self.get(job_id)
        if record.state is not JobState.PENDING:
            raise QueueError(
                f"cannot acquire {job_id}: state is {record.state.value}"
            )
        record.state = JobState.RUNNING
        record.attempts += 1
        record.owner = owner
        record.lease_deadline = (
            self.clock() + lease_seconds if lease_seconds is not None else None
        )
        self._persist(record)
        return record

    def heartbeat(
        self, job_id: str, lease_seconds: float, owner: str | None = None
    ) -> bool:
        """Extend a RUNNING job's lease; returns whether it still held.

        With *owner*, the heartbeat only counts while the lease is still
        ours: a farm daemon whose job was reaped and re-leased by a peer
        must not stamp its deadline over the new owner's."""
        record = self.get(job_id)
        if record.state is not JobState.RUNNING:
            return False
        if owner is not None and record.owner != owner:
            return False
        record.lease_deadline = self.clock() + lease_seconds
        self._persist(record)
        return True

    def expired_leases(self) -> list[JobRecord]:
        """RUNNING records whose lease deadline has passed."""
        now = self.clock()
        return [
            r
            for r in self.jobs()
            if r.state is JobState.RUNNING
            and r.lease_deadline is not None
            and r.lease_deadline < now
        ]

    def requeue(self, job_id: str, refund_attempt: bool = False) -> None:
        """Put a RUNNING job back to PENDING, releasing its lease.

        ``refund_attempt=True`` is for clean hand-backs (graceful
        shutdown took the worker before the job failed): the attempt is
        not charged, so draining a daemon N times can never dead-letter a
        healthy job.  Crash and expiry paths keep the charge.
        """
        record = self.get(job_id)
        if refund_attempt and record.attempts > 0:
            record.attempts -= 1
        record.state = JobState.PENDING
        record.owner = None
        record.lease_deadline = None
        self._persist(record)

    def retry_or_fail(self, job_id: str, error: str) -> JobState:
        """Handle a failed attempt: requeue, or dead-letter as FAILED.

        Records *error* either way (a requeued job keeps its last error
        until it succeeds).  Returns the state the job landed in —
        ``PENDING`` means the caller should re-dispatch it.
        """
        record = self.get(job_id)
        if record.state.terminal:
            return record.state  # cancelled/finished while the attempt ran
        record.error = error
        record.owner = None
        record.lease_deadline = None
        if record.attempts >= record.max_retries:
            record.state = JobState.FAILED
        else:
            record.state = JobState.PENDING
        self._persist(record)
        return record.state

    # -- state transitions --------------------------------------------------

    def mark_done(self, job_id: str, result_payload: dict[str, Any]) -> bool:
        """Store the result and finish the job; returns whether it counted.

        A job cancelled (or otherwise finished) while its attempt was in
        flight is left alone — the late result is discarded.
        """
        record = self.get(job_id)
        if record.state.terminal:
            return False
        self._store_result(job_id, result_payload)
        record.state = JobState.DONE
        record.error = None
        record.owner = None
        record.lease_deadline = None
        self._persist(record)
        return True

    def mark_failed(self, job_id: str, error: str) -> bool:
        """Fail the job immediately (no retry); False if already terminal."""
        record = self.get(job_id)
        if record.state.terminal:
            return False
        record.error = error
        record.state = JobState.FAILED
        record.owner = None
        record.lease_deadline = None
        self._persist(record)
        return True

    def cancel(self, job_id: str) -> bool:
        """Cancel a PENDING or RUNNING job.

        Cancelling a RUNNING job revokes its lease — the dispatcher's
        in-flight attempt is discarded when it reports back.  Finished
        jobs are not touched; returns whether the cancellation took
        effect.
        """
        record = self.get(job_id)
        if record.state.terminal:
            return False
        record.state = JobState.CANCELLED
        record.owner = None
        record.lease_deadline = None
        self._persist(record)
        return True

    # -- results -------------------------------------------------------------

    def load_result(self, job_id: str) -> dict[str, Any] | None:
        """The wire-encoded metrics of a DONE job, or None.

        Sniffs the spool file's first bytes: :data:`SPOOL_DEFLATE_MAGIC`
        means a deflated payload, anything else is plain JSON text — so
        spools written before compression existed still decode.
        """
        record = self.get(job_id)
        if record.state is not JobState.DONE:
            return None
        path = self.spool_dir / "results" / f"{job_id}.json"
        try:
            raw = path.read_bytes()
            if raw.startswith(SPOOL_DEFLATE_MAGIC):
                raw = zlib.decompress(raw[len(SPOOL_DEFLATE_MAGIC):])
            return json.loads(raw)
        except (OSError, ValueError, zlib.error):
            return None

    def _store_result(self, job_id: str, payload: dict[str, Any]) -> None:
        path = self.spool_dir / "results" / f"{job_id}.json"
        encoded = json.dumps(payload).encode()
        if len(encoded) >= SPOOL_COMPRESS_THRESHOLD:
            encoded = SPOOL_DEFLATE_MAGIC + zlib.compress(encoded)
        faults.maybe_fail("spool.result", str(path))
        atomic_write(path, encoded)

    def store_program(self, job_id: str, record: bytes) -> None:
        """Persist the v3 binary columnar program of a ``keep_program``
        job (``programs/<id>.bin``)."""
        programs = self.spool_dir / "programs"
        programs.mkdir(parents=True, exist_ok=True)
        path = programs / f"{job_id}.bin"
        faults.maybe_fail("spool.result", str(path))
        atomic_write(path, record)

    def load_program_bytes(self, job_id: str) -> bytes | None:
        """The v3 binary record of a DONE ``keep_program`` job, or None."""
        record = self.get(job_id)
        if record.state is not JobState.DONE:
            return None
        path = self.spool_dir / "programs" / f"{job_id}.bin"
        try:
            return path.read_bytes()
        except OSError:
            return None

    # -- per-pass progress ----------------------------------------------------

    def progress_path(self, job_id: str) -> Path:
        """Where a worker appends per-pass progress events (JSONL)."""
        progress = self.spool_dir / "progress"
        progress.mkdir(parents=True, exist_ok=True)
        return progress / f"{job_id}.jsonl"

    def load_progress(self, job_id: str) -> list[dict[str, Any]]:
        """All per-pass progress events recorded for *job_id*, in order.

        Reads the spooled JSONL file (so farm peers see each other's
        progress), skipping torn trailing lines; events carry the attempt
        number, so retries append rather than reset.
        """
        path = self.spool_dir / "progress" / f"{job_id}.jsonl"
        events: list[dict[str, Any]] = []
        try:
            text = path.read_text()
        except OSError:
            return events
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(event, dict):
                events.append(event)
        return events

    # -- persistence ---------------------------------------------------------

    def _persist(self, record: JobRecord) -> None:
        path = self.spool_dir / "jobs" / f"{record.job_id}.json"
        faults.maybe_fail("spool.write", str(path))
        atomic_write(
            path,
            json.dumps(
                {
                    "job_id": record.job_id,
                    "seq": record.seq,
                    "shard": record.shard,
                    "state": record.state.value,
                    "error": record.error,
                    "attempts": record.attempts,
                    "max_retries": record.max_retries,
                    "timeout": record.timeout,
                    "job_key": record.job_key,
                    "owner": record.owner,
                    "lease_deadline": record.lease_deadline,
                    "priority": record.priority,
                    "deadline": record.deadline,
                    "keep_program": record.keep_program,
                    "payload": record.payload,
                }
            ).encode(),
        )
        self._fingerprint(path)

    def _fingerprint(self, path: Path) -> None:
        """Remember a job file's (mtime_ns, size) so sync() skips it."""
        try:
            stat = path.stat()
        except OSError:
            self._file_state.pop(path.name, None)
            return
        self._file_state[path.name] = (stat.st_mtime_ns, stat.st_size)

    def _adopt(self, record: JobRecord) -> None:
        """Install a record read from disk, disk being authoritative."""
        self._records[record.job_id] = record
        if record.job_key is not None:
            self._by_key[record.job_key] = record.job_id
        self._seq = max(self._seq, record.seq)

    def refresh_from_disk(self, job_id: str) -> JobRecord | None:
        """Re-read one record from the spool, replacing the in-memory copy.

        Returns the fresh record, the unchanged in-memory one when the
        spool file is unreadable mid-rewrite, or None for a job this
        spool has never seen."""
        path = self.spool_dir / "jobs" / f"{job_id}.json"
        record = self._decode_record_file(path)
        if record is None:
            return self._records.get(job_id)
        self._adopt(record)
        self._fingerprint(path)
        return record

    def sync(self) -> list[JobRecord]:
        """Ingest records (re)written by peer daemons on a shared spool.

        Scans ``jobs/`` and re-reads every file whose fingerprint moved
        since we last read or wrote it — our own atomic writes update the
        fingerprint at persist time, so only *foreign* changes surface.
        Returns the changed records."""
        changed: list[JobRecord] = []
        for path in (self.spool_dir / "jobs").glob("*.json"):
            try:
                stat = path.stat()
            except OSError:
                continue  # vanished between glob and stat
            mark = (stat.st_mtime_ns, stat.st_size)
            if self._file_state.get(path.name) == mark:
                continue
            record = self._decode_record_file(path)
            if record is None:
                continue  # mid-rewrite or corrupt: next sync retries
            self._file_state[path.name] = mark
            self._adopt(record)
            changed.append(record)
        return changed

    def _decode_record_file(self, path: Path) -> JobRecord | None:
        try:
            data = json.loads(path.read_text())
            return JobRecord(
                job_id=data["job_id"],
                seq=int(data["seq"]),
                shard=int(data["shard"]),
                payload=data["payload"],
                state=JobState(data["state"]),
                error=data.get("error"),
                attempts=int(data.get("attempts", 0)),
                max_retries=int(data.get("max_retries", DEFAULT_MAX_RETRIES)),
                timeout=data.get("timeout"),
                job_key=data.get("job_key"),
                owner=data.get("owner"),
                lease_deadline=data.get("lease_deadline"),
                priority=int(data.get("priority", 0)),
                deadline=data.get("deadline"),
                keep_program=bool(data.get("keep_program", False)),
            )
        except (OSError, KeyError, TypeError, ValueError, json.JSONDecodeError):
            return None

    def _quarantine(self, path: Path) -> None:
        """Move an undecodable spool file aside instead of refusing to boot."""
        pen = self.spool_dir / "quarantine"
        try:
            pen.mkdir(parents=True, exist_ok=True)
            os.replace(path, pen / path.name)
        except OSError:
            return  # cannot move it either: leave it in place, still boot
        self.quarantined.append(path.name)
        log.warning("quarantined undecodable spool file %s", path.name)

    def _load(self) -> None:
        for path in sorted((self.spool_dir / "jobs").glob("*.json")):
            record = self._decode_record_file(path)
            if record is None:
                self._quarantine(path)
                continue
            # A job RUNNING at crash time lost its worker: requeue it,
            # keeping the attempt charge — unless its attempts are already
            # exhausted, in which case it dead-letters (a poison job that
            # takes the whole daemon down must not crash-loop forever).
            # On a *shared* spool the RUNNING job may belong to a live
            # peer, so boot must leave it alone — lease expiry, observed
            # by whichever daemon owns the shard, decides it is orphaned.
            if record.state is JobState.RUNNING and not self.shared:
                record.owner = None
                record.lease_deadline = None
                if record.attempts >= record.max_retries:
                    record.state = JobState.FAILED
                    record.error = (
                        record.error
                        or "daemon died while the job was running"
                    ) + f" (attempts exhausted: {record.attempts})"
                else:
                    record.state = JobState.PENDING
                self._persist(record)
            else:
                self._fingerprint(path)
            self._adopt(record)
