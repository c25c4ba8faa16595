"""The compile service's lifecycle core: every dispatch, reap, cancel
and terminal decision, with no asyncio and no worker pools.

:class:`FarmNode` works over a :class:`~repro.service.queue.JobQueue` and,
on a farm, a :class:`~repro.service.shards.ShardBoard` (shard leases) and
:class:`~repro.service.shards.JobClaims` (per-job claim files), all on one
injectable clock.  It reports through two callbacks: ``wake(shard)`` when
a shard has dispatchable work and ``finished(job_id)`` when a job is
terminal (either may repeat).  A **solo** daemon is a node with no board
and no claims that owns every shard: the same methods decide for it, and
it does no farm I/O.  Every attempt ends, and every terminal transition
happens, through one method, :meth:`FarmNode.settle`.  The asyncio driver
is :class:`~repro.service.server.CompileService`.

``tests/service/test_lifecycle_model.py`` checks the node against a
reference model: every acknowledged job reaches exactly one terminal
state, no job holds two unexpired attempts, no two live owners hold one
shard epoch, epochs only increase, and claims are released.
"""

from __future__ import annotations

import json
import logging
import math
from typing import Any, Callable

from ..core.blobs import atomic_write
from . import faults
from .queue import JobQueue, JobRecord, JobState, QueueError
from .shards import JobClaims, ShardBoard

log = logging.getLogger("repro.service")


class FarmNode:
    """One daemon's lifecycle decisions over a (possibly shared) spool."""

    def __init__(
        self,
        queue: JobQueue,
        shards: int,
        name: str,
        lease_seconds: float,
        board: ShardBoard | None,
        claims: JobClaims | None,
        wake: Callable[[int], None],
        finished: Callable[[str], None],
    ) -> None:
        self.queue = queue
        self.shards = shards
        self.name = name
        self.lease_seconds = lease_seconds
        self.board = board
        self.claims = claims
        self.wake = wake
        self.finished = finished
        #: shards this node dispatches from (every shard without a board)
        self.owned: set[int] = set(range(shards)) if board is None else set()
        #: unowned-shard jobs this node claimed through work-stealing
        self.stolen: set[str] = set()
        #: job_id -> retry-not-before time after a lost claim race
        self.claim_skip: dict[str, float] = {}
        #: cleared by drain/close: no new shards are claimed or jobs stolen
        self.accepting = True
        self.steals = 0
        self.shards_claimed = 0
        self.shards_lost = 0

    # -- responsibility ------------------------------------------------------

    def responsible(self, record: JobRecord) -> bool:
        """Whether this node may rewrite *record*: its shard is ours, the
        job was stolen by us, or the running attempt is ours."""
        return (
            record.shard % self.shards in self.owned
            or record.job_id in self.stolen
            or record.owner == self.name
        )

    def backlog(self) -> list[JobRecord]:
        """Non-terminal records this node is responsible for finishing."""
        return [
            r
            for r in self.queue.jobs()
            if not r.state.terminal and self.responsible(r)
        ]

    # -- the one terminal hook -------------------------------------------------

    def settle(
        self, job_id: str, transition: Callable[[], Any] | None = None
    ) -> Any:
        """Drop the job's claim, steal and skip entries, apply
        *transition* (a queue write), and report the outcome.

        Every attempt's end and every terminal transition (done, failed,
        dead-lettered, deadline-expired, cancelled, a bookkeeping failure,
        a peer's write seen by ``sync``) comes through here.  The claim
        goes first: the RUNNING record, not the claim, fences a running
        attempt, so a node killed mid-write leaves no claim behind.  Even
        if the transition raises, a terminal job is then reported through
        ``finished`` and a PENDING one wakes its shard.  Returns the
        transition's value."""
        if self.claims is not None:
            self.claims.release(job_id)
        self.stolen.discard(job_id)
        self.claim_skip.pop(job_id, None)
        try:
            return transition() if transition is not None else None
        finally:
            record = self.queue.get(job_id)
            if record.state.terminal:
                self.finished(job_id)
            elif record.state is JobState.PENDING:
                self.wake(record.shard % self.shards)

    # -- dispatch --------------------------------------------------------------

    def next_dispatchable(self, shard: int) -> str | None:
        """The highest-ranked runnable job of *shard*, or None.

        Scans the shard backlog in dispatch order (priority desc, EDF,
        FIFO).  Jobs of an unowned shard are runnable only if this node
        stole them, and a job whose claim was just lost to a peer sits out
        a short backoff."""
        owned = shard in self.owned
        now = self.queue.clock()
        for record in self.queue.pending_for(shard, self.shards):
            if not owned and record.job_id not in self.stolen:
                continue
            if now < self.claim_skip.get(record.job_id, now):
                continue
            return record.job_id
        return None

    def begin(self, job_id: str) -> JobRecord | None:
        """Start an attempt: claim, refresh, acquire.  Returns the leased
        record, or None when the job is not ours to run now.

        On a farm the exclusive claim file is what makes the shard
        takeover window and the steal handoff single-winner; once it is
        held, the spool (not this node's possibly stale view) decides
        whether the job is still PENDING.  A job whose dispatch deadline
        already passed fails here instead of running late."""
        record = self.queue.get(job_id)
        if record.state is not JobState.PENDING:
            return None  # cancelled while queued, or a duplicate wake
        if self.claims is not None:
            if not self.claims.claim(job_id):
                # A peer holds the claim (it is dispatching the job, or
                # died a moment ago): back off briefly and let the spool
                # sync surface the outcome.
                self.claim_skip[job_id] = self.queue.clock() + min(
                    self.lease_seconds / 4.0, 0.5
                )
                refreshed = self.queue.refresh_from_disk(job_id)
                if refreshed is not None and refreshed.state.terminal:
                    self.settle(job_id)
                return None
            record = self.queue.refresh_from_disk(job_id)
            if record is None or record.state is not JobState.PENDING:
                self.settle(job_id)
                return None
        now = self.queue.clock()
        if record.deadline is not None and record.deadline < now:
            error = f"deadline expired {now - record.deadline:.3f}s before dispatch"
            self.settle(job_id, lambda: self.queue.mark_failed(job_id, error))
            return None
        return self.queue.acquire(
            job_id, owner=self.name, lease_seconds=self.lease_seconds
        )

    def _fresh(self, job_id: str) -> JobRecord:
        """The job's record, re-read first on a shared spool: a peer may
        have written it since our last sync."""
        if self.queue.shared:
            self.queue.refresh_from_disk(job_id)
        return self.queue.get(job_id)

    def heartbeat(self, job_id: str) -> bool:
        """Extend our attempt's lease; False once it is no longer ours."""
        self._fresh(job_id)
        return self.queue.heartbeat(job_id, self.lease_seconds, owner=self.name)

    def _superseded(self, job_id: str, attempt: int | None) -> bool:
        """Settle and report an attempt that is no longer the job's live
        attempt of ours (cancelled, or reaped and maybe re-run elsewhere):
        its outcome is discarded.  ``attempt=None`` is never superseded."""
        if attempt is None:
            return False
        record = self._fresh(job_id)
        if (record.state, record.attempts, record.owner) == (
            JobState.RUNNING, attempt, self.name
        ):
            return False
        log.warning(
            "job %s: discarding the outcome of superseded attempt %d "
            "(state=%s, attempts=%d, owner=%s)",
            job_id, attempt, record.state.value, record.attempts, record.owner,
        )
        self.settle(job_id)
        return True

    def complete(
        self,
        job_id: str,
        attempt: int,
        metrics: dict[str, Any],
        program: bytes | None = None,
    ) -> bool:
        """Record a finished attempt's result; False if it was superseded."""
        if self._superseded(job_id, attempt):
            return False
        if program is not None:
            try:
                self.queue.store_program(job_id, program)
            except OSError:
                # The metrics are the contract; a lost program capture
                # degrades the `program` op, not the job.
                log.warning(
                    "job %s: program capture lost to a spool write failure",
                    job_id,
                )
        return self.settle(job_id, lambda: self.queue.mark_done(job_id, metrics))

    def fail(
        self,
        job_id: str,
        error: str,
        attempt: int | None = None,
        retry: bool = False,
    ) -> None:
        """Fail an attempt: requeue it (``retry``, within the job's
        budget) or fail the job outright.  *attempt* None is the
        dispatcher's catch-all for a bookkeeping failure: the job fails
        whatever attempt it is on."""
        if self._superseded(job_id, attempt):
            return
        write = self.queue.retry_or_fail if retry else self.queue.mark_failed
        self.settle(job_id, lambda: write(job_id, error))
        record = self.queue.get(job_id)
        if retry and record.state is JobState.FAILED:
            log.error(
                "job %s dead-lettered after %d attempt(s): %s",
                job_id, record.attempts, error,
            )

    def abandon(self, job_id: str, attempt: int) -> None:
        """Hand an interrupted attempt back uncharged (shutdown took the
        worker, or its future was cancelled): the next dispatch, here or
        on the next daemon, re-runs it."""
        if not self._superseded(job_id, attempt):
            self.settle(
                job_id, lambda: self.queue.requeue(job_id, refund_attempt=True)
            )

    # -- reaping ---------------------------------------------------------------

    def reap(self) -> None:
        """Requeue (or dead-letter) expired-lease jobs we are responsible
        for.  On a farm, reaping a live peer's territory would race that
        peer's own reaper, so only owned shards, stolen jobs and our own
        strays are reaped."""
        for record in self.queue.expired_leases():
            if self.responsible(record):
                self._reap(record.job_id)

    def _reap(self, job_id: str) -> None:
        # Our view may predate the holder's last heartbeat (or its
        # result): only the spool's record decides the lease expired.
        record = self._fresh(job_id)
        if record.state.terminal:
            self.settle(job_id)
        deadline = record.lease_deadline
        if record.state is not JobState.RUNNING or not (
            deadline is not None and deadline < self.queue.clock()
        ):
            return
        log.warning(
            "lease expired for %s (owner %s, attempt %d/%d)",
            job_id, record.owner, record.attempts, record.max_retries,
        )
        if self.claims is not None:
            # The dead holder's claim file must go, or nobody can
            # re-dispatch the job we are about to requeue.
            self.claims.revoke(job_id)
        error = f"lease expired after {self.lease_seconds}s (owner {record.owner})"
        self.settle(job_id, lambda: self.queue.retry_or_fail(job_id, error))

    # -- cancellation ------------------------------------------------------------

    def cancel(self, job_id: str) -> bool:
        """Cancel a PENDING or RUNNING job; returns whether it took effect.

        A node that is not responsible for the job must not write its
        record (a half-applied cancel races the owner's heartbeat): it
        drops a ``spool/control/cancel-<id>.json`` marker that the
        responsible node applies on its next tick."""
        record = self._fresh(job_id)
        if not record.state.terminal and not self.responsible(record):
            control = self.queue.spool_dir / "control"
            control.mkdir(parents=True, exist_ok=True)
            atomic_write(
                control / f"cancel-{job_id}.json",
                json.dumps({"job_id": job_id, "by": self.name}).encode(),
            )
            return True
        return self.settle(job_id, lambda: self.queue.cancel(job_id))

    def _apply_cancel_markers(self) -> None:
        control = self.queue.spool_dir / "control"
        if not control.is_dir():
            return
        for path in control.glob("cancel-*.json"):
            job_id = path.name[len("cancel-") : -len(".json")]
            try:
                record = self._fresh(job_id)
            except QueueError:
                continue  # not visible yet; keep the marker
            if record.state.terminal:
                # Already finished (possibly cancelled by its owner): the
                # marker is spent either way.
                path.unlink(missing_ok=True)
            elif self.responsible(record):
                self.cancel(job_id)
                path.unlink(missing_ok=True)

    # -- the farm tick -------------------------------------------------------------

    def sync(self) -> None:
        """Ingest peers' spool writes: a job a peer finished is settled
        here, one a peer requeued wakes its shard (a solo node has no
        peers)."""
        if not self.queue.shared:
            return
        for record in self.queue.sync():
            if record.state.terminal:
                self.settle(record.job_id)
            elif record.state is JobState.PENDING:
                self.wake(record.shard % self.shards)

    def tick(self) -> None:
        """One round of farm housekeeping (nothing to do without a board).

        Order matters: sync first (decisions below see the freshest
        records), then apply cancel markers, renew before claiming (a
        renewal failure lowers our owned count, freeing budget), and steal
        only after whole-shard claims came up empty — whole shards keep
        prefix-cache affinity, single stolen jobs do not."""
        if self.board is None:
            return
        self.sync()
        self._apply_cancel_markers()
        for shard in sorted(self.owned):
            if not self.board.renew(shard):
                self.owned.discard(shard)
                self.shards_lost += 1
                log.warning("%s: lost the lease on shard %d", self.name, shard)
        if self.accepting:
            self._claim_shards()
        busy = [s for s in self.owned if self.queue.pending_for(s, self.shards)]
        if self.accepting and not busy:
            self._steal()
        # Re-wake owned shards with work: a job skipped on a lost claim
        # race would otherwise wait for an unrelated wake.
        for shard in busy:
            self.wake(shard)

    def _claim_shards(self) -> None:
        """Claim expired shards, hottest backlog first, up to a fair share
        ``ceil(shards / live owners)``: when a peer dies its leases
        expire, the divisor shrinks, and the survivors' budgets grow to
        cover its territory."""
        assert self.board is not None
        live = self.board.live_owners() | {self.name}
        budget = math.ceil(self.shards / len(live))
        if len(self.owned) >= budget:
            return
        candidates = sorted(
            (-len(self.queue.pending_for(row["shard"], self.shards)), row["shard"])
            for row in self.board.snapshot()
            if row["expired"] and row["shard"] not in self.owned
        )
        for _neg_backlog, shard in candidates:
            if len(self.owned) >= budget:
                break
            if self.board.claim(shard):
                self._adopt_shard(shard)

    def _adopt_shard(self, shard: int) -> None:
        """Take over a shard we just claimed: reap its orphans, wake it."""
        self.owned.add(shard)
        self.shards_claimed += 1
        log.info("%s: claimed shard %d", self.name, shard)
        self.reap()
        self.wake(shard)

    def _steal(self) -> None:
        """Steal one PENDING job from the most backlogged unowned shard.

        The claim file is the handoff guard; ``steal.race`` chaos rules
        widen the window between choosing a victim and claiming it."""
        assert self.claims is not None
        backlog, shard = max(
            (
                (len(self.queue.pending_for(shard, self.shards)), shard)
                for shard in range(self.shards)
                if shard not in self.owned
            ),
            key=lambda pair: pair[0],  # the first, lowest, shard on ties
            default=(0, 0),
        )
        if not backlog:
            return
        for record in self.queue.pending_for(shard, self.shards):
            if record.job_id in self.stolen:
                continue
            faults.maybe_sleep("steal.race", f"{self.name}:{record.job_id}")
            if not self.claims.claim(record.job_id):
                continue
            fresh = self.queue.refresh_from_disk(record.job_id)
            if fresh is None or fresh.state is not JobState.PENDING:
                self.settle(record.job_id)
                continue
            self.stolen.add(record.job_id)
            self.steals += 1
            log.info(
                "%s: stole %s from shard %d (backlog %d)",
                self.name, record.job_id, shard, backlog,
            )
            self.wake(shard)
            return

    def release_shards(self) -> None:
        """Graceful exit: hand our shards back so peers claim them at once
        instead of waiting out the lease (a solo node has none to hand)."""
        if self.board is None:
            return
        for shard in sorted(self.owned):
            self.board.release(shard)
        self.owned.clear()
