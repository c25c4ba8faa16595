"""Shard-ownership leases for the compile farm.

A farm is N ``repro serve`` daemons sharing one spool directory with **no
coordinator**: the spool itself is the coordination medium.  Ownership of
each pipeline-prefix shard is a **lease file** under ``spool/shards/``,
written with the same atomic-rename discipline as every other spool file
and renewed by a heartbeat while the owner is alive.  A daemon that dies
(or is partitioned away from the disk) simply stops renewing; once the
deadline passes, any survivor may take the shard over.  Election is
therefore leaderless and first-come: the atomic filesystem operations are
the ballot box.

Two primitives live here:

:class:`ShardBoard`
    One lease file per shard (``shard-0007.json``), holding the owner,
    a monotonically increasing ``epoch`` (bumped on every ownership
    change, a graceful release included — a fencing aid for debugging
    split-brain incidents), and the wall-clock deadline.  Claiming a
    **free** shard is an exclusive create (``O_CREAT | O_EXCL`` —
    exactly one winner).  Taking over an
    **expired** lease is a two-step protocol that is also
    single-winner: atomically rename the corpse aside (only one renamer
    can succeed; ``os.replace`` of a missing file raises), then
    exclusively create the fresh lease.  Renewals verify the owner
    before rewriting, so a daemon that lost its shard while frozen
    discovers that at the next heartbeat and demotes itself instead of
    writing over the new owner.

:class:`JobClaims`
    Per-job claim files (``spool/claims/<job_id>.json``) — the
    mutual-exclusion token a daemon must hold before leasing a job out
    of the queue.  Shard ownership already partitions dispatch, but the
    takeover window (old owner frozen past its lease, new owner
    adopting) and the work-stealing path both put two daemons in front
    of one PENDING job; the exclusive-create claim guarantees only one
    of them runs it.  Claims carry the holder and a timestamp; a claim
    older than the job-lease duration whose record is still PENDING is
    a crash remnant and may be buried and re-claimed.

Fault sites (see :mod:`repro.service.faults`): every lease/claim write
passes through ``lease.write`` — a firing rule turns the write into an
:class:`~repro.service.faults.InjectedFault` so chaos tests can prove a
disk hiccup costs a claim, never consistency.  ``daemon.partition`` makes
:meth:`ShardBoard.renew` silently *skip* the write while reporting
success: the daemon believes it is renewing, the lease file ages, peers
take the shard over — the deterministic stand-in for a network/disk
partition, and exactly the split-brain scenario the claim files guard.

Clocks are injectable everywhere (``clock=``), mirroring the job-lease
discipline of :class:`~repro.service.queue.JobQueue`, so lease expiry and
takeover races are testable without sleeping.  Leases compare wall-clock
times across processes, so farm hosts sharing a spool must share a clock
(NTP-close is plenty: lease durations are seconds, not milliseconds).
"""

from __future__ import annotations

import json
import logging
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from ..core.blobs import atomic_write
from . import faults

log = logging.getLogger("repro.service")

#: Default shard-lease duration.  Deliberately shorter than the job lease:
#: shard takeover is cheap (re-scan one directory), and the faster a dead
#: daemon's shards are adopted, the less its backlog waits.
DEFAULT_SHARD_LEASE_SECONDS = 10.0


class ShardBoardError(RuntimeError):
    """The shard board is unusable (e.g. shard-count disagreement)."""


@dataclass(frozen=True)
class ShardLease:
    """One decoded lease file."""

    shard: int
    owner: str
    epoch: int
    deadline: float
    claimed_at: float

    def expired(self, now: float) -> bool:
        return self.deadline <= now


def _write_excl(path: Path, text: str) -> None:
    """Exclusive create-and-write: exactly one caller can win the file."""
    fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    try:
        os.write(fd, text.encode())
    finally:
        os.close(fd)


class ShardBoard:
    """Leaderless shard-ownership election over lease files in *directory*.

    The board is mechanism, not policy: it claims, renews, releases, and
    reports.  Which shards to claim (fair-share budgets, backlog ranking,
    steal decisions) is the server's business.
    """

    def __init__(
        self,
        directory: str | Path,
        owner: str,
        shards: int,
        lease_seconds: float = DEFAULT_SHARD_LEASE_SECONDS,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if lease_seconds <= 0:
            raise ValueError(f"lease_seconds must be > 0, got {lease_seconds}")
        self.directory = Path(directory)
        self.owner = owner
        self.shards = shards
        self.lease_seconds = lease_seconds
        self.clock = clock
        self._graves = 0
        self.directory.mkdir(parents=True, exist_ok=True)
        self._check_meta()

    # -- meta: every farm member must agree on the shard count ---------------

    def _check_meta(self) -> None:
        """First daemon writes ``meta.json``; later ones must agree.

        Pipeline-prefix routing is ``hash % shards`` — two daemons with
        different shard counts would route one circuit to two different
        shards, splitting its cache affinity and double-dispatching its
        jobs.  Refusing to boot is the only safe answer.
        """
        meta = self.directory / "meta.json"
        try:
            _write_excl(meta, json.dumps({"shards": self.shards}))
            return
        except FileExistsError:
            pass
        try:
            recorded = int(json.loads(meta.read_text())["shards"])
        except (OSError, KeyError, TypeError, ValueError, json.JSONDecodeError):
            return  # corrupt meta: tolerate (the leases themselves agree)
        if recorded != self.shards:
            raise ShardBoardError(
                f"shard-count mismatch: this spool's farm runs "
                f"{recorded} shards, daemon configured for {self.shards}"
            )

    # -- lease files ----------------------------------------------------------

    def _path(self, shard: int) -> Path:
        return self.directory / f"shard-{shard:04d}.json"

    def _payload(
        self, shard: int, epoch: int, now: float, deadline: float | None = None
    ) -> str:
        return json.dumps(
            {
                "shard": shard,
                "owner": self.owner,
                "epoch": epoch,
                "deadline": now + self.lease_seconds if deadline is None else deadline,
                "claimed_at": now,
            }
        )

    def read(self, shard: int) -> ShardLease | None:
        """The current lease of *shard*, or None (free or undecodable)."""
        try:
            data = json.loads(self._path(shard).read_text())
            return ShardLease(
                shard=int(data["shard"]),
                owner=str(data["owner"]),
                epoch=int(data["epoch"]),
                deadline=float(data["deadline"]),
                claimed_at=float(data["claimed_at"]),
            )
        except (OSError, KeyError, TypeError, ValueError, json.JSONDecodeError):
            return None

    def claim(self, shard: int) -> bool:
        """Try to take ownership of *shard*; returns whether we own it now.

        Free shard: exclusive create — exactly one contender wins.
        Expired (or corrupt) lease: bury the corpse with an atomic rename
        (single winner — the loser's rename raises), then exclusively
        create the fresh lease.  A lease held unexpired by a peer is
        never touched.
        """
        path = self._path(shard)
        now = self.clock()
        context = f"{self.owner}:shard-{shard}"
        try:
            faults.maybe_fail("lease.write", context)
            _write_excl(path, self._payload(shard, epoch=1, now=now))
            return True
        except FileExistsError:
            pass
        except OSError:
            return False  # injected or real write failure: no claim
        current = self.read(shard)
        if current is not None and not current.expired(now):
            if current.owner == self.owner:
                return True  # already ours (e.g. re-claim after a restart)
            return False  # a live peer holds it
        # Expired or corrupt: takeover.  The rename is the election.
        self._graves += 1
        grave = self.directory / f"{path.name}.dead.{os.getpid()}.{self._graves}"
        try:
            os.replace(path, grave)
        except FileNotFoundError:
            pass  # another daemon buried it first; race for the create below
        except OSError:
            return False
        else:
            try:
                grave.unlink()
            except OSError:
                pass
        epoch = (current.epoch + 1) if current is not None else 1
        try:
            faults.maybe_fail("lease.write", context)
            _write_excl(path, self._payload(shard, epoch=epoch, now=now))
            return True
        except (FileExistsError, OSError):
            return False  # lost the re-create race (or injected failure)

    def renew(self, shard: int) -> bool:
        """Extend our lease on *shard*; returns whether we still own it.

        ``daemon.partition`` chaos rule: the write is silently skipped
        while success is reported — the daemon *believes* it renewed, the
        file ages, and peers legitimately take the shard over.  The
        partitioned daemon discovers the loss at the first renew after
        the rule stops firing (owner mismatch) and must demote itself.
        """
        context = f"{self.owner}:shard-{shard}"
        if faults.fires("daemon.partition", context) is not None:
            return True
        now = self.clock()
        current = self.read(shard)
        if current is None or current.owner != self.owner:
            return False
        if current.expired(now):
            # Our own lease lapsed (we froze past it): a peer may already
            # have buried it.  Never renew an expired lease — re-claim.
            return self.claim(shard)
        try:
            faults.maybe_fail("lease.write", context)
            atomic_write(
                self._path(shard),
                self._payload(shard, epoch=current.epoch, now=now).encode(),
            )
        except OSError:
            return False  # cannot persist the renewal: treat as lost
        return True

    def release(self, shard: int) -> None:
        """Give *shard* up (graceful shutdown) so peers claim it instantly.

        The lease is expired in place rather than deleted, so the next
        owner takes it over with the epoch bumped: epochs only increase."""
        current = self.read(shard)
        if current is None or current.owner != self.owner:
            return
        now = self.clock()
        try:
            atomic_write(
                self._path(shard),
                self._payload(shard, current.epoch, now, deadline=now).encode(),
            )
        except OSError:
            pass

    # -- farm-wide views ------------------------------------------------------

    def snapshot(self) -> list[dict[str, Any]]:
        """Per-shard ownership view (the ``stats`` op's ``shard_leases``)."""
        now = self.clock()
        rows: list[dict[str, Any]] = []
        for shard in range(self.shards):
            lease = self.read(shard)
            if lease is None:
                rows.append(
                    {"shard": shard, "owner": None, "epoch": 0,
                     "lease_age": None, "expired": True}
                )
            else:
                rows.append(
                    {
                        "shard": shard,
                        "owner": lease.owner,
                        "epoch": lease.epoch,
                        "lease_age": max(0.0, now - lease.claimed_at),
                        "expired": lease.expired(now),
                    }
                )
        return rows

    def live_owners(self) -> set[str]:
        """Owners currently holding at least one unexpired lease."""
        now = self.clock()
        owners: set[str] = set()
        for shard in range(self.shards):
            lease = self.read(shard)
            if lease is not None and not lease.expired(now):
                owners.add(lease.owner)
        return owners


class JobClaims:
    """Exclusive-create per-job claim files: at most one daemon runs a job.

    ``claim`` must succeed before :meth:`~repro.service.queue.JobQueue.acquire`;
    ``release`` (holder only, token-checked) happens whenever the attempt
    leaves RUNNING; ``revoke`` force-buries the claim of an attempt whose
    job lease expired (its holder is dead or frozen — the reaper path).
    """

    def __init__(
        self,
        directory: str | Path,
        owner: str,
        lease_seconds: float,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.directory = Path(directory)
        self.owner = owner
        self.lease_seconds = lease_seconds
        self.clock = clock
        self.directory.mkdir(parents=True, exist_ok=True)
        self._tokens: dict[str, str] = {}
        self._serial = 0
        self._graves = 0

    def _path(self, job_id: str) -> Path:
        return self.directory / f"{job_id}.json"

    def holds(self, job_id: str) -> bool:
        """Whether this daemon holds an unreleased claim on *job_id*."""
        return job_id in self._tokens

    def holder(self, job_id: str) -> str | None:
        owner = (self._read(job_id) or {}).get("owner")
        return None if owner is None else str(owner)

    def claim(self, job_id: str) -> bool:
        """Take the run-this-job token; returns whether we hold it.

        An existing claim blocks us — unless it is **stale**: older than
        the job-lease duration while its job never left PENDING, i.e. the
        claimant died between claiming and acquiring.  Stale claims are
        buried with the same single-winner rename as shard takeover.
        (Claims of RUNNING jobs are cleared by the lease reaper through
        :meth:`revoke`, never guessed at here.)  Our own claim, held past
        the lease, must win the election again: a peer may bury it.
        """
        held = self._tokens.pop(job_id, None)
        if held is not None:
            data = self._read(job_id)
            if data is not None and data.get("token") == held and (
                self._age(data) <= self.lease_seconds
            ):
                self._tokens[job_id] = held
                return True
        path = self._path(job_id)
        self._serial += 1
        token = f"{self.owner}/{os.getpid()}/{self._serial}"
        payload = json.dumps(
            {"owner": self.owner, "token": token, "time": self.clock()}
        )
        context = f"{self.owner}:claim:{job_id}"
        try:
            faults.maybe_fail("lease.write", context)
            _write_excl(path, payload)
        except FileExistsError:
            if self._age(self._read(job_id)) <= self.lease_seconds:
                return False
            if not self._bury(path):
                return False
            try:
                faults.maybe_fail("lease.write", context)
                _write_excl(path, payload)
            except (FileExistsError, OSError):
                return False
        except OSError:
            return False
        self._tokens[job_id] = token
        return True

    def release(self, job_id: str) -> None:
        """Drop our claim (no-op unless the file still carries our token)."""
        token = self._tokens.pop(job_id, None)
        if token is None or (self._read(job_id) or {}).get("token") != token:
            return  # superseded (revoked and re-claimed): not ours
        try:
            self._path(job_id).unlink()
        except OSError:
            pass

    def _read(self, job_id: str) -> dict[str, Any] | None:
        """The decoded claim file of *job_id*, or None."""
        try:
            data = json.loads(self._path(job_id).read_text())
        except (OSError, ValueError):
            return None
        return data if isinstance(data, dict) else None

    def _age(self, data: dict[str, Any] | None) -> float:
        """How long ago a claim was taken (a corrupt one counts as stale)."""
        try:
            return self.clock() - float(data["time"])  # type: ignore[index]
        except (KeyError, TypeError, ValueError):
            return float("inf")

    def revoke(self, job_id: str) -> None:
        """Force-clear the claim of a dead/frozen holder (reaper path)."""
        self._tokens.pop(job_id, None)
        self._bury(self._path(job_id))

    def _bury(self, path: Path) -> bool:
        """Atomically rename a claim corpse aside; True if we did the rename."""
        self._graves += 1
        grave = path.with_suffix(f".dead.{os.getpid()}.{self._graves}")
        try:
            os.replace(path, grave)
        except FileNotFoundError:
            return True  # already gone — same outcome
        except OSError:
            return False
        try:
            grave.unlink()
        except OSError:
            pass
        return True
