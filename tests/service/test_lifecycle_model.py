"""Model-based check of the lifecycle core (:mod:`repro.service.lifecycle`).

Three :class:`FarmNode`s share one temporary spool and one fake clock.
Hypothesis drives them through submits, dispatches, completions,
failures, hand-backs, heartbeats, reaps, farm ticks (which renew, claim
and steal), clock advances, freezes, kills, graceful exits and cancels
from any node.  After every step a reference model checks:

- no job holds two unexpired attempts at once;
- no two live owners hold one shard, each (shard, epoch) has one owner,
  and a shard's epoch only increases;
- a job's terminal state, once written, never changes, and a result
  counts once;
- claims are released: a node with no attempt outstanding on a job it
  knows is terminal holds no claim, steal or skip entry for it.

At the end the surviving nodes drive the spool to quiescence: every
acknowledged job must then be terminal, and every claim file left must
belong to a node that died.
"""

import json
import logging
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.service.lifecycle import FarmNode
from repro.service.queue import JobQueue, JobState, QueueError
from repro.service.shards import JobClaims, ShardBoard

NODES = ("a", "b", "c")
SHARDS = 2
LEASE = 6.0
SHARD_LEASE = 4.0
PAYLOAD = {"backend": "Superconducting", "circuit": {"name": "model"}}

names = st.sampled_from(NODES)
picks = st.integers(0, 31)


class Reference:
    """What the farm may do, kept apart from how the nodes do it."""

    def __init__(self):
        self.acked = []  # job ids, in submission order
        self.attempts = {}  # (node, job, attempt) -> lease deadline
        self.leases = {}  # (node, shard) -> deadline of the node's lease
        self.epochs = {}  # shard -> highest epoch seen on the board
        self.epoch_owner = {}  # (shard, epoch) -> the one owner it had
        self.terminal = {}  # job -> the terminal state first seen
        self.done = set()  # jobs whose result was recorded

    def started(self, node, job, attempt, now):
        for (other, held, _), deadline in self.attempts.items():
            assert not (held == job and deadline >= now), (
                f"{job} started on {node} while {other}'s attempt is live"
            )
        self.attempts[(node, job, attempt)] = now + LEASE

    def completed(self, job):
        assert job not in self.done, f"{job} completed twice"
        self.done.add(job)

    def ticked(self, node, owned, now):
        for shard in range(SHARDS):
            if shard in owned:
                self.leases[(node, shard)] = now + SHARD_LEASE
            else:
                self.leases.pop((node, shard), None)

    def check_attempts(self, now):
        live = {}
        for (node, job, _), deadline in sorted(self.attempts.items()):
            if deadline >= now:
                assert job not in live, f"{job} live on {live[job]} and {node}"
                live[job] = node

    def check_leases(self, now):
        for shard in range(SHARDS):
            holders = [
                node
                for node in NODES
                if self.leases.get((node, shard), now) > now
            ]
            assert len(holders) <= 1, f"shard {shard} held by {holders}"

    def check_board(self, board):
        for shard in range(SHARDS):
            lease = board.read(shard)
            if lease is None:
                continue
            assert lease.epoch >= self.epochs.get(shard, 0), (
                f"shard {shard} epoch went back to {lease.epoch}"
            )
            self.epochs[shard] = lease.epoch
            owner = self.epoch_owner.setdefault(
                (shard, lease.epoch), lease.owner
            )
            assert owner == lease.owner, (
                f"shard {shard} epoch {lease.epoch} held by {owner} "
                f"and {lease.owner}"
            )

    def check_terminal(self, states):
        for job, state in states.items():
            first = self.terminal.get(job)
            if first is not None:
                assert state == first, f"{job} went {first} -> {state}"
            elif state.terminal:
                self.terminal[job] = state
            if job in self.done:
                assert state is JobState.DONE, f"{job} done, then {state}"

    def check_released(self, node, name):
        outstanding = {job for (n, job, _) in self.attempts if n == name}
        for job in self.acked:
            try:
                record = node.queue.get(job)
            except Exception:
                continue
            if record.state.terminal and job not in outstanding:
                assert not node.claims.holds(job), f"{name} holds {job}"
                assert job not in node.stolen, f"{name} still stole {job}"
                assert job not in node.claim_skip, f"{name} skips {job}"


class FarmModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self._tmp = tempfile.TemporaryDirectory(prefix="lifecycle-model-")
        self.spool = Path(self._tmp.name)
        self.now = [1000.0]
        self.ref = Reference()
        self.dead = set()
        self.frozen = set()
        self.nodes = {name: self._node(name) for name in NODES}
        self.board = self.nodes["a"].board
        # The nodes log every lost lease and reaped attempt; kept, those
        # records pile up over a failing run's shrinking.
        self._log = logging.getLogger("repro.service")
        self._log.disabled = True

    def _node(self, name):
        def clock():
            return self.now[0]

        def finished(job_id):
            assert self.nodes[name].queue.get(job_id).state.terminal

        return FarmNode(
            JobQueue(self.spool, clock=clock, node_id=name, shared=True),
            SHARDS,
            name,
            LEASE,
            ShardBoard(
                self.spool / "shards",
                owner=name,
                shards=SHARDS,
                lease_seconds=SHARD_LEASE,
                clock=clock,
            ),
            JobClaims(
                self.spool / "claims", owner=name, lease_seconds=LEASE, clock=clock
            ),
            wake=lambda shard: None,
            finished=finished,
        )

    def _active(self, name, able=lambda name: True):
        """*name* if it can act (and is *able*), else the first node that
        can: rules rarely go to waste on a frozen, dead or idle node."""
        for candidate in (name, *NODES):
            if candidate not in self.dead and candidate not in self.frozen:
                if able(candidate):
                    return candidate
        return None

    def _attempts(self, name):
        return sorted(a for a in self.ref.attempts if a[0] == name)

    def _next(self, name):
        node = self.nodes[name]
        for shard in range(SHARDS):
            job = node.next_dispatchable(shard)
            if job is not None:
                return job
        return None

    def _dispatch(self, name):
        job = self._next(name)
        if job is None:
            return None
        record = self.nodes[name].begin(job)
        if record is None:
            return None
        self.ref.started(name, job, record.attempts, self.now[0])
        return job, record.attempts

    def _complete(self, name, job, attempt):
        del self.ref.attempts[(name, job, attempt)]
        if self.nodes[name].complete(job, attempt, {"job": job}):
            self.ref.completed(job)

    def _tick(self, name):
        node = self.nodes[name]
        node.tick()
        self.ref.ticked(name, node.owned, self.now[0])

    # -- rules -----------------------------------------------------------------

    @initialize()
    def boot(self):
        for name in NODES:
            self._tick(name)

    @rule(
        name=names,
        shard=st.integers(0, SHARDS - 1),
        deadline=st.sampled_from([None, None, None, 3.0]),
    )
    def submit(self, name, shard, deadline):
        name = self._active(name)
        if name is None:
            return
        record = self.nodes[name].queue.submit(
            dict(PAYLOAD),
            shard=shard,
            max_retries=2,
            deadline=None if deadline is None else self.now[0] + deadline,
        )
        self.ref.acked.append(record.job_id)

    @rule(name=names)
    def dispatch(self, name):
        name = self._active(name, self._next)
        if name is not None:
            self._dispatch(name)

    @rule(first=names, second=names)
    def dispatch_race(self, first, second):
        """Two nodes dispatch one job at once: the second node's whole
        dispatch runs inside the first's window between its last spool
        read and its acquire (a takeover or steal handoff race)."""
        first = self._active(first, self._next)
        second = self._active(second, lambda name: name != first)
        if first is None or second is None:
            return
        job = self._next(first)
        a, b = self.nodes[first], self.nodes[second]
        acquire = a.queue.acquire

        def racing_acquire(job_id, **lease):
            del a.queue.acquire  # race once
            b.queue.refresh_from_disk(job_id)
            raced = b.begin(job_id)
            if raced is not None:
                self.ref.started(second, job_id, raced.attempts, self.now[0])
            return acquire(job_id, **lease)

        a.queue.acquire = racing_acquire
        try:
            record = a.begin(job)
        finally:
            a.queue.__dict__.pop("acquire", None)
        if record is not None:
            self.ref.started(first, job, record.attempts, self.now[0])

    @rule(
        name=names,
        pick=picks,
        outcome=st.sampled_from(["done", "done", "retry", "fail", "abandon"]),
    )
    def finish(self, name, pick, outcome):
        name = self._active(name, self._attempts)
        attempts = self._attempts(name)
        if not attempts:
            return
        node = self.nodes[name]
        _, job, attempt = attempts[pick % len(attempts)]
        if outcome == "done":
            self._complete(name, job, attempt)
            return
        del self.ref.attempts[(name, job, attempt)]
        if outcome == "abandon":
            node.abandon(job, attempt)
        else:
            node.fail(job, outcome, attempt, retry=outcome == "retry")

    @rule(name=names)
    def heartbeat(self, name):
        name = self._active(name, self._attempts)
        if name is None:
            return
        node = self.nodes[name]
        for key in self._attempts(name):
            _, job, attempt = key
            if node.heartbeat(job) and node.queue.get(job).attempts == attempt:
                self.ref.attempts[key] = self.now[0] + LEASE

    @rule(name=names)
    def reap(self, name):
        name = self._active(name)
        if name is not None:
            self.nodes[name].reap()

    @rule(name=names)
    def tick(self, name):
        """Sync, cancel markers, renew, claim, and steal."""
        name = self._active(name)
        if name is not None:
            self._tick(name)

    @rule(name=names, pick=picks)
    def cancel(self, name, pick):
        name = self._active(name)
        if name is None or not self.ref.acked:
            return
        job = self.ref.acked[pick % len(self.ref.acked)]
        node = self.nodes[name]
        try:
            node.queue.get(job)
        except QueueError:
            # submitted through a peer: the service looks it up on the spool
            node.queue.refresh_from_disk(job)
        node.cancel(job)

    @rule(dt=st.sampled_from([0.5, 1.0, 2.5, 4.5, 7.0]))
    def advance(self, dt):
        self.now[0] += dt

    @rule(
        name=names,
        fault=st.sampled_from(["freeze", "thaw", "thaw", "kill", "leave"]),
    )
    def upset(self, name, fault):
        """Freeze or thaw a node, kill it (it simply stops), or let it
        leave gracefully; one node always stays up."""
        if fault == "thaw":
            self.frozen.discard(name)
            return
        if name in self.dead or len(self.dead) + 1 == len(NODES):
            return
        if fault == "freeze":
            self.frozen.add(name)
            return
        if fault == "leave":
            node = self.nodes[name]
            node.accepting = False
            node.release_shards()
            self.ref.ticked(name, node.owned, self.now[0])
        self.dead.add(name)
        self.frozen.discard(name)

    # -- invariants --------------------------------------------------------------

    def _disk_states(self):
        states = {}
        for job in self.ref.acked:
            data = json.loads((self.spool / "jobs" / f"{job}.json").read_text())
            states[job] = JobState(data["state"])
        return states

    @invariant()
    def lifecycle_guarantees(self):
        now = self.now[0]
        self.ref.check_attempts(now)
        self.ref.check_leases(now)
        self.ref.check_board(self.board)
        self.ref.check_terminal(self._disk_states())
        for name in NODES:
            if name not in self.dead:
                self.ref.check_released(self.nodes[name], name)

    def teardown(self):
        try:
            self._quiesce()
        finally:
            self._tmp.cleanup()
            self._log.disabled = False

    def _quiesce(self):
        """Thaw the survivors and let them run the spool dry."""
        self.frozen.clear()
        alive = [name for name in NODES if name not in self.dead]
        for _ in range(60):
            for name in alive:
                for key in self._attempts(name):
                    self._complete(*key)
                self._tick(name)
                self.nodes[name].reap()
                for _ in range(8):
                    started = self._dispatch(name)
                    if started is not None:
                        self._complete(name, *started)
                self.lifecycle_guarantees()
            if all(s.terminal for s in self._disk_states().values()):
                break
            self.now[0] += 1.0
        unfinished = {
            job: state.value
            for job, state in self._disk_states().items()
            if not state.terminal
        }
        assert not unfinished, f"never finished: {unfinished}"
        for path in (self.spool / "claims").glob("*.json"):
            holder = json.loads(path.read_text())["owner"]
            assert holder in self.dead, f"{holder} left the claim {path.name}"
        for name in alive:
            assert not self.nodes[name].stolen


FarmModel.TestCase.settings = settings(
    derandomize=True,
    max_examples=30,
    stateful_step_count=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestFarmModel = FarmModel.TestCase
