"""Compile-farm behavior, in-process and deterministic (tier 1).

Multiple inline :class:`CompileService` instances share one spool
directory and one injectable clock, so shard election, dead-daemon
takeover, and work-stealing run without subprocesses or sleeps on the
lease paths.  The subprocess SIGKILL acceptance lives in
``test_farm_chaos.py`` (the ``farm`` marker).
"""

import asyncio
from dataclasses import asdict

import pytest

from repro.baselines.registry import CompileOptions, atomique_result
from repro.core import binformat
from repro.core.serialize import program_to_dict
from repro.experiments import compile_many, raa_for
from repro.experiments.batch import CompileJob
from repro.generators import qaoa_regular, qsim_random
from repro.service import CompileService, JobQueue, ServiceError
from repro.service.queue import JobState
from repro.service.wire import decode_metrics, encode_job


def stable(m):
    """Every deterministic field of a metrics record (drop wall-clock)."""
    return (
        m.benchmark,
        m.architecture,
        m.num_qubits,
        m.num_2q_gates,
        m.num_1q_gates,
        m.depth,
        asdict(m.fidelity),
        m.additional_cnots,
        m.execution_seconds,
        {
            k: v
            for k, v in m.extras.items()
            if not k.startswith("pass_seconds.")
        },
    )


def farm_jobs(n=6):
    """A small mixed workload: cheap backends, two circuit families."""
    jobs = []
    for i in range(n):
        circuit = (
            qaoa_regular(6, 3, seed=i) if i % 2 else qsim_random(6, seed=i)
        )
        backend = "Superconducting" if i % 3 else "FAA-Rectangular"
        jobs.append(CompileJob(backend, circuit, CompileOptions()))
    return jobs


def farm_service(spool, node, now, **kw):
    kw.setdefault("shards", 4)
    kw.setdefault("shard_lease_seconds", 5.0)
    kw.setdefault("farm_tick_seconds", 0.02)
    return CompileService(
        spool_dir=spool,
        inline=True,
        farm=True,
        node=node,
        workers=1,
        clock=lambda: now[0],
        **kw,
    )


def freeze(service):
    """Make a service accept submissions without booting its dispatchers.

    ``submit`` lazily starts the service; flagging it as already started
    models a daemon that enqueued work and then froze (or was SIGKILLed)
    before dispatching any of it.
    """
    service._started = True
    return service


def scrub_program(payload):
    """An encoded program minus its wall-clock timing fields."""
    return {
        k: v
        for k, v in payload.items()
        if k not in ("compile_seconds", "emit_seconds")
    }


def spool_results(spool, job_ids, now):
    """Decode results straight off the shared spool (daemon-free)."""
    queue = JobQueue(spool, clock=lambda: now[0], shared=True)
    out = []
    for job_id in job_ids:
        payload = queue.load_result(job_id)
        assert payload is not None, f"{job_id} left no result on the spool"
        out.append(decode_metrics(payload))
    return out


class TestFarmBasics:
    def test_two_daemons_split_shards_and_finish_everything(self, tmp_path):
        """Both daemons claim a fair share; the merged run is bit-identical
        to a serial ``compile_many`` of the same jobs."""
        spool = tmp_path / "spool"
        now = [1000.0]
        jobs = farm_jobs(6)

        async def scenario():
            a = farm_service(spool, "node-a", now)
            await a.start()
            b = farm_service(spool, "node-b", now)
            await b.start()
            # Fair share: a claimed everything first (it was alone), but b
            # must own at least its floor once leases churn; at boot the
            # invariant is weaker — no shard unowned, no shard owned twice.
            owned = sorted(a.lifecycle.owned | b.lifecycle.owned)
            assert owned == [0, 1, 2, 3]
            assert not (a.lifecycle.owned & b.lifecycle.owned)
            ids = [await a.submit(encode_job(j)) for j in jobs[:3]]
            ids += [await b.submit(encode_job(j)) for j in jobs[3:]]
            await asyncio.gather(a.drain(), b.drain())
            return ids

        ids = asyncio.run(scenario())
        farm = spool_results(spool, ids, now)
        serial = compile_many(jobs, workers=1)
        assert [stable(m) for m in farm] == [stable(m) for m in serial]

    def test_dead_daemon_shards_are_taken_over_and_jobs_requeued(
        self, tmp_path
    ):
        """A daemon that stops renewing loses its shards; the survivor
        adopts them, requeues the corpse's RUNNING job, and finishes the
        whole backlog."""
        spool = tmp_path / "spool"
        now = [1000.0]
        jobs = farm_jobs(4)

        async def scenario():
            # Daemon a claims every shard and "freezes" mid-job: its
            # dispatchers never run, it renews nothing — only its leases
            # and one fake RUNNING attempt (claim file + queue lease) are
            # left behind.
            a = freeze(farm_service(spool, "node-a", now, lease_seconds=8.0))
            a.lifecycle.tick()
            assert a.lifecycle.owned == {0, 1, 2, 3}
            ids = [await a.submit(encode_job(j)) for j in jobs]
            a.queue.acquire(ids[0], owner="node-a", lease_seconds=8.0)
            assert a.lifecycle.claims.claim(ids[0])

            # Both the shard leases (5 s) and the job lease (8 s) age out.
            now[0] += 9.0
            b = farm_service(spool, "node-b", now, lease_seconds=8.0)
            await b.start()
            assert b.lifecycle.owned == {0, 1, 2, 3}, "expired shards not adopted"
            assert b.lifecycle.shards_claimed == 4
            record = b.queue.get(ids[0])
            assert record.state is JobState.PENDING, (
                "abandoned RUNNING attempt was not requeued"
            )
            assert "lease expired" in (record.error or "")
            await b.drain()
            return ids

        ids = asyncio.run(scenario())
        farm = spool_results(spool, ids, now)
        serial = compile_many(jobs, workers=1)
        assert [stable(m) for m in farm] == [stable(m) for m in serial]

    def test_idle_daemon_steals_from_a_backlogged_peer(self, tmp_path):
        """A daemon with nothing to do pulls pending jobs from shards it
        does not own, one claim-guarded job at a time."""
        spool = tmp_path / "spool"
        now = [1000.0]
        jobs = farm_jobs(4)

        async def scenario():
            # a owns all shards (live leases, so b cannot claim any) but
            # is frozen: it never dispatches.
            a = freeze(farm_service(spool, "node-a", now))
            a.lifecycle.tick()
            ids = [await a.submit(encode_job(j)) for j in jobs]

            b = farm_service(spool, "node-b", now)
            await b.start()
            assert b.lifecycle.owned == set()
            # Keep a's leases fresh while b works, as a live-but-busy
            # peer would: b must steal, not take over.
            async def keep_renewing():
                while True:
                    for shard in range(4):
                        a.lifecycle.board.renew(shard)
                    await asyncio.sleep(0.01)

            renewer = asyncio.create_task(keep_renewing())
            try:
                loop = asyncio.get_running_loop()
                deadline = loop.time() + 30.0
                while True:
                    done = sum(
                        1
                        for i in ids
                        if (b.queue.refresh_from_disk(i) or b.queue.get(i))
                        .state.terminal
                    )
                    if done == len(ids):
                        break
                    assert loop.time() < deadline
                    await asyncio.sleep(0.02)
            finally:
                renewer.cancel()
            assert b.lifecycle.owned == set(), "b stole shards instead of jobs"
            assert b.lifecycle.steals == len(ids)
            assert b.stats()["steals"] == len(ids)
            await b.aclose()
            return ids

        ids = asyncio.run(scenario())
        farm = spool_results(spool, ids, now)
        serial = compile_many(jobs, workers=1)
        assert [stable(m) for m in farm] == [stable(m) for m in serial]

    def test_cross_daemon_cancel_travels_by_marker(self, tmp_path):
        """Cancelling on a daemon that does not own the job's shard drops
        a control marker the owner applies on its next tick."""
        spool = tmp_path / "spool"
        now = [1000.0]

        async def scenario():
            a = freeze(farm_service(spool, "node-a", now))
            a.lifecycle.tick()  # owns every shard, dispatches nothing
            job = farm_jobs(1)[0]
            job_id = await a.submit(encode_job(job))

            b = farm_service(spool, "node-b", now)
            # b is not responsible for the shard: cancel becomes a marker.
            assert b.cancel(job_id) is True
            markers = list((spool / "control").glob("cancel-*.json"))
            assert len(markers) == 1
            record = b.queue.refresh_from_disk(job_id) or b.queue.get(job_id)
            assert record.state is JobState.PENDING  # not applied yet

            a.lifecycle.tick()  # the owner picks the marker up
            assert a.queue.get(job_id).state is JobState.CANCELLED
            assert not list((spool / "control").glob("cancel-*.json"))

        asyncio.run(scenario())


class TestTerminalBookkeeping:
    """Every terminal transition drops the node's claim, steal and skip
    entries for the job, whichever path it took."""

    def test_stolen_job_cancelled_before_dispatch_releases_its_claim(
        self, tmp_path
    ):
        spool = tmp_path / "spool"
        now = [1000.0]

        async def scenario():
            a = freeze(farm_service(spool, "node-a", now))
            a.lifecycle.tick()  # owns every shard, dispatches nothing
            job_id = await a.submit(encode_job(farm_jobs(1)[0]))
            b = freeze(farm_service(spool, "node-b", now))
            b.lifecycle.tick()  # owns nothing: steals the job
            assert b.lifecycle.stolen == {job_id}
            assert b.lifecycle.claims.holder(job_id) == "node-b"

            assert b.cancel(job_id) is True
            b.lifecycle.tick()
            assert b.queue.get(job_id).state is JobState.CANCELLED
            assert not (spool / "claims" / f"{job_id}.json").exists()
            assert job_id not in b.lifecycle.stolen
            assert not b.lifecycle.claims.holds(job_id)

        asyncio.run(scenario())

    def test_lost_claim_race_forgets_the_job_once_a_peer_finishes_it(
        self, tmp_path
    ):
        spool = tmp_path / "spool"
        now = [1000.0]

        async def scenario():
            a = freeze(farm_service(spool, "node-a", now))
            a.lifecycle.tick()
            job_id = await a.submit(encode_job(farm_jobs(1)[0]))
            b = freeze(farm_service(spool, "node-b", now))
            b.queue.sync()  # b still sees the job PENDING ...
            record = a.lifecycle.begin(job_id)  # ... as a claims and runs it
            assert b.lifecycle.begin(job_id) is None  # lost the claim race
            assert job_id in b.lifecycle.claim_skip

            assert a.lifecycle.complete(job_id, record.attempts, {"m": 1})
            assert not (spool / "claims" / f"{job_id}.json").exists()
            b.lifecycle.tick()
            assert b.queue.get(job_id).state is JobState.DONE
            assert job_id not in b.lifecycle.claim_skip

        asyncio.run(scenario())


class TestStaleViews:
    """A farm node writes a record only after re-reading it from the
    spool: its in-memory view may predate a peer's write."""

    def stolen_job(self, spool, now):
        """a owns every shard and holds a job that b has stolen."""
        a = freeze(farm_service(spool, "node-a", now))
        a.lifecycle.tick()
        b = freeze(farm_service(spool, "node-b", now))

        async def submit():
            return await a.submit(encode_job(farm_jobs(1)[0]))

        job_id = asyncio.run(submit())
        b.lifecycle.tick()
        assert b.lifecycle.stolen == {job_id}
        return a, b, job_id

    def test_cancel_never_overwrites_a_peers_result(self, tmp_path):
        a, b, job_id = self.stolen_job(tmp_path / "spool", [1000.0])
        record = b.lifecycle.begin(job_id)
        assert b.lifecycle.complete(job_id, record.attempts, {"m": 1})
        # a owns the shard and still sees the job PENDING
        assert a.queue.get(job_id).state is JobState.PENDING
        assert a.cancel(job_id) is False
        assert b.queue.refresh_from_disk(job_id).state is JobState.DONE

    def test_stolen_claim_rereads_before_dispatch(self, tmp_path):
        a, b, job_id = self.stolen_job(tmp_path / "spool", [1000.0])
        assert a.cancel(job_id) is True  # the owner cancels it
        # b has not synced since the steal, yet must not run the job
        assert b.lifecycle.begin(job_id) is None
        assert a.queue.refresh_from_disk(job_id).state is JobState.CANCELLED
        assert not b.lifecycle.claims.holds(job_id)
        assert job_id not in b.lifecycle.stolen

    def test_reap_waits_for_the_spools_lease(self, tmp_path):
        now = [1000.0]
        a, b, job_id = self.stolen_job(tmp_path / "spool", now)
        record = b.lifecycle.begin(job_id)  # lease runs to 1030
        a.lifecycle.tick()  # a sees b's attempt at its first lease
        now[0] += 25.0
        assert b.lifecycle.heartbeat(job_id)  # b extends it to 1055
        now[0] += 10.0  # past the lease a saw, not the one on the spool
        a.lifecycle.reap()
        fresh = a.queue.refresh_from_disk(job_id)
        assert (fresh.state, fresh.owner) == (JobState.RUNNING, "node-b")
        assert b.lifecycle.complete(job_id, record.attempts, {"m": 1})

    def test_waiter_wakes_when_a_submit_syncs_a_peers_result(self, tmp_path):
        """The submit path ingests peers' writes through the node, so a
        job a peer finished still wakes this daemon's waiters."""
        spool = tmp_path / "spool"
        now = [1000.0]

        async def scenario():
            a = freeze(farm_service(spool, "node-a", now))
            a.lifecycle.tick()
            job_id = await a.submit(encode_job(farm_jobs(1)[0]))
            b = freeze(farm_service(spool, "node-b", now))
            b.queue.sync()
            waiter = asyncio.create_task(b.result(job_id, wait=True))
            await asyncio.sleep(0)
            record = a.lifecycle.begin(job_id)
            assert a.lifecycle.complete(job_id, record.attempts, {"m": 1})
            await b.submit(encode_job(farm_jobs(2)[1]))  # syncs a's write
            b.lifecycle.tick()
            assert await asyncio.wait_for(waiter, 5.0) == {"m": 1}

        asyncio.run(scenario())


class TestSoloNode:
    def test_solo_daemon_does_no_farm_io(self, tmp_path):
        """A solo daemon is a node that owns every shard: finishing jobs
        (a cancel and a keep_program compile among them) writes no shard
        lease, claim or cancel marker."""
        spool = tmp_path / "spool"
        circuit = qaoa_regular(6, 3, seed=3)
        program_job = CompileJob(
            "Atomique", circuit, CompileOptions(raa=raa_for(circuit))
        )

        async def scenario():
            service = CompileService(spool_dir=spool, inline=True, shards=2)
            doomed = await service.submit(encode_job(farm_jobs(1)[0]))
            assert service.cancel(doomed) is True
            ids = [await service.submit(encode_job(j)) for j in farm_jobs(3)]
            ids.append(
                await service.submit(encode_job(program_job), keep_program=True)
            )
            for job_id in ids:
                await service.result(job_id, wait=True, timeout=60.0)
            assert service.lifecycle.owned == {0, 1}
            assert service.stats()["farm"] is False
            assert service.status(doomed)["state"] == "cancelled"
            assert service.program_bytes(ids[-1])
            await service.drain()

        asyncio.run(scenario())
        for name in ("shards", "claims", "control"):
            assert not (spool / name).exists(), f"solo daemon wrote {name}/"


class TestPriorityAndDeadline:
    def test_priority_overrides_fifo_and_deadline_breaks_ties(self, tmp_path):
        """Dispatch order is priority desc, then EDF, then submission."""
        order = []

        async def scenario():
            service = CompileService(inline=True, shards=1)
            real = service._execute_inline

            def tracking(payload, shard):
                order.append(payload["circuit"]["name"])
                return real(payload, shard)

            service._execute_inline = tracking
            jobs = [
                CompileJob("Superconducting", qaoa_regular(6, 3, seed=s))
                for s in range(1, 5)
            ]
            names = ["plain", "urgent", "soon", "late"]
            for job, name in zip(jobs, names):
                job.circuit.name = name
            # Submit before start so the dispatcher sees the full queue.
            await service.submit(encode_job(jobs[0]))
            await service.submit(encode_job(jobs[1]), priority=5)
            await service.submit(
                encode_job(jobs[2]), priority=1, deadline=100.0
            )
            await service.submit(
                encode_job(jobs[3]), priority=1, deadline=500.0
            )
            await service.start()
            await service.drain()

        asyncio.run(scenario())
        assert order == ["urgent", "soon", "late", "plain"]

    def test_expired_deadline_fails_instead_of_running_late(self, tmp_path):
        now = [1000.0]

        async def scenario():
            service = CompileService(
                spool_dir=tmp_path / "spool",
                inline=True,
                shards=1,
                clock=lambda: now[0],
            )
            job = CompileJob("Superconducting", qaoa_regular(6, 3, seed=1))
            job_id = await service.submit(encode_job(job), deadline=5.0)
            now[0] += 20.0  # the job misses its dispatch deadline
            await service.start()
            with pytest.raises(ServiceError, match="deadline expired"):
                await service.result(job_id, wait=True, timeout=10.0)
            await service.aclose()

        asyncio.run(scenario())


class TestProgramCapture:
    def test_program_round_trip_is_bit_identical(self, tmp_path):
        """keep_program stores exactly the program the direct compiler
        produces, and the metrics stay untouched by the capture path."""
        circuit = qaoa_regular(6, 3, seed=3)
        options = CompileOptions(raa=raa_for(circuit))
        job = CompileJob("Atomique", circuit, options)

        async def scenario():
            service = CompileService(
                spool_dir=tmp_path / "spool", inline=True, shards=1
            )
            await service.start()
            job_id = await service.submit(
                encode_job(job), keep_program=True
            )
            metrics = decode_metrics(
                await service.result(job_id, wait=True, timeout=60.0)
            )
            program = binformat.decode_program(service.program_bytes(job_id))
            await service.aclose()
            return metrics, program

        metrics, program = asyncio.run(scenario())
        direct = atomique_result(circuit, options)
        assert scrub_program(
            program_to_dict(program)
        ) == scrub_program(program_to_dict(direct.program))
        assert stable(metrics) == stable(
            compile_many([job], workers=1)[0]
        )

    def test_keep_program_rejects_non_atomique(self, tmp_path):
        async def scenario():
            service = CompileService(inline=True, shards=1)
            job = CompileJob("Superconducting", qaoa_regular(6, 3, seed=1))
            with pytest.raises(ServiceError, match="Atomique"):
                await service.submit(encode_job(job), keep_program=True)

        asyncio.run(scenario())

    def test_program_of_plain_job_is_a_clear_error(self, tmp_path):
        async def scenario():
            service = CompileService(inline=True, shards=1)
            await service.start()
            job = CompileJob("Superconducting", qaoa_regular(6, 3, seed=1))
            job_id = await service.submit(encode_job(job))
            await service.result(job_id, wait=True, timeout=60.0)
            with pytest.raises(ServiceError, match="keep_program"):
                service.program_bytes(job_id)
            await service.aclose()

        asyncio.run(scenario())


class TestFarmStats:
    def test_stats_expose_the_robustness_counters(self, tmp_path):
        spool = tmp_path / "spool"
        now = [1000.0]

        async def scenario():
            a = farm_service(spool, "node-a", now)
            await a.start()
            stats = a.stats()
            await a.aclose()
            return stats

        stats = asyncio.run(scenario())
        assert stats["farm"] is True
        assert stats["node"] == "node-a"
        assert stats["owned_shards"] == [0, 1, 2, 3]
        assert stats["steals"] == 0
        assert stats["shards_claimed"] == 4
        assert stats["quarantined_spool_files"] == 0
        leases = stats["shard_leases"]
        assert [r["owner"] for r in leases] == ["node-a"] * 4
        assert all(not r["expired"] for r in leases)
        assert all(r["lease_age"] >= 0.0 for r in leases)
