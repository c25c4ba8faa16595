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
            owned = sorted(a._owned | b._owned)
            assert owned == [0, 1, 2, 3]
            assert not (a._owned & b._owned)
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
            a._farm_step()
            assert a._owned == {0, 1, 2, 3}
            ids = [await a.submit(encode_job(j)) for j in jobs]
            a.queue.acquire(ids[0], owner="node-a", lease_seconds=8.0)
            assert a._claims.claim(ids[0])

            # Both the shard leases (5 s) and the job lease (8 s) age out.
            now[0] += 9.0
            b = farm_service(spool, "node-b", now, lease_seconds=8.0)
            await b.start()
            assert b._owned == {0, 1, 2, 3}, "expired shards not adopted"
            assert b._shards_claimed == 4
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
            a._farm_step()
            ids = [await a.submit(encode_job(j)) for j in jobs]

            b = farm_service(spool, "node-b", now)
            await b.start()
            assert b._owned == set()
            # Keep a's leases fresh while b works, as a live-but-busy
            # peer would: b must steal, not take over.
            async def keep_renewing():
                while True:
                    for shard in range(4):
                        a._board.renew(shard)
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
            assert b._owned == set(), "b stole shards instead of jobs"
            assert b._steal_count == len(ids)
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
            a._farm_step()  # owns every shard, dispatches nothing
            job = farm_jobs(1)[0]
            job_id = await a.submit(encode_job(job))

            b = farm_service(spool, "node-b", now)
            # b is not responsible for the shard: cancel becomes a marker.
            assert b.cancel(job_id) is True
            markers = list((spool / "control").glob("cancel-*.json"))
            assert len(markers) == 1
            record = b.queue.refresh_from_disk(job_id) or b.queue.get(job_id)
            assert record.state is JobState.PENDING  # not applied yet

            a._farm_step()  # the owner picks the marker up
            assert a.queue.get(job_id).state is JobState.CANCELLED
            assert not list((spool / "control").glob("cancel-*.json"))

        asyncio.run(scenario())


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
