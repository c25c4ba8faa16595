"""CompileService behavior: submission/status/result APIs, FIFO ordering,
cancellation, serial == sharded-worker equality, the differential guarantee
against direct ``AtomiqueCompiler.compile``, and the disk-backed prefix
cache acceptance scenario (a Fig. 22-style sweep submitted through two
fresh service instances compiles SABRE once per circuit)."""

import asyncio
from dataclasses import asdict

import pytest

import repro.core.pipeline as pipeline_mod
from repro.baselines.registry import CompileOptions
from repro.core import AtomiqueCompiler, AtomiqueConfig
from repro.core.router import RouterConfig
from repro.baselines.atomique_adapter import metrics_from_result
from repro.experiments import compile_on, raa_for
from repro.experiments.batch import CompileJob
from repro.experiments.fig21_22 import RELAXATIONS
from repro.generators import qaoa_random, qaoa_regular, qsim_random
from repro.service import CompileService, ServiceError
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


def mixed_jobs():
    """Four jobs across two circuits and two backends."""
    qaoa = qaoa_regular(8, 3, seed=1)
    qsim = qsim_random(8, seed=2)
    return [
        CompileJob("Atomique", qaoa, CompileOptions(raa=raa_for(qaoa))),
        CompileJob("Atomique", qsim, CompileOptions(raa=raa_for(qsim))),
        CompileJob("Superconducting", qaoa, CompileOptions()),
        CompileJob("FAA-Rectangular", qsim, CompileOptions()),
    ]


def relaxation_jobs(circuit, arch):
    """The Fig. 22 shape: one circuit, the four constraint relaxations."""
    return [
        CompileJob(
            "Atomique",
            circuit,
            CompileOptions(
                raa=arch,
                config=AtomiqueConfig(seed=7, router=RouterConfig(toggles=toggles)),
                label=label,
            ),
        )
        for label, toggles in RELAXATIONS
    ]


async def submit_and_collect(service, jobs):
    ids = [await service.submit(encode_job(j)) for j in jobs]
    metrics = [
        decode_metrics(await service.result(i, wait=True)) for i in ids
    ]
    return ids, metrics


@pytest.fixture()
def sabre_counter(monkeypatch):
    calls = {"count": 0}
    real = pipeline_mod.sabre_route

    def counting(*args, **kwargs):
        calls["count"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline_mod, "sabre_route", counting)
    return calls


class TestSubmissionAPI:
    def test_submit_status_result_lifecycle(self):
        async def scenario():
            service = CompileService(inline=True, shards=2)
            jobs = mixed_jobs()[:2]
            ids, metrics = await submit_and_collect(service, jobs)
            assert [service.status(i)["state"] for i in ids] == ["done", "done"]
            assert [m.benchmark for m in metrics] == [
                j.circuit.name for j in jobs
            ]
            stats = service.stats()
            assert stats["jobs"]["done"] == 2
            await service.aclose()

        asyncio.run(scenario())

    def test_ephemeral_spool_removed_on_close(self):
        """Without a spool_dir the service spools to a temp directory it
        owns: inline progress lands there, and aclose() removes it."""

        async def scenario():
            service = CompileService(inline=True, shards=1)
            spool = service.queue.spool_dir
            await submit_and_collect(service, mixed_jobs()[:1])
            assert len(list((spool / "progress").glob("*.jsonl"))) == 1
            await service.aclose()
            return spool

        assert not asyncio.run(scenario()).exists()

    def test_unknown_backend_rejected_at_submission(self):
        async def scenario():
            service = CompileService(inline=True)
            payload = encode_job(mixed_jobs()[0])
            payload["backend"] = "No-Such-Backend"
            with pytest.raises(ServiceError, match="registered backends"):
                await service.submit(payload)
            assert service.stats()["jobs"]["pending"] == 0
            await service.aclose()

        asyncio.run(scenario())

    def test_malformed_job_rejected(self):
        async def scenario():
            service = CompileService(inline=True)
            with pytest.raises(ServiceError):
                await service.submit({"backend": "Atomique"})  # no circuit
            await service.aclose()

        asyncio.run(scenario())

    def test_submission_closed_while_draining(self):
        async def scenario():
            service = CompileService(inline=True)
            await service.start()
            await service.drain()
            with pytest.raises(ServiceError, match="draining"):
                await service.submit(encode_job(mixed_jobs()[0]))

        asyncio.run(scenario())


class TestOrderingAndCancellation:
    def test_one_shard_runs_fifo(self):
        """A single shard consumes its queue strictly in submission order."""
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
                for s in (1, 2, 3)
            ]
            for s, job in zip((1, 2, 3), jobs):
                job.circuit.name = f"fifo-{s}"
            ids = [await service.submit(encode_job(j)) for j in jobs]
            await service.drain()
            assert order == ["fifo-1", "fifo-2", "fifo-3"]
            assert [service.status(i)["state"] for i in ids] == ["done"] * 3

        asyncio.run(scenario())

    def test_cancel_pending_job_never_runs(self):
        async def scenario():
            service = CompileService(inline=True, shards=1)
            jobs = mixed_jobs()[:2]
            first = await service.submit(encode_job(jobs[0]))
            second = await service.submit(encode_job(jobs[1]))
            # No await since submission: the dispatcher has not run yet,
            # so the second job is still PENDING and cancellable.
            assert service.cancel(second) is True
            await service.drain()
            assert service.status(first)["state"] == "done"
            assert service.status(second)["state"] == "cancelled"
            with pytest.raises(ServiceError, match="cancelled"):
                await service.result(second)

        asyncio.run(scenario())

    def test_cancel_finished_job_is_refused(self):
        async def scenario():
            service = CompileService(inline=True)
            job_id = await service.submit(encode_job(mixed_jobs()[0]))
            await service.result(job_id, wait=True)
            assert service.cancel(job_id) is False
            await service.aclose()

        asyncio.run(scenario())


class TestShardedEquality:
    def test_sharded_workers_match_direct_compiles(self):
        """Process-pool shards produce the same deterministic metrics as
        direct in-process registry compiles (serial reference)."""
        jobs = mixed_jobs()
        reference = [
            compile_on(
                j.backend, j.circuit, raa=j.options.raa, seed=j.options.seed
            )
            for j in jobs
        ]

        async def scenario():
            service = CompileService(shards=2, inline=False)
            _, metrics = await submit_and_collect(service, jobs)
            await service.drain()
            return metrics

        sharded = asyncio.run(scenario())
        assert [stable(m) for m in sharded] == [stable(m) for m in reference]

    def test_inline_and_sharded_identical(self):
        jobs = mixed_jobs()[:2]

        async def run_with(**kwargs):
            service = CompileService(**kwargs)
            _, metrics = await submit_and_collect(service, jobs)
            await service.drain()
            return metrics

        inline = asyncio.run(run_with(inline=True, shards=2))
        sharded = asyncio.run(run_with(inline=False, shards=2))
        assert [stable(m) for m in inline] == [stable(m) for m in sharded]


class TestDifferentialAgainstDirectCompile:
    def test_service_job_bit_identical_to_atomique_compiler(self):
        """A service-compiled job must match a direct
        ``AtomiqueCompiler.compile`` on every deterministic field."""
        circuit = qaoa_random(14, seed=14)
        arch = raa_for(circuit)
        config = AtomiqueConfig(seed=11, array_mapper="dense")
        direct = metrics_from_result(
            AtomiqueCompiler(arch, config).compile(circuit), circuit.name
        )

        async def scenario():
            service = CompileService(inline=True)
            job = CompileJob(
                "Atomique",
                circuit,
                CompileOptions(raa=arch, config=config, seed=11),
            )
            job_id = await service.submit(encode_job(job))
            metrics = decode_metrics(await service.result(job_id, wait=True))
            await service.aclose()
            return metrics

        via_service = asyncio.run(scenario())
        assert stable(via_service) == stable(direct)


class TestSpoolRestart:
    def test_pending_jobs_resume_after_restart(self, tmp_path):
        """Jobs spooled by a dead daemon run to completion on the next boot."""
        from repro.service.queue import JobQueue

        spool = tmp_path / "spool"
        job = mixed_jobs()[0]
        # A daemon that died right after persisting the submission:
        dead = JobQueue(spool)
        record = dead.submit(encode_job(job), shard=0)

        async def scenario():
            service = CompileService(spool_dir=spool, inline=True)
            await service.start()
            await service.drain()
            return service.queue.get(record.job_id).state

        assert asyncio.run(scenario()) is JobState.DONE

        # And a *third* boot serves the result straight from the spool.
        async def read_back():
            service = CompileService(spool_dir=spool, inline=True)
            await service.start()
            payload = await service.result(record.job_id)
            await service.aclose()
            return decode_metrics(payload)

        assert stable(asyncio.run(read_back())) == stable(
            compile_on(job.backend, job.circuit, raa=job.options.raa)
        )

    def test_result_cache_short_circuits_resubmission(self, tmp_path):
        """With a result cache, resubmitting a finished job is DONE at
        submission time — no queue trip, no recompile."""

        async def scenario():
            first = CompileService(
                inline=True, result_cache_dir=tmp_path / "results"
            )
            job = encode_job(mixed_jobs()[0])
            ids, metrics = await submit_and_collect(first, [mixed_jobs()[0]])
            await first.drain()

            second = CompileService(
                inline=True, result_cache_dir=tmp_path / "results"
            )
            await second.start()
            job_id = await second.submit(job)
            # DONE immediately: the dispatcher never saw it.
            state = second.status(job_id)["state"]
            again = decode_metrics(await second.result(job_id))
            await second.aclose()
            return state, metrics[0], again

        state, original, again = asyncio.run(scenario())
        assert state == "done"
        assert stable(original) == stable(again)


class TestDiskPrefixCacheAcceptance:
    """ISSUE acceptance criterion: a Fig. 22-style relaxation sweep
    submitted through the service twice (fresh service each time) hits the
    disk-backed prefix cache on the second run — SABRE compiles once per
    circuit across runs."""

    def run_sweep(self, circuits, prefix_dir, **service_kwargs):
        async def scenario():
            service = CompileService(
                prefix_cache_dir=prefix_dir, **service_kwargs
            )
            jobs = [
                job
                for circ in circuits
                for job in relaxation_jobs(circ, raa_for(circ))
            ]
            _, metrics = await submit_and_collect(service, jobs)
            await service.drain()
            return metrics

        return asyncio.run(scenario())

    def test_sabre_compiles_once_per_circuit_across_runs(
        self, tmp_path, sabre_counter
    ):
        circuits = [qaoa_random(16, seed=16), qsim_random(10, seed=10)]
        first = self.run_sweep(circuits, tmp_path / "prefix", inline=True)
        assert sabre_counter["count"] == len(circuits)

        # Fresh service over the same directory: zero new SABRE runs.
        second = self.run_sweep(circuits, tmp_path / "prefix", inline=True)
        assert sabre_counter["count"] == len(circuits)
        assert [stable(m) for m in second] == [stable(m) for m in first]

    def test_second_run_sabre_pass_time_is_restore_time(self, tmp_path):
        """The pass-timing assertion, through real worker processes: run 1
        pays one full SABRE compile; run 2 (fresh processes, same prefix
        directory) only unpickles the artifact, which is far cheaper."""
        circuit = qaoa_random(40, seed=40)
        first = self.run_sweep(
            [circuit], tmp_path / "prefix", inline=False, shards=2
        )
        second = self.run_sweep(
            [circuit], tmp_path / "prefix", inline=False, shards=2
        )
        assert [stable(m) for m in second] == [stable(m) for m in first]

        sabre = "pass_seconds.sabre_swap"
        full_compile = first[0].extras[sabre]  # the one cold SABRE run
        # Every second-run job restored from disk: well under the cold run.
        assert max(m.extras[sabre] for m in second) < full_compile * 0.5
        assert sum(m.extras[sabre] for m in second) < full_compile
