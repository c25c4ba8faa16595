"""Fault-injection chaos suite for the compile service.

Most of this file runs in tier-1: worker-crash containment, poison-job
dead-lettering, per-job timeouts, cancel-while-running, bookkeeping
failures, and client retry/backoff — all driven by deterministic
:class:`~repro.service.faults.FaultPlan` rules against in-process
services.  The ``@pytest.mark.chaos`` tests at the bottom boot **real
daemon subprocesses** and kill them mid-run (the CI ``chaos-smoke`` job);
the headline test arms ``daemon.exit`` via ``REPRO_FAULTS``, hard-kills
the daemon mid fig13-style mix, boots a fresh daemon on the same spool,
and asserts every job completes with metrics bit-identical to a serial
``compile_many`` run — zero jobs lost, zero duplicated.
"""

import asyncio
import json
import os
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.registry import CompileOptions
from repro.experiments.batch import CompileJob, compile_many
from repro.generators import qaoa_random, qaoa_regular, qsim_random
from repro.service import (
    CompileService,
    RemoteError,
    ServiceClient,
    ServiceError,
    ServiceServer,
    ServiceUnavailable,
    faults,
)
from repro.service.queue import JobQueue, JobState, QueueError
from repro.service.wire import encode_job

from .test_service import stable

SRC = str(Path(__file__).resolve().parents[2] / "src")


@pytest.fixture(autouse=True)
def clean_fault_plan():
    """Fault plans are process-global; never leak one between tests."""
    faults.reset()
    yield
    faults.reset()


def fast_job(name, seed=1):
    """A quick-compiling job (Superconducting backend) with a known name,
    so fault rules can target it by context substring."""
    circuit = qaoa_regular(6, 3, seed=seed)
    circuit.name = name
    return CompileJob("Superconducting", circuit, CompileOptions())


async def wait_state(service, job_id, state, timeout=30.0):
    async def poll():
        while service.status(job_id)["state"] != state:
            await asyncio.sleep(0.01)

    await asyncio.wait_for(poll(), timeout)


class TestWorkerCrashRecovery:
    def test_transient_crash_retries_on_rebuilt_shard(self):
        """A worker that dies on one attempt costs a retry, not the shard:
        the pool rebuilds and the second attempt succeeds."""
        plan = {
            "rules": [{"site": "worker.crash", "at": [1], "match": "flaky#a1"}]
        }

        async def scenario():
            service = CompileService(shards=1, fault_plan=plan)
            flaky = await service.submit(encode_job(fast_job("flaky")))
            healthy = await service.submit(encode_job(fast_job("healthy", 2)))
            await service.result(flaky, wait=True, timeout=120)
            await service.result(healthy, wait=True, timeout=120)
            flaky_status = service.status(flaky)
            stats = service.stats()
            await service.aclose()
            return flaky_status, stats

        status, stats = asyncio.run(scenario())
        assert status["state"] == "done"
        assert status["attempts"] == 2  # crash charged, retry succeeded
        assert stats["retried_jobs"] == 1
        assert stats["dead_lettered"] == 0

    def test_poison_job_dead_letters_and_shard_survives(self):
        """A job that kills its worker on *every* attempt stops retrying at
        max_retries (dead-letter), and later jobs on the shard still run."""
        plan = {"rules": [{"site": "worker.crash", "every": 1, "match": "poison"}]}

        async def scenario():
            service = CompileService(shards=1, fault_plan=plan)
            poison = await service.submit(
                encode_job(fast_job("poison")), max_retries=2
            )
            with pytest.raises(ServiceError, match="failed after 2 attempt"):
                await service.result(poison, wait=True, timeout=120)
            # the shard outlived two worker crashes:
            healthy = await service.submit(encode_job(fast_job("healthy", 2)))
            await service.result(healthy, wait=True, timeout=120)
            poison_status = service.status(poison)
            failed = [r.summary() for r in service.queue.failed()]
            await service.aclose()
            return poison_status, failed

        status, failed = asyncio.run(scenario())
        assert status["state"] == "failed"
        assert status["attempts"] == 2
        assert "crashed its worker" in status["error"]
        assert [f["id"] for f in failed] == [status["id"]]


class TestTimeouts:
    def test_slow_attempt_times_out_then_succeeds(self):
        """Attempt 1 hangs past its deadline: the worker is killed, the
        shard rebuilt, and attempt 2 (not slowed) completes."""
        plan = {
            "rules": [
                {
                    "site": "job.slow",
                    "at": [1],
                    "match": "sluggish#a1",
                    "seconds": 30.0,
                }
            ]
        }

        async def scenario():
            service = CompileService(shards=1, fault_plan=plan)
            job_id = await service.submit(
                encode_job(fast_job("sluggish")), timeout=1.0
            )
            await service.result(job_id, wait=True, timeout=180)
            status = service.status(job_id)
            await service.aclose()
            return status

        status = asyncio.run(scenario())
        assert status["state"] == "done"
        assert status["attempts"] == 2

    def test_always_slow_job_dead_letters_with_timeout_error(self):
        plan = {
            "rules": [
                {"site": "job.slow", "every": 1, "match": "stuck", "seconds": 30.0}
            ]
        }

        async def scenario():
            service = CompileService(shards=1, fault_plan=plan)
            job_id = await service.submit(
                encode_job(fast_job("stuck")), timeout=0.75, max_retries=1
            )
            with pytest.raises(ServiceError, match="failed after 1 attempt"):
                await service.result(job_id, wait=True, timeout=180)
            status = service.status(job_id)
            await service.aclose()
            return status

        status = asyncio.run(scenario())
        assert status["state"] == "failed"
        assert "timed out after 0.75s" in status["error"]


class TestCancelRunning:
    def test_cancel_revokes_lease_and_discards_result(self):
        """Cancelling a RUNNING job: the lease is revoked, the in-flight
        future cancelled best-effort, and the job stays CANCELLED."""
        plan = {
            "rules": [
                {"site": "job.slow", "every": 1, "match": "dawdler", "seconds": 20.0}
            ]
        }

        async def scenario():
            service = CompileService(shards=1, fault_plan=plan)
            job_id = await service.submit(encode_job(fast_job("dawdler")))
            await wait_state(service, job_id, "running")
            assert service.cancel(job_id) is True
            with pytest.raises(ServiceError, match="cancelled"):
                await service.result(job_id, wait=True, timeout=30)
            status = service.status(job_id)
            await service.aclose()
            return status

        assert asyncio.run(scenario())["state"] == "cancelled"


class TestBookkeepingFailures:
    def test_result_spool_failure_marks_job_failed_with_traceback(
        self, tmp_path, caplog
    ):
        """The dispatcher's catch-all must log and record a bookkeeping
        failure (here: the result spool write raising) instead of silently
        dropping it — and must keep serving later jobs."""
        faults.install({"rules": [{"site": "spool.result", "at": [1]}]})

        async def scenario():
            service = CompileService(spool_dir=tmp_path / "spool", inline=True)
            doomed = await service.submit(encode_job(fast_job("doomed")))
            with pytest.raises(ServiceError, match="failed"):
                await service.result(doomed, wait=True, timeout=30)
            # the dispatcher survived and the next job completes:
            healthy = await service.submit(encode_job(fast_job("healthy", 2)))
            await service.result(healthy, wait=True, timeout=30)
            status = service.status(doomed)
            await service.aclose()
            return status

        with caplog.at_level("ERROR", logger="repro.service"):
            status = asyncio.run(scenario())
        assert status["state"] == "failed"
        assert "InjectedFault" in status["error"]  # full traceback recorded
        assert any(
            "bookkeeping failure" in r.getMessage() for r in caplog.records
        )

    def test_quarantined_spool_files_reported_in_stats(self, tmp_path):
        spool = tmp_path / "spool"
        (spool / "jobs").mkdir(parents=True)
        (spool / "jobs" / "job-000001-garbage.json").write_text("{corrupt")

        async def scenario():
            service = CompileService(spool_dir=spool, inline=True)
            await service.start()
            stats = service.stats()
            await service.aclose()
            return stats

        assert asyncio.run(scenario())["quarantined_spool_files"] == 1


class TestClientBackoff:
    def payload(self):
        return {"op": "submit", "job": {"backend": "Atomique"}}

    def test_connect_failures_retry_with_deterministic_jitter(self, monkeypatch):
        attempts = []
        sleeps = []

        def flaky_request(payload, timeout=None):
            attempts.append(1)
            if len(attempts) < 3:
                raise ServiceUnavailable("connection refused")
            return {"ok": True, "id": "job-1"}

        def run():
            attempts.clear()
            sleeps.clear()
            client = ServiceClient(port=1, retries=3, backoff_seed=7)
            monkeypatch.setattr(client, "_request_once", flaky_request)
            monkeypatch.setattr(
                "repro.service.client.time.sleep", sleeps.append
            )
            response = client.request(self.payload())
            return response, list(sleeps)

        first_response, first_sleeps = run()
        _, second_sleeps = run()
        assert first_response["id"] == "job-1"
        assert len(attempts) == 3
        assert len(first_sleeps) == 2
        assert first_sleeps[1] > first_sleeps[0] * 0.5  # exponential-ish
        assert first_sleeps == second_sleeps  # seeded jitter is deterministic

    def test_exhausted_retries_raise(self, monkeypatch):
        calls = []

        def always_down(payload, timeout=None):
            calls.append(1)
            raise ServiceUnavailable("connection refused")

        client = ServiceClient(port=1, retries=2, backoff_base=0.0)
        monkeypatch.setattr(client, "_request_once", always_down)
        monkeypatch.setattr("repro.service.client.time.sleep", lambda s: None)
        with pytest.raises(ServiceUnavailable):
            client.request(self.payload())
        assert len(calls) == 3  # initial + 2 retries

    def test_sent_keyless_submit_is_never_retried(self, monkeypatch):
        """A submit that may have reached the daemon must not be replayed
        without an idempotency key — that could compile the job twice."""
        calls = []

        def dropped(payload, timeout=None):
            calls.append(1)
            failure = ServiceUnavailable("connection closed before a response")
            failure.request_sent = True
            raise failure

        client = ServiceClient(port=1, retries=3, backoff_base=0.0)
        monkeypatch.setattr(client, "_request_once", dropped)
        monkeypatch.setattr("repro.service.client.time.sleep", lambda s: None)
        with pytest.raises(ServiceUnavailable):
            client.request(self.payload())
        assert len(calls) == 1

        # the same failure WITH a key retries (the daemon deduplicates):
        with pytest.raises(ServiceUnavailable):
            client.request({**self.payload(), "key": "k1"})
        assert len(calls) == 5  # 1 above + initial + 3 retries


    def test_failed_connect_closes_its_socket(self, tmp_path):
        """A connect to a missing socket path (a daemon still booting, as
        ``wait_ready`` polls it) must not leave the client's Unix socket
        open: under ``-W error::ResourceWarning`` an unclosed socket
        reports itself on stderr when collected."""
        code = (
            "from gc import collect\n"
            "from repro.service import ServiceClient, ServiceUnavailable\n"
            f"client = ServiceClient(socket_path={str(tmp_path / 'no.sock')!r},"
            " retries=0)\n"
            "try:\n"
            "    client.ping(timeout=1.0)\n"
            "except ServiceUnavailable:\n"
            "    pass\n"
            "else:\n"
            "    raise SystemExit('connected to a missing socket')\n"
            "collect()\n"
        )
        out = subprocess.run(
            [sys.executable, "-W", "error::ResourceWarning", "-c", code],
            env={**os.environ, "PYTHONPATH": SRC}, capture_output=True,
            text=True, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        assert "ResourceWarning" not in out.stderr, out.stderr


class TestSocketDropIdempotency:
    def _serve_in_thread(self, service, socket_path):
        """Run a ServiceServer on its own event loop in a daemon thread."""
        box = {}
        ready = threading.Event()

        def runner():
            async def main():
                server = ServiceServer(service, socket_path=socket_path)
                await server.start()
                box["server"] = server
                box["loop"] = asyncio.get_running_loop()
                ready.set()
                await server.serve_until_drained()
                await server.aclose()

            asyncio.run(main())

        thread = threading.Thread(target=runner, daemon=True)
        thread.start()
        assert ready.wait(timeout=30)
        return box, thread

    def test_dropped_submit_response_resubmits_safely_with_key(self, tmp_path):
        """The daemon processes a submit, then the socket drops before the
        response: the client's retry (same key) must land on the *same*
        job, not enqueue a duplicate."""
        faults.install(
            {"rules": [{"site": "socket.drop", "at": [1], "match": "submit"}]}
        )
        service = CompileService(inline=True)
        box, thread = self._serve_in_thread(service, tmp_path / "repro.sock")
        try:
            client = ServiceClient(
                socket_path=tmp_path / "repro.sock",
                timeout=60.0,
                backoff_base=0.01,
                backoff_seed=0,
            )
            job_id = client.submit(fast_job("dropped"), key="drop-1")
            assert stable(client.result(job_id, wait=True))  # it compiled
            listed = client.jobs()
            assert len(listed) == 1  # retry deduplicated on the key
            assert listed[0]["id"] == job_id
            assert listed[0]["key"] == "drop-1"
            # an explicit resubmission with the same key is also a no-op:
            assert client.submit(fast_job("dropped"), key="drop-1") == job_id
            client.drain()
        finally:
            try:
                box["loop"].call_soon_threadsafe(box["server"]._drained.set)
            except RuntimeError:
                pass  # loop already closed after a clean drain
            thread.join(timeout=30)


# -- queue state machine under random kill points (hypothesis) ---------------


_ACTIONS = ("submit", "acquire", "done", "fail", "cancel", "requeue")


@settings(
    max_examples=40,
    deadline=None,
    # the autouse fault-plan fixture is function-scoped; the test resets
    # the plan itself per example, so reuse across examples is safe
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    ops=st.lists(
        st.tuples(st.sampled_from(_ACTIONS), st.integers(0, 5)),
        min_size=1,
        max_size=24,
    ),
    kill_point=st.integers(1, 30),
)
def test_every_acked_job_reaches_exactly_one_terminal_state(ops, kill_point):
    """Interrupt the spool at an arbitrary write and recover: every job
    whose submission was acknowledged is still present, never duplicated,
    and drives to exactly one of DONE/FAILED/CANCELLED."""
    with tempfile.TemporaryDirectory() as spool:
        faults.install(
            {"rules": [{"site": "spool.write", "at": [kill_point]}]}
        )
        acked = []
        try:
            queue = JobQueue(spool)
            for action, pick in ops:
                if action == "submit":
                    record = queue.submit(
                        {"backend": "X", "circuit": {"name": "c"}}, shard=0
                    )
                    acked.append(record.job_id)
                    continue
                if not acked:
                    continue
                job_id = acked[pick % len(acked)]
                try:
                    if action == "acquire":
                        queue.acquire(job_id, owner="d", lease_seconds=30)
                    elif action == "done":
                        queue.mark_done(job_id, {"ok": True})
                    elif action == "fail":
                        queue.mark_failed(job_id, "boom")
                    elif action == "cancel":
                        queue.cancel(job_id)
                    elif action == "requeue":
                        if queue.get(job_id).state is JobState.RUNNING:
                            queue.requeue(job_id)
                except QueueError:
                    pass  # invalid transition: the op is a no-op
        except faults.InjectedFault:
            # The "process" died at the kill point, mid-write.  A submit
            # that died before its record hit the disk was never acked.
            if acked and queue.get(acked[-1]).state is JobState.PENDING:
                path = Path(spool) / "jobs" / f"{acked[-1]}.json"
                if not path.exists():
                    acked.pop()
        finally:
            faults.reset()

        # Recovery daemon: clean boot on the same spool, drive every
        # non-terminal job to completion.
        reborn = JobQueue(spool)
        for record in reborn.jobs():
            if record.state is JobState.PENDING:
                reborn.acquire(record.job_id)
                reborn.mark_done(record.job_id, {"ok": True})
        ids = [r.job_id for r in reborn.jobs()]
        assert len(ids) == len(set(ids))  # never duplicated
        for job_id in acked:
            assert reborn.get(job_id).state.terminal  # never lost or stuck


# -- real-daemon chaos (CI chaos-smoke job, -m chaos) ------------------------


def _daemon_env(fault_plan=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.pop(faults.FAULTS_ENV, None)
    if fault_plan is not None:
        env[faults.FAULTS_ENV] = json.dumps(fault_plan)
    return env


def _boot_daemon(socket_path, spool, prefix, fault_plan=None, shards=2, log=None):
    # Daemon output goes to a file, not a pipe: a hard-killed daemon
    # leaves orphaned pool workers holding the pipe's write end forever,
    # so a pipe read() after the kill would hang the test.
    log_file = open(log, "ab") if log is not None else subprocess.DEVNULL
    try:
        return subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--socket",
                str(socket_path),
                "--spool",
                str(spool),
                "--shards",
                str(shards),
                "--prefix-cache",
                str(prefix),
            ],
            env=_daemon_env(fault_plan),
            stdout=log_file,
            stderr=subprocess.STDOUT,
        )
    finally:
        if log is not None:
            log_file.close()


def fig13_mix():
    """A fig13-style mix: three circuits across three architectures."""
    from repro.experiments import raa_for

    circuits = [
        qaoa_regular(8, 3, seed=1),
        qsim_random(8, seed=2),
        qaoa_random(10, seed=3),
    ]
    jobs = []
    for circuit in circuits:
        for backend in ("Atomique", "Superconducting", "FAA-Rectangular"):
            raa = raa_for(circuit) if backend == "Atomique" else None
            jobs.append(CompileJob(backend, circuit, CompileOptions(raa=raa)))
    return jobs


@pytest.mark.chaos
def test_daemon_killed_mid_mix_fresh_daemon_finishes_bit_identical(tmp_path):
    """THE headline chaos test (ROADMAP open item 2's acceptance bar):
    hard-kill a daemon mid fig13-mix (``os._exit`` via a seeded
    ``daemon.exit`` rule — indistinguishable from SIGKILL), boot a fresh
    daemon on the same spool, and require every job to complete with
    metrics bit-identical to a serial ``compile_many`` run."""
    socket_path = tmp_path / "repro.sock"
    spool, prefix = tmp_path / "spool", tmp_path / "prefix"
    jobs = fig13_mix()
    serial = compile_many(jobs)

    # Daemon 1 dies (os._exit 86) right after its third job completes.
    plan = {"rules": [{"site": "daemon.exit", "at": [3], "exit_code": 86}]}
    log = tmp_path / "daemon.log"
    daemon = _boot_daemon(socket_path, spool, prefix, fault_plan=plan, log=log)
    job_ids = []
    try:
        client = ServiceClient(
            socket_path=socket_path, timeout=120.0, backoff_seed=0
        )
        client.wait_ready(timeout=60.0)
        job_ids = [
            client.submit(job, key=f"mix-{i}") for i, job in enumerate(jobs)
        ]
        assert daemon.wait(timeout=300) == 86  # the injected hard-kill
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait(timeout=10)
        print(log.read_text() if log.exists() else "")

    assert len(job_ids) == len(jobs)

    # Daemon 2: same spool, no faults. It must finish the backlog.
    daemon2 = _boot_daemon(socket_path, spool, prefix, log=log)
    try:
        client = ServiceClient(
            socket_path=socket_path, timeout=300.0, backoff_seed=0
        )
        client.wait_ready(timeout=60.0)
        recovered = client.results(job_ids)
        listed = client.jobs()
        # zero lost, zero duplicated, all terminal-DONE:
        assert len(listed) == len(jobs)
        assert {j["state"] for j in listed} == {"done"}
        # resubmission with the original keys maps back to the same jobs:
        resubmitted = [
            client.submit(job, key=f"mix-{i}") for i, job in enumerate(jobs)
        ]
        assert resubmitted == job_ids
        # and the recovered metrics are bit-identical to the serial run:
        assert [stable(m) for m in recovered] == [stable(m) for m in serial]
        client.drain()
        assert daemon2.wait(timeout=120) == 0
    finally:
        if daemon2.poll() is None:
            daemon2.kill()
            daemon2.wait(timeout=10)
        print(log.read_text() if log.exists() else "")


@pytest.mark.chaos
def test_poison_job_dead_letter_is_visible_via_cli(tmp_path):
    """Against a real daemon: a poison job (worker crashes every attempt)
    dead-letters after max_retries, the shard keeps serving, and
    ``python -m repro jobs --failed`` shows the entry with its attempt
    count and last error."""
    socket_path = tmp_path / "repro.sock"
    plan = {"rules": [{"site": "worker.crash", "every": 1, "match": "poison"}]}
    log = tmp_path / "daemon.log"
    daemon = _boot_daemon(
        socket_path, tmp_path / "spool", tmp_path / "prefix",
        fault_plan=plan, shards=1, log=log,
    )
    try:
        client = ServiceClient(socket_path=socket_path, timeout=120.0)
        client.wait_ready(timeout=60.0)
        poison_id = client.submit(fast_job("poison"), max_retries=2)
        with pytest.raises(RemoteError, match="failed after 2 attempt"):
            client.result(poison_id, wait=True, timeout=240)
        healthy_id = client.submit(fast_job("healthy", 2))
        client.result(healthy_id, wait=True, timeout=240)  # shard survived

        listing = subprocess.run(
            [
                sys.executable, "-m", "repro", "jobs",
                "--failed", "--socket", str(socket_path),
            ],
            env=_daemon_env(),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert listing.returncode == 0
        assert poison_id in listing.stdout
        assert healthy_id not in listing.stdout  # --failed filters
        assert "attempts=2/2" in listing.stdout
        assert "crashed its worker" in listing.stdout
        client.drain()
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait(timeout=10)
        print(log.read_text() if log.exists() else "")
