"""The ``service-program`` workload: a real ``python -m repro serve`` daemon
on a fresh socket and spool, driven by one
:class:`~repro.service.ServiceClient` in a closed loop of
``submit(keep_program)`` -> ``result_stream`` (program in hand), then a
``program()`` re-fetch of the finished job.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.baselines.registry import atomique_result
from repro.core.binformat import decode_program, encode_program
from repro.service import ServiceClient

from . import oracle, recording
from .library import loop
from .measure import Latencies, PeakRss, median, nproc, proc_stats
from .workloads import warm_jobs

#: In-process compiles of each job whose median wall-clock a traced run
#: subtracts from the service latency (``service.overhead_s``).
REFERENCE_REPEATS = 3

#: Seconds a daemon gets to boot, drain or die.
DAEMON_TIMEOUT = 60.0


class Daemon:
    """One ``repro serve`` subprocess in its own session, so stopping it
    also reaps its spawn-pool workers."""

    def __init__(self, ctx, shards: int) -> None:
        self.dir = ctx.tmpdir()
        rel = Path(os.path.relpath(self.dir))  # AF_UNIX paths are short
        self.socket = rel / "s.sock"
        self.spool = rel / "spool"
        self.shards = shards
        env = dict(os.environ)
        src = str(Path.cwd() / "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self._log = open(self.dir / "daemon.log", "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--socket", str(self.socket), "--spool", str(self.spool),
             "--shards", str(shards)],
            env=env, stdout=self._log, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        self.client = ServiceClient(socket_path=self.socket, timeout=DAEMON_TIMEOUT)

    def spool_bytes(self, job_id: str) -> tuple[int, int]:
        """``(all spool bytes of the job, its program file's bytes)``."""
        total = program = 0
        for sub, suffix in (("jobs", ".json"), ("results", ".json"),
                            ("programs", ".bin"), ("progress", ".jsonl")):
            try:
                size = (self.spool / sub / f"{job_id}{suffix}").stat().st_size
            except OSError:
                continue
            total += size
            if sub == "programs":
                program = size
        return total, program

    def stop(self) -> None:
        """Drain and exit; on any failure kill the whole process group.
        Returns only when no process of the group is left."""
        try:
            if self.proc.poll() is None:
                try:
                    self.client.drain(timeout=DAEMON_TIMEOUT)
                    self.proc.wait(timeout=DAEMON_TIMEOUT)
                except Exception:
                    pass  # killed below either way
        finally:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            self.proc.wait()
            _wait_group_gone(self.proc.pid)
            self._log.close()


def _wait_group_gone(pgid: int, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while any(g == pgid and state != "Z" for _p, state, _pp, g in proc_stats()):
        if time.monotonic() > deadline:
            raise RuntimeError(f"daemon process group {pgid} outlived its kill")
        time.sleep(0.02)


class ProgramJobs:
    """``keep_program`` jobs: stream the program back, then re-fetch it."""

    def __init__(self, ctx) -> None:
        self.ctx = ctx
        self.last_job_id: str | None = None

    def op(self, daemon: Daemon, job, traced: bool) -> tuple[float, float]:
        """One operation on *job*: submit, wait for the program, re-fetch
        it.  Returns ``(submit -> program in hand, whole op)`` seconds; a
        traced op reads them off its spans."""
        ctx, client = self.ctx, daemon.client
        t0 = time.perf_counter()
        with ctx.guard(job.name):
            if traced:
                ledger = ctx.ledger
                events: list[dict] = []
                with ledger.span("op") as op:
                    with ledger.span("service.submit"):
                        job_id = client.submit(job.job, keep_program=True)
                    with ledger.span("service.wait") as wait:
                        reply = self.wait(client, job_id, events.append)
                    with ledger.span("service.fetch"):
                        again = client.program(job_id)
                # Outside the op: the daemon's own pass timings and counts.
                self.after_traced(daemon, job, job_id, wait, events, reply)
                latency = ledger.spans[wait].end - ledger.spans[op].start
                wall = ledger.spans[op].duration
            else:
                job_id = client.submit(job.job, keep_program=True)
                reply = self.wait(client, job_id, None)
                t1 = time.perf_counter()
                again = client.program(job_id)
                wall = time.perf_counter() - t0
                latency = t1 - t0
            if oracle.digest(reply[0], again) != ctx.record(job.name, *reply):
                ctx.tally.fail_job(job.name, "re-fetched output differs")
            self.last_job_id = job_id
            return latency, wall
        elapsed = time.perf_counter() - t0
        return elapsed, elapsed

    @staticmethod
    def wait(client, job_id: str, on_event) -> tuple:
        """``(metrics, program)`` once the job is done."""
        metrics, store = client.result_stream(job_id, on_event=on_event)
        if store is None:
            raise RuntimeError("result_stream returned no program")
        return metrics, store

    def after_traced(self, daemon: Daemon, job, job_id: str, wait: int,
                     events, reply) -> None:
        """Pass timings, counts and codec timings of one streamed program,
        recorded after the traced op, outside its span."""
        ctx = self.ctx
        self.report_passes(events, wait)
        stats = daemon.client.last_stream_stats or {}
        ctx.count("service.binary_chunks", stats.get("binary_chunks", 0))
        ctx.count("service.json_chunks", stats.get("json_chunks", 0))
        store = reply[1]
        with ctx.ledger.span("codec.encode"):
            blob = encode_program(store)
        with ctx.ledger.span("codec.decode"):
            decoded = decode_program(blob)
        ctx.count("codec.bytes", len(blob))
        spool, program_file = daemon.spool_bytes(job_id)
        ctx.count("queue.spool_bytes", spool)
        ctx.count("service.program_bytes", program_file)
        if oracle.program_digest(decoded) != oracle.program_digest(store):
            ctx.tally.fail_job(job.name, "codec round trip differs")

    # -- set-up ------------------------------------------------------------

    def boot(self) -> tuple[Daemon, tuple[float, float]]:
        """Spawn a daemon and warm every shard.  Returns it with
        ``(ready_at, warm_at)``, the two instants measured from spawn:
        answering pings, and every shard served one job."""
        ctx = self.ctx
        t0 = time.perf_counter()
        daemon = Daemon(ctx, nproc())
        try:
            client = daemon.client
            client.wait_ready(timeout=DAEMON_TIMEOUT, poll=0.005)
            ready = time.perf_counter() - t0
            self.op(daemon, ctx.jobs[0], traced=False)
            if self.last_job_id is None:
                raise RuntimeError("the first job failed")
            served = {client.status(self.last_job_id)["shard"]}
            for warm in warm_jobs(ctx.seed):
                if len(served) == daemon.shards:
                    break
                job_id = client.submit(warm.job)
                client.result(job_id)
                served.add(client.status(job_id)["shard"])
            if len(served) != daemon.shards:
                raise RuntimeError(f"warm-up reached shards {sorted(served)} only")
            return daemon, (ready, time.perf_counter() - t0)
        except BaseException:
            daemon.stop()
            raise

    # -- the run -----------------------------------------------------------

    def run(self) -> dict[str, float]:
        ctx = self.ctx
        setups = []
        repeats = 1 if ctx.trace else ctx.setup_repeats
        for r in range(repeats):
            t0 = time.perf_counter()
            daemon, times = self.boot()
            setups.append(times)
            if r < repeats - 1:
                daemon.stop()
        if ctx.trace:
            ready, warm = times
            ctx.ledger.add("service.boot", t0, t0 + ready)
            ctx.ledger.add("service.warm", t0 + ready, t0 + warm)
        plain: list[float] = []
        latencies = Latencies()
        traced: list[tuple[str, float]] = []
        jobs = ctx.jobs
        try:
            with PeakRss() as rss:
                if ctx.trace:
                    def step(i):
                        job = jobs[(i // 2) % len(jobs)]
                        if i % 2 == 0:
                            plain.append(self.op(daemon, job, traced=False)[1])
                        else:
                            latency, _wall = self.op(daemon, job, traced=True)
                            traced.append((job.name, latency))

                    loop(ctx.seconds, step)
                else:
                    def step(i):
                        job = jobs[i % len(jobs)]
                        latency, _wall = self.op(daemon, job, traced=False)
                        latencies.add(job.name, latency)

                    loop(ctx.seconds, step)
        finally:
            daemon.stop()
        reference, direct_wall = self.reference()
        ctx.reference = reference
        if ctx.trace:
            for name, latency in traced:
                if name in direct_wall:
                    ctx.count("service.overhead_s", latency - direct_wall[name])
            return ctx.layer_report(plain)
        ctx.info.update(clients=1, shards=nproc())
        return {
            "setup_s": median([warm for _ready, warm in setups]),
            "latency_s": latencies.report(ctx.info),
            "peak_rss_mb": rss.peak_mb,
            **oracle.quality(list(ctx.first_outputs().values())),
        }

    def reference(self) -> tuple[dict, dict]:
        """In-process compiles of every job that ran: its output digest and
        (traced runs) its median ``compile_on`` wall-clock.  Circuits of up
        to 12 qubits are also checked on statevectors."""
        ctx = self.ctx
        reference, wall = {}, {}
        for job in ctx.jobs:
            if job.name not in ctx.outputs:
                continue
            walls = []
            for _ in range(REFERENCE_REPEATS if ctx.trace else 1):
                t0 = time.perf_counter()
                metrics = recording.compile_direct(job)
                walls.append(time.perf_counter() - t0)
            wall[job.name] = median(walls)
            result = atomique_result(job.circuit, job.job.options)
            reference[job.name] = oracle.digest(metrics, result.program)
            small = job.circuit.num_qubits <= oracle.SEMANTIC_MAX_QUBITS
            if small and not oracle.semantically_equivalent(job.circuit, result):
                ctx.tally.fail_job(job.name, "statevector differs from input")
        return reference, wall

    def report_passes(self, events: list[dict], parent: int) -> None:
        """The daemon's per-pass seconds (last attempt) under span *parent*."""
        if not events:
            return
        last = max(e.get("attempt", 0) for e in events)
        total = 0.0
        for e in events:
            if e.get("attempt", 0) == last:
                self.ctx.ledger.report(e["pass"], e["seconds"], parent)
                total += e["seconds"]
        self.ctx.count("service.passes_s", total)


def program(ctx) -> dict[str, float]:
    return ProgramJobs(ctx).run()
