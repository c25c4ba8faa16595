"""Library workloads: ``flagship`` (one caller, back-to-back ``compile_on``)
and ``sweep`` (back-to-back ``compile_many`` over a Fig. 22-style grid)."""

from __future__ import annotations

import shutil
import time
from collections import defaultdict

from repro.baselines.atomique_adapter import metrics_from_result
from repro.core.compiler import AtomiqueConfig
from repro.core.pipeline import Pass, PassPipeline, cache_stats, default_passes

from . import oracle
from .measure import Latencies, PeakRss, median, nproc
from .recording import compile_direct, compile_grid

PASSES = tuple(p.name for p in default_passes())


class SpannedPass(Pass):
    """Runs a pipeline pass inside a ledger span named after it."""

    def __init__(self, inner: Pass, ledger) -> None:
        self.inner = inner
        self.name = inner.name
        self.ledger = ledger
        self.context = None

    def run(self, context) -> None:
        with self.ledger.span(self.name):
            self.inner.run(context)
        self.context = context


def loop(seconds: float, op, min_ops: int = 2) -> None:
    """Run ``op(i)`` back to back for *seconds*, at least *min_ops* times
    (so a traced run has both an untraced and a traced op)."""
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds or i < min_ops:
        op(i)
        i += 1


def _report(ctx, out, rss, latencies) -> dict:
    out.update(
        latency_s=latencies.report(ctx.info),
        peak_rss_mb=rss.peak_mb,
        **oracle.quality(list(ctx.first_outputs().values())),
    )
    return out


def _probes(ctx) -> dict[str, float]:
    return {"setup_s": median(ctx.setup_probes())}


# -- flagship ----------------------------------------------------------------


def flagship(ctx) -> dict[str, float]:
    jobs = ctx.jobs

    def untraced(job) -> float:
        t0 = time.perf_counter()
        with ctx.guard(job.name):
            m = compile_direct(job)
            elapsed = time.perf_counter() - t0
            ctx.record(job.name, m)
            return elapsed
        return time.perf_counter() - t0

    def traced(job) -> None:
        opts = job.job.options
        ledger = ctx.ledger
        passes = [SpannedPass(p, ledger) for p in default_passes()]
        with ctx.guard(job.name):
            with ledger.span("op"):
                pipeline = PassPipeline(
                    opts.raa, AtomiqueConfig(seed=opts.seed), passes=passes
                )
                result = pipeline.compile(job.circuit)
                # metrics_from_result = estimate_raa_fidelity + program_aggregates
                with ledger.span("score"):
                    m = metrics_from_result(result, job.circuit.name)
            ctx.record(job.name, m)
            program = result.program
            ctx.count("lower.native_gates", len(passes[0].context.native.gates))
            ctx.count("sabre_swap.swaps", result.num_swaps)
            ctx.count("router.stages", program.num_stages)
            ctx.count("router.moves", program.num_moves)
            ctx.count("router.gates_per_stage", m.num_2q_gates / max(1, m.depth))
            ctx.count("router.overlap_rejections", program.overlap_rejections)

    out = {} if ctx.trace else _probes(ctx)
    with PeakRss() as rss:
        untraced(jobs[0])  # warm-up: a cold first op, not sampled
        if ctx.trace:
            plain: list[float] = []

            def step(i):
                job = jobs[(i // 2) % len(jobs)]
                if i % 2 == 0:
                    plain.append(untraced(job))
                else:
                    traced(job)

            loop(ctx.seconds, step, min_ops=2 * len(jobs))
        else:
            latencies = Latencies()

            def step(i):
                job = jobs[i % len(jobs)]
                latencies.add(job.name, untraced(job))

            loop(ctx.seconds, step, min_ops=len(jobs))
    if ctx.trace:
        return ctx.layer_report(plain)
    return _report(ctx, out, rss, latencies)


# -- sweep -------------------------------------------------------------------


def sweep(ctx) -> dict[str, float]:
    workers = nproc()
    ctx.info["workers"] = workers

    def batch(traced: bool) -> float:
        directory = ctx.tmpdir()
        t0 = time.perf_counter()
        elapsed = None
        try:
            with ctx.guard(*[j.name for j in ctx.jobs]):
                if traced:
                    ledger = ctx.ledger
                    with ledger.span("op"), ledger.span("batch") as span:
                        results = compile_grid(ctx.jobs, directory)
                        # Worker-side pass time, per worker lane, so the
                        # layer times add up to the batch's wall-clock.
                        for name in PASSES:
                            key = f"pass_seconds.{name}"
                            busy = sum(m.extras.get(key, 0.0) for m in results)
                            ledger.report(name, busy / workers, span)
                    wall = ledger.spans[span].duration
                    busy = sum(m.compile_seconds for m in results)
                    with ledger.span("prefix_cache.stats"):
                        stats = cache_stats(directory)
                    ctx.count("batch.wall_s", wall)
                    ctx.count("batch.busy_s", busy)
                    ctx.count("batch.worker_util", busy / (wall * workers))
                    ctx.count("prefix_cache.entries", stats["entries"])
                    ctx.count("prefix_cache.bytes", stats["total_bytes"])
                    ctx.count("sabre_swap.swaps",
                              sum(m.extras["num_swaps"] for m in results))
                    ctx.count("router.overlap_rejections",
                              sum(m.extras["overlap_rejections"] for m in results))
                    ctx.count("router.gates_per_stage",
                              sum(m.num_2q_gates for m in results)
                              / max(1, sum(m.depth for m in results)))
                else:
                    results = compile_grid(ctx.jobs, directory)
                    elapsed = time.perf_counter() - t0
                for job, m in zip(ctx.jobs, results):
                    ctx.record(job.name, m)
                _check_relaxations(ctx, results)
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        return elapsed if elapsed is not None else time.perf_counter() - t0

    out = {} if ctx.trace else _probes(ctx)
    with PeakRss() as rss:
        batch(False)  # warm-up: a cold pool and imports, not sampled
        if ctx.trace:
            plain: list[float] = []
            loop(ctx.seconds, lambda i: plain.append(batch(False)) if i % 2 == 0
                 else batch(True))
        else:
            latencies = Latencies()
            loop(ctx.seconds, lambda i: latencies.add("grid", batch(False)))
    if ctx.trace:
        return ctx.layer_report(plain)
    return _report(ctx, out, rss, latencies)


def _check_relaxations(ctx, results) -> None:
    """Fig. 22 invariant: relaxing a movement constraint changes only the
    schedule, so every relaxation of one circuit has the same 2Q count."""
    by_circuit = defaultdict(set)
    names = defaultdict(list)
    for job, m in zip(ctx.jobs, results):
        by_circuit[m.benchmark].add(m.num_2q_gates)
        names[m.benchmark].append(job.name)
    for bench, counts in by_circuit.items():
        if len(counts) != 1:
            for name in names[bench]:
                ctx.tally.fail_job(name, "2Q count varies across relaxations")
