"""In-process compiles of a workload's jobs: the operations of the library
workloads, the reference a service run is checked against, and what
``run.py --record`` stores in expected.json."""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.baselines.registry import atomique_result
from repro.experiments import compile_on
from repro.experiments.batch import compile_many

from . import oracle, workloads
from .measure import nproc

SCRATCH = Path(__file__).resolve().parent / "out"


def compile_direct(job):
    """The job's metrics from ``compile_on`` in this process."""
    opts = job.job.options
    return compile_on(
        job.job.backend, job.circuit, raa=opts.raa, config=opts.config,
        seed=opts.seed,
    )


def compile_grid(jobs, prefix_dir):
    """The sweep's operation: the whole grid through one compile_many."""
    return compile_many(
        [j.job for j in jobs], workers=nproc(), prefix_cache=prefix_dir
    )


def outputs(workload: str, seed: int, size: str) -> dict[str, str]:
    """``{job name: output digest}`` computed in this process."""
    jobs = workloads.build(workload, seed, size)
    if workload == "sweep":
        with tempfile.TemporaryDirectory(dir=SCRATCH) as prefix:
            results = compile_grid(jobs, prefix)
        return {j.name: oracle.digest(m) for j, m in zip(jobs, results)}
    out = {}
    for job in jobs:
        program = None
        if workload == "service-program":
            program = atomique_result(job.circuit, job.job.options).program
        out[job.name] = oracle.digest(compile_direct(job), program)
    return out
