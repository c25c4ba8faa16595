"""Benchmark of the Atomique reproduction: one command, three workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (all closed loops from this one process; see manifest.json):

* ``flagship``        — back-to-back ``compile_on`` of six QAOA-rand-200s;
* ``sweep``           — back-to-back ``compile_many`` over a Fig. 22 grid;
* ``service-program`` — a real ``repro serve`` daemon receiving
  ``keep_program`` jobs whose programs are streamed back and re-fetched.

``--trace 0`` prints every end-to-end metric; ``--trace 1`` interleaves
untraced and traced operations and prints the per-layer ledger derived
from spans the benchmark records around each layer's public functions.
Every output is checked (see oracle.py); a wrong or missing output counts
as a failed operation.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

``--record`` writes the outputs of the given seeds to expected.json
instead of benchmarking.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import uuid
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: A run that has not finished by then is abandoned without a result.
WATCHDOG_SECONDS = 170

WORKLOADS = ("flagship", "sweep", "service-program")

#: (name, unit) of every end-to-end metric, in print order.
END_TO_END = (
    ("setup_s", "s"),
    ("latency_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "ratio"),
    ("num_2q_gates", "count"),
    ("two_qubit_depth", "count"),
    ("neg_log10_fidelity", "log10"),
    ("program_exec_s", "s"),
)

PASSES = ("lower", "array_mapper", "sabre_swap", "atom_mapper", "router")

#: Ledger layers: span name -> metric.  Their self times plus
#: ``unaccounted_s`` add up to ``trace.e2e_s``.
LEDGER = {
    **{name: f"{name}.s" for name in PASSES},
    "score": "score.s",
    "batch": "batch.self_s",
    "service.submit": "service.submit_s",
    "service.wait": "service.wait_s",
    "service.fetch": "service.fetch_s",
    "op": "unaccounted_s",
}

#: Spans outside any operation: span name -> metric (median duration).
PROBES = {
    "service.boot": "service.boot_s",
    "service.warm": "service.warm_s",
    "codec.encode": "codec.encode_s",
    "codec.decode": "codec.decode_s",
}

PER_LAYER = (
    *((m, "s") for m in LEDGER.values()),
    ("trace.e2e_s", "s"),
    ("trace.overhead_s", "s"),
    ("lower.native_gates", "count"),
    ("sabre_swap.swaps", "count"),
    ("router.stages", "count"),
    ("router.moves", "count"),
    ("router.gates_per_stage", "ratio"),
    ("router.overlap_rejections", "count"),
    ("batch.wall_s", "s"),
    ("batch.busy_s", "s"),
    ("batch.worker_util", "ratio"),
    ("prefix_cache.entries", "count"),
    ("prefix_cache.bytes", "bytes"),
    ("service.boot_s", "s"),
    ("service.warm_s", "s"),
    ("service.passes_s", "s"),
    ("service.overhead_s", "s"),
    ("service.program_bytes", "bytes"),
    ("service.binary_chunks", "count"),
    ("service.json_chunks", "count"),
    ("queue.spool_bytes", "bytes"),
    ("codec.encode_s", "s"),
    ("codec.decode_s", "s"),
    ("codec.bytes", "bytes"),
)


class Watchdog(Exception):
    pass


def _import_program() -> None:
    """Put the checkout's ``src`` and this package on the path; fail
    clearly when the program under test is not there."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"program under test not found: {ROOT / 'src' / 'repro'} is missing"
        )
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)


class Context:
    """State of one benchmark run, shared by the workload runners."""

    def __init__(self, args, jobs) -> None:
        from perfbench.ledger import Ledger
        from perfbench.oracle import Tally

        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.size = args.size
        self.trace = bool(args.trace)
        self.setup_repeats = 3 if args.size == "full" else 1
        self.jobs = jobs
        #: {job name: digest} of an in-process compile, when a runner has one
        self.reference: dict[str, str] | None = None
        self.run_id = uuid.uuid4().hex[:12]
        self.ledger = Ledger(self.run_id) if self.trace else None
        self.tally = Tally()
        self.outputs: dict[str, set[str]] = defaultdict(set)
        self.first: dict = {}
        self.counts: dict[str, float] = defaultdict(float)
        self.info: dict = {}
        self.errors: list[str] = []
        self._tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))

    # -- outputs ---------------------------------------------------------

    def record(self, name: str, metrics, program=None) -> str:
        """One successful op on job *name*; keeps its output digest."""
        from perfbench.oracle import digest

        d = digest(metrics, program)
        self.outputs[name].add(d)
        self.first.setdefault(name, metrics)
        self.tally.op(name)
        return d

    @contextmanager
    def guard(self, *names: str):
        """An op on *names* that raises counts as failed, not fatal."""
        try:
            yield
        except Watchdog:
            raise
        except Exception as exc:
            for name in names:
                self.tally.op(name, ok=False)
            self.tally.notes.append(f"{names[0]}: {type(exc).__name__}: {exc}")

    def first_outputs(self) -> dict:
        return {j.name: self.first[j.name] for j in self.jobs if j.name in self.first}

    def count(self, name: str, value: float) -> None:
        self.counts[name] += float(value)

    def tmpdir(self) -> Path:
        return Path(tempfile.mkdtemp(dir=self._tmp))

    def cleanup(self) -> None:
        shutil.rmtree(self._tmp, ignore_errors=True)

    # -- set-up probes ----------------------------------------------------

    def setup_probes(self) -> list[float]:
        """Set-up seconds measured in fresh interpreters: process start ->
        inputs ready."""
        setups = []
        for _ in range(self.setup_repeats):
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "run.py"), "--probe-setup",
                 "--workload", self.workload, "--seed", str(self.seed),
                 "--size", self.size],
                cwd=ROOT, stdout=subprocess.PIPE, text=True,
            )
            try:
                ready = proc.stdout.readline().strip()
                setups.append(time.perf_counter() - t0)
            finally:
                proc.stdout.close()
                proc.wait(timeout=60)
            if ready != "ready" or proc.returncode != 0:
                raise RuntimeError("set-up probe did not report ready")
        return setups

    # -- traced-run ledger ------------------------------------------------

    def layer_report(self, plain: list[float]) -> dict[str, float]:
        """Per-layer metrics from the spans; *plain* holds the untraced
        op latencies the traced ones are compared with."""
        from perfbench.measure import median

        ops, e2e, by_name = self.ledger.totals("op")
        out = {name: 0.0 for name, _unit in PER_LAYER}
        unknown = set(by_name) - set(LEDGER)
        if unknown:
            self.errors.append(f"spans outside the ledger: {sorted(unknown)}")
        for span_name, metric in LEDGER.items():
            out[metric] = by_name.get(span_name, 0.0) / ops
        out["trace.e2e_s"] = e2e / ops
        out["trace.overhead_s"] = e2e / ops - sum(plain) / len(plain)
        for name, total in self.counts.items():
            out[name] = total / ops
        for span_name, metric in PROBES.items():
            durations = self.ledger.durations(span_name)
            if durations:
                out[metric] = median(durations)
        ledger_sum = sum(out[m] for m in LEDGER.values())
        if abs(ledger_sum - out["trace.e2e_s"]) > 1e-9 * max(1.0, out["trace.e2e_s"]):
            self.errors.append(
                f"layer self times sum to {ledger_sum!r}, "
                f"traced end-to-end is {out['trace.e2e_s']!r}"
            )
        self.info["traced_ops"] = ops
        self.info["untraced_ops"] = len(plain)
        return out


def _runner(workload: str):
    if workload in ("flagship", "sweep"):
        from perfbench import library

        return getattr(library, workload)
    from perfbench import service

    return service.program


def benchmark(args) -> dict:
    from perfbench import oracle, workloads
    from perfbench.measure import host_fingerprint

    expected_table = oracle.load_expected(Path(args.expected))
    expected = oracle.expected_for(
        expected_table, args.workload, args.size, args.seed
    )
    jobs = workloads.build(args.workload, args.seed, args.size)
    ctx = Context(args, jobs)
    try:
        metrics = _runner(args.workload)(ctx)
        for job in jobs:
            if job.name not in ctx.outputs:
                ctx.tally.op(job.name, ok=False)
                ctx.tally.notes.append(f"{job.name}: no output")
        # Each op has one output; it must match every other op of the same
        # job, the recorded one, and (service) the in-process compile.
        oracle.check_outputs(
            ctx.tally, ctx.outputs, expected, ctx.reference
        )
    finally:
        if ctx.ledger is not None:
            ctx.ledger.dump(
                OUT / f"trace-{args.workload}-s{args.seed}-{ctx.run_id}.jsonl"
            )
        ctx.cleanup()
    attempted = max(1, ctx.tally.attempted)
    failed = ctx.tally.failed if ctx.tally.attempted else 1
    if not ctx.trace:
        metrics["success_rate"] = 1.0 - failed / attempted
        names = END_TO_END
    else:
        names = PER_LAYER
    missing = [n for n, _u in names if n not in metrics]
    if missing:
        ctx.errors.append(f"metrics not measured: {missing}")
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": int(ctx.trace),
        "expected_checked": expected is not None,
        "host": host_fingerprint(),
        **ctx.info,
        "errors": ctx.errors,
        "notes": ctx.tally.notes[:20],
    }
    print(json.dumps({"info": info}))
    return {
        "correct": failed == 0 and not ctx.errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            n: {"value": float(metrics.get(n, 0.0)), "unit": u} for n, u in names
        },
    }


def record(args) -> None:
    """Write the in-process outputs of ``--record`` seeds to expected.json."""
    from perfbench import oracle, recording

    path = Path(args.expected)
    table = oracle.load_expected(path)
    lo, _, hi = args.record.partition("-")
    for seed in range(int(lo), int(hi or lo) + 1):
        key = f"{args.workload}/{args.size}"
        table.setdefault(key, {})[str(seed)] = recording.outputs(
            args.workload, seed, args.size
        )
        print(f"recorded {key} seed {seed}", file=sys.stderr)
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs, for the benchmark's own tests")
    parser.add_argument("--expected", default=str(HERE / "expected.json"),
                        help="expected-output file to check against")
    parser.add_argument("--record", metavar="SEED[-SEED]",
                        help="record expected outputs for these seeds instead")
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_program()
    os.chdir(ROOT)
    OUT.mkdir(exist_ok=True)
    if args.probe_setup:
        from perfbench import workloads

        workloads.build(args.workload, args.seed, args.size)
        print("ready", flush=True)
        return 0
    if args.record:
        record(args)
        return 0

    def on_alarm(signum, frame):
        raise Watchdog(f"run exceeded {WATCHDOG_SECONDS} s")

    def on_term(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGALRM, on_alarm)
    signal.signal(signal.SIGTERM, on_term)
    signal.alarm(WATCHDOG_SECONDS)
    try:
        result = benchmark(args)
    finally:
        signal.alarm(0)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
