"""Router compile-speed benchmark harness (``python -m repro bench --perf``).

Times end-to-end routing (:meth:`HighParallelismRouter.route`) on the
Table II generator suite at 50+ qubit scale and writes ``BENCH_router.json``
so successive PRs can track the compile-time trajectory.

Each entry runs the full pipeline once (array mapping, SABRE, atom mapping)
to obtain the transpiled circuit and locations, then times the router alone
with a min-of-N protocol (N repeats, best wall-clock kept) — the router is
the compile-time hot path this harness guards.

``SEED_ROUTER_SECONDS`` records the pre-refactor (seed) router under the
same protocol on the reference dev machine, so the emitted speedups compare
the incremental constraint engine against the snapshot/rebuild baseline.
On other machines the absolute times shift but the ratios stay indicative;
re-baseline by rerunning the seed commit with this same protocol.
"""

from __future__ import annotations

import datetime
import json
import os
import statistics
import subprocess
import time
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

DEFAULT_OUTPUT = "BENCH_router.json"

#: Every ``--perf`` run appends one timestamped record here (commit,
#: machine fingerprint, per-workload timings) — the snapshot view in
#: ``BENCH_router.json`` keeps only the latest run, the trajectory file
#: accumulates the history.  Resolved relative to the report's directory.
TRAJECTORY_RELPATH = Path("benchmarks") / "results" / "trajectory.jsonl"

#: Seed-router wall-clock (seconds, min-of-9) measured at the seed commit
#: with this file's protocol on the reference dev machine.
SEED_ROUTER_SECONDS: dict[str, float] = {
    "QAOA-rand-50": 0.203912,
    "QAOA-rand-100": 1.223197,
    "QAOA-rand-200": 7.205349,
    "QAOA-regu5-40": 0.020069,
    "QAOA-regu6-100": 0.101698,
    "QAOA-regu6-200": 0.526207,
    "QSim-rand-40": 0.047898,
    "QSim-rand-50": 0.051641,
    "QSim-rand-100": 0.133746,
    "BV-50": 0.002050,
    "BV-70": 0.003270,
}

#: Emission-phase wall-clock (seconds, min-of-N) at the PR 4 commit — the
#: object-graph emitter this PR's columnar ProgramStore replaced.  The
#: window is the router's *record-keeping* blocks only: Raman-pulse /
#: Move / RydbergGate / cooling record creation, the heating+loss history,
#: and the stage close — constraint search and DAG bookkeeping (front
#: scans, ``execute``) excluded.  Measured on the reference dev machine by
#: instrumenting the pre-columnar route() with this exact window; the
#: current router reports the same window as ``ProgramStore.emit_seconds``.
PR3_EMIT_SECONDS: dict[str, float] = {
    "QAOA-rand-50": 0.014784,
    "QAOA-rand-100": 0.068051,
    "QAOA-rand-200": 0.400269,
    "QAOA-regu5-40": 0.001658,
    "QAOA-regu6-100": 0.006731,
    "QAOA-regu6-200": 0.019950,
    "QSim-rand-40": 0.006440,
    "QSim-rand-50": 0.008218,
    "QSim-rand-100": 0.021240,
    "BV-50": 0.000430,
    "BV-70": 0.000603,
}

#: SABRE pass wall-clock at the PR 2 commit (the pre-incremental-scoring
#: baseline, from that revision's BENCH_router.json ``pass_seconds``), so
#: the SABRE trajectory is tracked alongside the router's.
PR2_SABRE_SECONDS: dict[str, float] = {
    "QAOA-rand-50": 0.149801,
    "QAOA-rand-100": 1.074444,
    "QAOA-rand-200": 8.758710,
    "QAOA-regu5-40": 0.018411,
    "QAOA-regu6-100": 0.265486,
    "QAOA-regu6-200": 1.746363,
    "QSim-rand-40": 0.023431,
    "QSim-rand-50": 0.042937,
    "QSim-rand-100": 0.223162,
    "BV-50": 0.021422,
    "BV-70": 0.054201,
}


#: Router wall-clock (seconds, this file's protocol) at the PR 6 commit
#: (router unchanged since PR 5) — the pre-pruning router this PR's
#: index-side candidate pruning, vectorized batch probe, and 1Q worklist
#: are measured against.  Re-measured at the PR 6 commit on the current
#: reference machine because the machine slowed ~1.35x after the original
#: PR 5 recording (that recording's QAOA-rand-200 was 0.864s; the same
#: commit now measures 1.164s), so only a same-host re-baseline keeps
#: ``probe_speedup_vs_pr5`` honest.  On other machines the absolute times
#: shift but the ratio stays indicative (re-baseline by rerunning the
#: PR 6 commit with this protocol).
PR5_ROUTER_SECONDS: dict[str, float] = {
    "QAOA-rand-50": 0.048724,
    "QAOA-rand-100": 0.226216,
    "QAOA-rand-200": 1.163988,
    "QAOA-regu5-40": 0.012216,
    "QAOA-regu6-100": 0.025022,
    "QAOA-regu6-200": 0.090958,
    "QSim-rand-40": 0.014162,
    "QSim-rand-50": 0.017198,
    "QSim-rand-100": 0.054281,
    "BV-50": 0.001225,
    "BV-70": 0.001385,
}


def codec_timings(program, repeats: int = 3) -> dict:
    """Min-of-N encode+decode wall-clock of both program codecs.

    ``v2`` is the JSON text round trip (``program_to_dict`` → ``dumps`` →
    ``loads`` → ``program_from_dict``); ``v3`` the binary columnar round
    trip (:func:`repro.core.binformat.encode_program` / ``decode_program``).
    Both sides decode all the way back to a live store, so the ratio is
    the end-to-end result-path cost a service transfer pays.
    """
    from .core import binformat
    from .core.serialize import program_from_dict, program_to_dict

    best_v2 = best_v3 = float("inf")
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        text = json.dumps(program_to_dict(program))
        program_from_dict(json.loads(text))
        best_v2 = min(best_v2, time.perf_counter() - t0)
        t0 = time.perf_counter()
        binformat.decode_program(binformat.encode_program(program))
        best_v3 = min(best_v3, time.perf_counter() - t0)
    return {
        "v2": round(best_v2, 6),
        "v3": round(best_v3, 6),
        "speedup": round(best_v2 / best_v3, 3) if best_v3 else None,
    }


def _machine_fingerprint() -> dict:
    import platform

    return {
        "host": platform.node(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
    }


def _git_commit() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=Path(__file__).resolve().parent,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    commit = proc.stdout.strip()
    return commit if proc.returncode == 0 and commit else None


def append_trajectory(report: dict, output: Path) -> Path | None:
    """Append one timestamped record of *report* to the trajectory file.

    The record carries the commit, a machine fingerprint, the report's
    median speedups, and the per-workload timing columns — enough to
    reconstruct every trajectory plot without keeping old snapshots.
    Returns the path written, or None when the append failed (a perf run
    must not die on a read-only checkout)."""
    path = output.resolve().parent / TRAJECTORY_RELPATH
    record = {
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "commit": _git_commit(),
        "machine": _machine_fingerprint(),
        "medians": {
            key: value
            for key, value in report.items()
            if key.startswith("median_")
        },
        "workloads": {
            row["name"]: {
                "router_seconds": row["router_seconds"],
                "emit_seconds": row["emit_seconds"],
                "probe_seconds": row["probe_seconds"],
                "sabre_seconds": row["sabre_seconds"],
                "codec_seconds": row["codec_seconds"],
            }
            for row in report["results"]
        },
    }
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    except OSError:
        return None
    return path


@dataclass(frozen=True)
class BenchSpec:
    """One benchmark entry: display name and a circuit factory."""

    name: str
    factory: Callable[[], "object"]
    repeats: int = 5


def bench_suite() -> list[BenchSpec]:
    """The 50+ qubit Table II generator suite (plus scaled-up instances)."""
    from .generators import qaoa_random, qaoa_regular, qsim_random
    from .generators.algorithms import bernstein_vazirani

    # Sub-10ms workloads run min-of-9 — their emission window is
    # sub-millisecond, so min-of-5 is noise-bound — matching the protocol
    # the seed router baseline itself was recorded with (min-of-9), so
    # speedup_vs_seed stays apples-to-apples.  The PR 3 emission baselines
    # for these entries were recorded with >= as many repeats (min-of-9 or
    # min-of-15), which can only understate emit_speedup_vs_pr3.
    return [
        BenchSpec("QAOA-rand-50", lambda: qaoa_random(50, seed=50)),
        BenchSpec("QAOA-rand-100", lambda: qaoa_random(100, seed=100), repeats=3),
        BenchSpec("QAOA-rand-200", lambda: qaoa_random(200, seed=200), repeats=2),
        BenchSpec("QAOA-regu5-40", lambda: qaoa_regular(40, 5, seed=40), repeats=9),
        BenchSpec("QAOA-regu6-100", lambda: qaoa_regular(100, 6, seed=100)),
        BenchSpec(
            "QAOA-regu6-200", lambda: qaoa_regular(200, 6, seed=200), repeats=3
        ),
        BenchSpec("QSim-rand-40", lambda: qsim_random(40, seed=40), repeats=9),
        BenchSpec("QSim-rand-50", lambda: qsim_random(50, seed=50), repeats=9),
        BenchSpec("QSim-rand-100", lambda: qsim_random(100, seed=100), repeats=3),
        BenchSpec("BV-50", lambda: bernstein_vazirani(50), repeats=9),
        BenchSpec("BV-70", lambda: bernstein_vazirani(70), repeats=9),
    ]


def bench_router(
    specs: list[BenchSpec] | None = None,
    output: str | Path | None = DEFAULT_OUTPUT,
) -> dict:
    """Run the router benchmark; return (and optionally write) the report."""
    from .core import AtomiqueCompiler, AtomiqueConfig
    from .core.pipeline import CompilationContext, LowerToNativePass, SabreSwapPass
    from .core.router import HighParallelismRouter
    from .experiments import raa_for

    specs = specs if specs is not None else bench_suite()
    rows = []
    for spec in specs:
        circuit = spec.factory()
        raa = raa_for(circuit)
        compiler = AtomiqueCompiler(raa, AtomiqueConfig(seed=7))
        result = compiler.compile(circuit)
        best = float("inf")
        best_emit = float("inf")
        best_probe = float("inf")
        best_sabre = result.pass_seconds["sabre_swap"]
        # The SABRE pass rerun alone on the compile's own inputs to it.
        sabre_context = CompilationContext(
            circuit,
            result.architecture,
            compiler.config,
            array_of_qubit=result.array_of_qubit,
        )
        LowerToNativePass().run(sabre_context)
        for _ in range(max(1, spec.repeats)):
            t0 = time.perf_counter()
            SabreSwapPass().run(sabre_context)
            best_sabre = min(best_sabre, time.perf_counter() - t0)
            # A fresh router per repeat, constructed inside the timed
            # region, keeps every measurement cold: the router now persists
            # its location-epoch caches (site cache, LocationIndex) across
            # route() calls, while the recorded seed baseline rebuilt them
            # per call.  Timing construction too is slightly conservative.
            t0 = time.perf_counter()
            router = HighParallelismRouter(
                result.architecture, result.locations, compiler.config.router
            )
            program = router.route(result.transpiled)
            best = min(best, time.perf_counter() - t0)
            best_emit = min(best_emit, program.emit_seconds)
            best_probe = min(best_probe, program.probe_seconds)
        codec = codec_timings(program)
        seed_s = SEED_ROUTER_SECONDS.get(spec.name)
        pr5_router = PR5_ROUTER_SECONDS.get(spec.name)
        pr2_sabre = PR2_SABRE_SECONDS.get(spec.name)
        pr3_emit = PR3_EMIT_SECONDS.get(spec.name)
        rows.append(
            {
                "name": spec.name,
                "qubits": circuit.num_qubits,
                "stages": len(program.stages),
                "two_qubit_gates": program.num_2q_gates,
                "router_seconds": round(best, 6),
                "seed_router_seconds": seed_s,
                "speedup_vs_seed": round(seed_s / best, 3) if seed_s else None,
                # constraint-probe trajectory: the router's candidate-probe
                # window (ProgramStore.probe_seconds: the _select_gates
                # place_pair scan), plus the whole-router-pass speedup over
                # the pre-pruning PR 5/6 recording
                "probe_seconds": round(best_probe, 6),
                "pr5_router_seconds": pr5_router,
                "probe_speedup_vs_pr5": (
                    round(pr5_router / best, 3) if pr5_router else None
                ),
                # emission-phase trajectory: the router's record-keeping
                # window (ProgramStore.emit_seconds) vs the PR 3/4-era
                # object-graph emitter measured with the same window
                "emit_seconds": round(best_emit, 6),
                "pr3_emit_seconds": pr3_emit,
                "emit_speedup_vs_pr3": (
                    round(pr3_emit / best_emit, 3)
                    if best_emit and pr3_emit
                    else None
                ),
                # SABRE trajectory: min over the compile and N reruns of
                # the pass, vs the pre-incremental-scoring recording of
                # the same pass (PR2_SABRE_SECONDS)
                "sabre_seconds": round(best_sabre, 6),
                "pr2_sabre_seconds": pr2_sabre,
                "sabre_speedup_vs_pr2": (
                    round(pr2_sabre / best_sabre, 3) if pr2_sabre else None
                ),
                # program-codec trajectory: min-of-N encode+decode round
                # trip of this workload's compiled program, JSON v2 vs
                # binary columnar v3 (both back to a live store)
                "codec_seconds": codec,
                # one full-pipeline compile, per-pass (pipeline instrumentation)
                "pass_seconds": {
                    name: round(seconds, 6)
                    for name, seconds in result.pass_seconds.items()
                },
            }
        )
    speedups = [r["speedup_vs_seed"] for r in rows if r["speedup_vs_seed"]]
    sabre_speedups = [
        r["sabre_speedup_vs_pr2"] for r in rows if r["sabre_speedup_vs_pr2"]
    ]
    emit_speedups = [
        r["emit_speedup_vs_pr3"] for r in rows if r["emit_speedup_vs_pr3"]
    ]
    probe_speedups = [
        r["probe_speedup_vs_pr5"] for r in rows if r["probe_speedup_vs_pr5"]
    ]
    codec_speedups = [
        r["codec_seconds"]["speedup"]
        for r in rows
        if r["codec_seconds"]["speedup"]
    ]
    report = {
        "protocol": "min wall-clock over N repeats of cold router "
        "construction + route() on the pre-transpiled circuit (a fresh "
        "router per repeat — the router caches location-epoch artifacts "
        "across calls since PR 3); seed baseline measured identically at "
        "the seed commit; sabre_seconds is the min over the SABRE pass of "
        "one full-pipeline compile and N reruns of that pass on the same "
        "inputs, vs the pre-incremental-scoring recording "
        "(pr2_sabre_seconds); emit_seconds is the "
        "router's record-keeping window (ProgramStore.emit_seconds: pulse/"
        "move/gate/cooling record emission + heating/loss history + stage "
        "close, DAG bookkeeping and constraint search excluded) vs the "
        "object-graph emitter measured with the same window at PR 4; "
        "probe_seconds is the candidate-probe window (the _select_gates "
        "place_pair scan) and probe_speedup_vs_pr5 the whole-router-pass "
        "speedup over the pre-pruning PR 5/6 recording; codec_seconds is "
        "the min-of-N encode+decode round trip of the compiled program, "
        "JSON v2 (dumps+loads via program_to_dict/from_dict) vs binary "
        "columnar v3 (binformat.encode_program/decode_program), both "
        "decoding back to a live store",
        "median_speedup_vs_seed": (
            round(statistics.median(speedups), 3) if speedups else None
        ),
        "median_sabre_speedup_vs_pr2": (
            round(statistics.median(sabre_speedups), 3) if sabre_speedups else None
        ),
        "median_emit_speedup_vs_pr3": (
            round(statistics.median(emit_speedups), 3) if emit_speedups else None
        ),
        "median_probe_speedup_vs_pr5": (
            round(statistics.median(probe_speedups), 3) if probe_speedups else None
        ),
        "median_codec_speedup": (
            round(statistics.median(codec_speedups), 3) if codec_speedups else None
        ),
        "results": rows,
    }
    if output is not None:
        Path(output).write_text(json.dumps(report, indent=2) + "\n")
        append_trajectory(report, Path(output))
    return report


def format_report(report: dict) -> str:
    """Human-readable table of a :func:`bench_router` report."""
    lines = [
        f"{'benchmark':18s} {'qubits':>6s} {'stages':>6s} "
        f"{'router ms':>10s} {'seed ms':>9s} {'speedup':>8s} "
        f"{'sabre ms':>9s} {'vs PR2':>8s} {'emit ms':>8s} {'vs PR3':>8s} "
        f"{'probe ms':>9s} {'vs PR5':>8s}"
    ]
    for r in report["results"]:
        seed_ms = (
            f"{r['seed_router_seconds'] * 1e3:9.1f}"
            if r["seed_router_seconds"]
            else "      n/a"
        )
        speedup = (
            f"{r['speedup_vs_seed']:7.2f}x" if r["speedup_vs_seed"] else "     n/a"
        )
        sabre_ms = (
            f"{r['sabre_seconds'] * 1e3:9.1f}" if r.get("sabre_seconds") else "      n/a"
        )
        sabre_speedup = (
            f"{r['sabre_speedup_vs_pr2']:7.2f}x"
            if r.get("sabre_speedup_vs_pr2")
            else "     n/a"
        )
        emit_ms = (
            f"{r['emit_seconds'] * 1e3:8.2f}" if r.get("emit_seconds") else "     n/a"
        )
        emit_speedup = (
            f"{r['emit_speedup_vs_pr3']:7.2f}x"
            if r.get("emit_speedup_vs_pr3")
            else "     n/a"
        )
        probe_ms = (
            f"{r['probe_seconds'] * 1e3:9.2f}"
            if r.get("probe_seconds") is not None
            else "      n/a"
        )
        probe_speedup = (
            f"{r['probe_speedup_vs_pr5']:7.2f}x"
            if r.get("probe_speedup_vs_pr5")
            else "     n/a"
        )
        lines.append(
            f"{r['name']:18s} {r['qubits']:6d} {r['stages']:6d} "
            f"{r['router_seconds'] * 1e3:10.1f} {seed_ms} {speedup} "
            f"{sabre_ms} {sabre_speedup} {emit_ms} {emit_speedup} "
            f"{probe_ms} {probe_speedup}"
        )
    lines.append(f"median speedup vs seed: {report['median_speedup_vs_seed']}x")
    lines.append(
        "median sabre speedup vs PR2: "
        f"{report['median_sabre_speedup_vs_pr2']}x"
    )
    lines.append(
        "median emit speedup vs PR3: "
        f"{report['median_emit_speedup_vs_pr3']}x"
    )
    lines.append(
        "median router speedup vs PR5: "
        f"{report['median_probe_speedup_vs_pr5']}x"
    )
    lines.append(
        "median codec speedup (binary v3 vs JSON v2): "
        f"{report['median_codec_speedup']}x"
    )
    return "\n".join(lines)
