"""Command-line interface: ``python -m repro <command>``.

Commands
--------
compile   compile an OpenQASM 2.0 file for an RAA and print metrics
          (optionally dump the stage program as JSON)
compare   compile a QASM file on all five architectures (mini Fig. 13)
bench     print Table II statistics for the built-in benchmark suites
serve     run the compile-service daemon (async job queue over
          ``compile_many`` with sharded workers and on-disk caches);
          ``--faults`` arms a chaos fault-injection plan; ``--farm``
          joins a multi-daemon compile farm on a shared ``--spool``
          (shard leases, takeover, work-stealing)
gateway   run the HTTP/REST front door for a daemon (stdlib server;
          token auth + submit quotas via ``--auth-file``)
submit    send a QASM file to a running daemon, optionally waiting for
          and printing the resulting metrics; ``--timeout`` and
          ``--max-retries`` bound the daemon-side attempts;
          ``--priority``/``--deadline`` shape queue order and
          ``--fetch-program`` saves the compiled stage program
jobs      list a daemon's jobs; ``--failed`` shows only dead-letter
          entries with their attempt counts and last errors; ``--stats``
          appends the robustness counters (quarantined spool files,
          dead letters, per-shard lease owners, steals)
cache     inspect or garbage-collect an on-disk cache directory
          (pipeline prefix caches and result caches share one layout)
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


def _load_circuit(path: str):
    from .circuits import parse_qasm

    text = Path(path).read_text()
    return parse_qasm(text, name=Path(path).stem)


def cmd_compile(args: argparse.Namespace) -> int:
    from .core import AtomiqueCompiler
    from .core.serialize import dumps
    from .hardware import RAAArchitecture
    from .noise import estimate_raa_fidelity

    circuit = _load_circuit(args.qasm)
    arch = RAAArchitecture.default(side=args.side, num_aods=args.aods)
    result = AtomiqueCompiler(arch).compile(circuit)
    fidelity = estimate_raa_fidelity(result.program, arch.params)
    print(f"circuit          : {circuit.name} ({circuit.num_qubits} qubits)")
    print(f"2Q gates         : {result.num_2q_gates}")
    print(f"2Q depth         : {result.depth}")
    print(f"SWAPs inserted   : {result.num_swaps}")
    print(f"fidelity         : {fidelity.total:.4f}")
    print(f"execution time   : {result.execution_time() * 1e3:.2f} ms")
    print(f"compile time     : {result.compile_seconds * 1e3:.1f} ms")
    for name, seconds in result.pass_seconds.items():
        print(f"  pass {name:<12s} : {seconds * 1e3:.1f} ms")
    if args.output:
        Path(args.output).write_text(dumps(result.program, indent=2))
        print(f"stage program written to {args.output}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from .analysis import format_table
    from .baselines.registry import CompileOptions
    from .experiments import ARCHITECTURES, CompileJob, compile_many, raa_for

    circuit = _load_circuit(args.qasm)
    jobs = [
        CompileJob(
            arch,
            circuit,
            CompileOptions(raa=raa_for(circuit) if arch == "Atomique" else None),
        )
        for arch in ARCHITECTURES
    ]
    metrics = compile_many(jobs, workers=args.jobs)
    print(format_table([m.row() for m in metrics]))
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from .analysis import format_table
    from .experiments import benchmark_statistics

    print(format_table(benchmark_statistics()))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from .service import serve_forever

    fault_spec = args.faults
    if fault_spec and fault_spec.startswith("@"):
        fault_spec = Path(fault_spec[1:]).read_text()
    return serve_forever(
        socket_path=args.socket,
        host=args.host,
        port=args.port,
        spool_dir=args.spool,
        shards=args.shards,
        prefix_cache_dir=args.prefix_cache,
        result_cache_dir=args.result_cache,
        inline=args.inline,
        lease_seconds=args.lease,
        fault_spec=fault_spec,
        farm=args.farm,
        node=args.node,
        workers=args.workers,
        shard_lease_seconds=args.shard_lease,
    )


def cmd_gateway(args: argparse.Namespace) -> int:
    from .service import serve_gateway

    return serve_gateway(
        socket_path=args.daemon_socket,
        daemon_host=args.daemon_host,
        daemon_port=args.daemon_port,
        host=args.host,
        port=args.port,
        auth_file=args.auth_file,
        anonymous_quota=args.anonymous_quota,
    )


def cmd_submit(args: argparse.Namespace) -> int:
    from .analysis import format_table
    from .baselines.registry import CompileOptions
    from .experiments import CompileJob, raa_for
    from .service import ServiceClient

    backends = args.backend or ["Atomique"]
    if args.fetch_program and backends != ["Atomique"]:
        print(
            "--fetch-program captures Atomique stage programs only "
            "(submit exactly one Atomique job)",
            file=sys.stderr,
        )
        return 2
    circuit = _load_circuit(args.qasm)
    client = ServiceClient(
        socket_path=args.socket, host=args.host, port=args.port
    )
    job_ids: list[str] = []
    for backend in backends:
        raa = raa_for(circuit) if backend == "Atomique" else None
        job = CompileJob(
            backend, circuit, CompileOptions(raa=raa, seed=args.seed)
        )
        key = f"{args.key}:{backend}" if args.key else None
        job_id = client.submit(
            job,
            timeout=args.timeout,
            max_retries=args.max_retries,
            key=key,
            priority=args.priority,
            deadline=args.deadline,
            keep_program=bool(args.fetch_program),
        )
        job_ids.append(job_id)
        print(f"submitted {job_id} ({backend})")
    if args.stream:
        # One streaming connection per job: per-pass progress lines as the
        # daemon reports them, then metrics (and the program, chunked over
        # binary frames, when --fetch-program asked for it).
        def show(event: dict) -> None:
            print(
                f"  [{event.get('index')}/{event.get('total')}] "
                f"{event.get('pass')} ({event.get('seconds', 0.0):.3f}s)"
            )

        rows = []
        program = None
        for job_id in job_ids:
            metrics, store = client.result_stream(job_id, on_event=show)
            rows.append(metrics.row())
            if program is None:
                program = store
        print(format_table(rows))
        if args.fetch_program:
            from .core.serialize import dumps

            if program is None:  # the job's program capture was lost
                print("the daemon streamed no program", file=sys.stderr)
                return 1
            Path(args.fetch_program).write_text(dumps(program, indent=2))
            print(f"stage program written to {args.fetch_program}")
        return 0
    if args.wait or args.fetch_program:
        rows = [m.row() for m in client.results(job_ids)]
        print(format_table(rows))
    if args.fetch_program:
        from .core.serialize import dumps

        program = client.program(job_ids[0])
        Path(args.fetch_program).write_text(dumps(program, indent=2))
        print(f"stage program written to {args.fetch_program}")
    return 0


def cmd_jobs(args: argparse.Namespace) -> int:
    from .service import ServiceClient

    client = ServiceClient(
        socket_path=args.socket, host=args.host, port=args.port
    )
    records = client.jobs()
    if args.failed:
        records = [r for r in records if r.get("state") == "failed"]
    if not records:
        print("no failed jobs" if args.failed else "no jobs")
    for record in records:
        line = (
            f"{record['id']}  {record['state']:<9s} "
            f"{record.get('backend', '?'):<12s} "
            f"{record.get('benchmark', '?'):<20s} "
            f"attempts={record.get('attempts', 0)}/"
            f"{record.get('max_retries', '?')}"
        )
        print(line)
        error = record.get("error")
        if error:
            # dead-letter detail: the last error, indented under the row
            for errline in str(error).strip().splitlines():
                print(f"    {errline}")
    if args.stats:
        stats = client.stats()
        print("-- robustness --")
        print(f"node               : {stats.get('node', '?')}")
        print(f"quarantined spool  : {stats.get('quarantined_spool_files', 0)}")
        print(f"dead-lettered      : {stats.get('dead_lettered', 0)}")
        print(f"retried jobs       : {stats.get('retried_jobs', 0)}")
        print(f"steals             : {stats.get('steals', 0)}")
        print(
            f"shards claimed/lost: {stats.get('shards_claimed', 0)}"
            f"/{stats.get('shards_lost', 0)}"
        )
        leases = stats.get("shard_leases")
        if leases:
            for row in leases:
                owner = row.get("owner") or "-"
                age = row.get("lease_age")
                flag = " EXPIRED" if row.get("expired") else ""
                print(
                    f"  shard {row['shard']:>3d}: owner={owner} "
                    f"epoch={row.get('epoch', 0)} "
                    f"lease_age={age if age is None else f'{age:.1f}s'}"
                    f"{flag}"
                )
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    from .core.pipeline import cache_clear, cache_stats, evict_lru

    if args.action == "stats":
        stats = cache_stats(args.directory)
        print(f"directory    : {stats['directory']}")
        print(f"entries      : {stats['entries']}")
        print(f"total bytes  : {stats['total_bytes']}")
        if stats["oldest_mtime"] is not None:
            from datetime import datetime

            def fmt(ts: float) -> str:
                return datetime.fromtimestamp(ts).isoformat(
                    sep=" ", timespec="seconds"
                )

            print(f"oldest entry : {fmt(stats['oldest_mtime'])}")
            print(f"newest entry : {fmt(stats['newest_mtime'])}")
        return 0
    if args.action == "gc":
        if args.max_bytes is None:
            print("cache gc requires --max-bytes", file=sys.stderr)
            return 2
        report = evict_lru(args.directory, args.max_bytes)
        print(
            f"evicted {report['removed']} entries "
            f"({report['removed_bytes']} bytes); "
            f"{report['remaining_bytes']} bytes remain"
        )
        return 0
    removed = cache_clear(args.directory)
    print(f"cleared {removed} entries from {args.directory}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Atomique: quantum compiler for reconfigurable atom arrays",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compile = sub.add_parser("compile", help="compile a QASM file for an RAA")
    p_compile.add_argument("qasm", help="OpenQASM 2.0 input file")
    p_compile.add_argument("--side", type=int, default=10, help="array side")
    p_compile.add_argument("--aods", type=int, default=2, help="number of AODs")
    p_compile.add_argument(
        "-o", "--output", help="write the stage program (v2 JSON) here"
    )
    p_compile.set_defaults(func=cmd_compile)

    p_compare = sub.add_parser(
        "compare", help="compile on all five architectures"
    )
    p_compare.add_argument("qasm", help="OpenQASM 2.0 input file")
    p_compare.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="compile the architectures on N worker processes",
    )
    p_compare.set_defaults(func=cmd_compare)

    p_bench = sub.add_parser("bench", help="print Table II suite statistics")
    p_bench.set_defaults(func=cmd_bench)

    p_serve = sub.add_parser(
        "serve", help="run the compile-service daemon"
    )
    p_serve.add_argument(
        "--socket", help="listen on this Unix socket path (default: TCP)"
    )
    p_serve.add_argument("--host", default="127.0.0.1", help="TCP bind host")
    p_serve.add_argument(
        "--port", type=int, default=0, help="TCP port (0 picks a free one)"
    )
    p_serve.add_argument(
        "--spool", help="persist the job queue and results in this directory"
    )
    p_serve.add_argument(
        "--shards", type=int, default=2, help="number of worker processes"
    )
    p_serve.add_argument(
        "--prefix-cache",
        help="disk-backed pipeline prefix cache directory (shared by shards "
        "and across daemon restarts)",
    )
    p_serve.add_argument(
        "--result-cache",
        help="on-disk whole-result cache directory (repeat submissions skip "
        "recompilation)",
    )
    p_serve.add_argument(
        "--inline",
        action="store_true",
        help="run jobs in the server process instead of worker shards",
    )
    p_serve.add_argument(
        "--lease",
        type=float,
        default=30.0,
        help="job lease duration in seconds (heartbeats extend it; an "
        "expired lease requeues the job)",
    )
    p_serve.add_argument(
        "--faults",
        help="chaos testing: a JSON fault-plan spec (or @file), see "
        "repro.service.faults",
    )
    p_serve.add_argument(
        "--farm",
        action="store_true",
        help="join a multi-daemon compile farm on the shared --spool "
        "(shard-ownership leases, dead-daemon takeover, work-stealing)",
    )
    p_serve.add_argument(
        "--node",
        help="farm node name (must be unique per daemon; default: "
        "daemon-<pid>)",
    )
    p_serve.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes per daemon (default: --shards, or 2 in "
        "--farm mode where shards outnumber daemons)",
    )
    p_serve.add_argument(
        "--shard-lease",
        type=float,
        default=10.0,
        help="farm shard-lease duration in seconds (a daemon that stops "
        "renewing loses its shards to peers)",
    )
    p_serve.set_defaults(func=cmd_serve)

    p_gateway = sub.add_parser(
        "gateway", help="run the HTTP/REST front door for a daemon"
    )
    p_gateway.add_argument(
        "--daemon-socket", help="daemon Unix socket path (default: TCP)"
    )
    p_gateway.add_argument(
        "--daemon-host", default="127.0.0.1", help="daemon TCP host"
    )
    p_gateway.add_argument(
        "--daemon-port", type=int, default=None, help="daemon TCP port"
    )
    p_gateway.add_argument(
        "--host", default="127.0.0.1", help="HTTP bind host"
    )
    p_gateway.add_argument(
        "--port", type=int, default=0, help="HTTP port (0 picks a free one)"
    )
    p_gateway.add_argument(
        "--auth-file",
        help='token table JSON: {"tokens": [{"token", "name", "quota"}]}; '
        "without it the gateway is open",
    )
    p_gateway.add_argument(
        "--anonymous-quota",
        type=int,
        default=None,
        help="submit cap for unauthenticated clients on an open gateway",
    )
    p_gateway.set_defaults(func=cmd_gateway)

    p_submit = sub.add_parser(
        "submit", help="submit a QASM file to a running daemon"
    )
    p_submit.add_argument("qasm", help="OpenQASM 2.0 input file")
    p_submit.add_argument(
        "--backend",
        action="append",
        default=None,
        help="backend name (repeatable; default: Atomique)",
    )
    p_submit.add_argument(
        "--socket", help="daemon Unix socket path (default: TCP host/port)"
    )
    p_submit.add_argument("--host", default="127.0.0.1", help="daemon TCP host")
    p_submit.add_argument("--port", type=int, help="daemon TCP port")
    p_submit.add_argument("--seed", type=int, default=7, help="compile seed")
    p_submit.add_argument(
        "--wait",
        action="store_true",
        help="block until every job finishes and print the metrics table",
    )
    p_submit.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-job compile deadline in seconds (a timed-out attempt "
        "retries; exhausted retries dead-letter the job)",
    )
    p_submit.add_argument(
        "--max-retries",
        type=int,
        default=None,
        help="attempts before the job dead-letters as FAILED (default: "
        "the daemon's policy, 3)",
    )
    p_submit.add_argument(
        "--key",
        help="idempotency key prefix: resubmitting with the same key "
        "returns the existing job instead of enqueuing a duplicate",
    )
    p_submit.add_argument(
        "--priority",
        type=int,
        default=None,
        help="queue priority (higher dispatches first; default 0)",
    )
    p_submit.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="seconds from now the job must *dispatch* by, or it fails "
        "with a deadline error; also breaks priority ties (EDF)",
    )
    p_submit.add_argument(
        "--fetch-program",
        metavar="PATH",
        help="submit with keep_program, wait, and write the compiled "
        "Atomique stage program JSON here (single Atomique job only)",
    )
    p_submit.add_argument(
        "--stream",
        action="store_true",
        help="wait over a streaming connection: per-pass progress lines "
        "as the daemon compiles, and (with --fetch-program) the program "
        "fetched in chunks over binary frames",
    )
    p_submit.set_defaults(func=cmd_submit)

    p_jobs = sub.add_parser(
        "jobs", help="list a running daemon's jobs"
    )
    p_jobs.add_argument(
        "--socket", help="daemon Unix socket path (default: TCP host/port)"
    )
    p_jobs.add_argument("--host", default="127.0.0.1", help="daemon TCP host")
    p_jobs.add_argument("--port", type=int, help="daemon TCP port")
    p_jobs.add_argument(
        "--failed",
        action="store_true",
        help="show only dead-lettered jobs (attempt counts + last errors)",
    )
    p_jobs.add_argument(
        "--stats",
        action="store_true",
        help="append the robustness counters: quarantined spool files, "
        "dead letters, retries, steals, per-shard lease owners + ages",
    )
    p_jobs.set_defaults(func=cmd_jobs)

    p_cache = sub.add_parser(
        "cache",
        help="inspect or garbage-collect an on-disk cache directory",
    )
    p_cache.add_argument(
        "action", choices=["stats", "gc", "clear"], help="what to do"
    )
    p_cache.add_argument(
        "directory",
        help="cache directory (a --prefix-cache / --result-cache dir)",
    )
    p_cache.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        help="gc: evict least-recently-used entries until the directory "
        "fits this many bytes",
    )
    p_cache.set_defaults(func=cmd_cache)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
