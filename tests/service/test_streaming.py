"""Streaming result path: per-pass progress events, the program sent as
the spooled record, and the frame.corrupt chaos site — exercised
in-process against an inline daemon on a Unix socket."""

import asyncio
import socket
import threading

import pytest

from repro.baselines.registry import CompileOptions
from repro.circuits.random_circuits import random_circuit
from repro.core.serialize import dumps
from repro.experiments import raa_for
from repro.experiments.batch import CompileJob
from repro.service import CompileService, ServiceClient, ServiceServer
from repro.service import faults
from repro.service import wire
from repro.service.client import RemoteError
from repro.service.wire import (
    FRAME_FLAG_BINARY_DOC,
    FRAME_FLAG_DEFLATE,
    FRAME_HEADER_LEN,
    WIRE_COMPRESS_THRESHOLD,
    decode_frame_payload,
    encode_frame,
    parse_frame_header,
)


class ServerThread:
    """An inline daemon served off-thread so the blocking client can
    stream against it from the test thread."""

    def __init__(self, socket_path, **service_kwargs):
        self.socket_path = socket_path
        self.service_kwargs = service_kwargs
        self._ready = threading.Event()
        self._stop = None
        self._loop = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        asyncio.run(self._main())

    async def _main(self):
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        service = CompileService(
            inline=True, shards=1, **self.service_kwargs
        )
        server = ServiceServer(service, socket_path=self.socket_path)
        await server.start()
        self._ready.set()
        await self._stop.wait()
        await server.aclose()

    def __enter__(self):
        self._thread.start()
        assert self._ready.wait(timeout=30.0), "server thread never came up"
        return self

    def __exit__(self, *exc):
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=30.0)


@pytest.fixture()
def server(tmp_path):
    with ServerThread(tmp_path / "repro.sock") as srv:
        client = ServiceClient(socket_path=srv.socket_path, timeout=120.0)
        client.wait_ready(timeout=10.0)
        yield client


def atomique_job(seed=3, num_qubits=12, depth=10):
    circuit = random_circuit(num_qubits, depth, 3, seed=seed)
    return CompileJob(
        "Atomique", circuit, CompileOptions(raa=raa_for(circuit))
    )


def raw_exchange(socket_path, request):
    """``(flags, message)`` of every frame the daemon answers *request*
    with, read straight off the socket, up to the last one."""
    frames = []
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(120.0)
        sock.connect(str(socket_path))
        with sock.makefile("rwb") as stream:
            stream.write(encode_frame(request))
            stream.flush()
            while True:
                flags, length = parse_frame_header(
                    stream.read(FRAME_HEADER_LEN)
                )
                message = decode_frame_payload(flags, stream.read(length))
                frames.append((flags, message))
                if not message["ok"] or message.get("event", "done") == "done":
                    return frames


class TestStreamingResult:
    def test_stream_delivers_progress_and_a_bit_exact_program(self, server):
        job_id = server.submit(atomique_job(), keep_program=True)
        events = []
        metrics, store = server.result_stream(
            job_id, on_event=events.append
        )
        # Per-pass progress: one event per pipeline pass, in order.
        assert events, "no progress events arrived"
        assert [e["index"] for e in events] == list(
            range(1, len(events) + 1)
        )
        assert all(e["total"] == len(events) for e in events)
        assert all(
            isinstance(e["pass"], str) and e["seconds"] >= 0.0
            for e in events
        )
        # The streamed program matches the classic single-shot fetch
        # byte for byte, and metrics match the classic result.
        assert store is not None
        assert server.last_stream_stats == {"binary_chunks": 1}
        assert dumps(store) == dumps(server.program(job_id))
        assert metrics == server.result(job_id)

    def test_stream_without_keep_program_returns_no_store(self, server):
        job_id = server.submit(atomique_job())
        metrics, store = server.result_stream(job_id)
        assert store is None
        assert server.last_stream_stats == {"binary_chunks": 0}
        assert metrics == server.result(job_id)

    def test_status_surfaces_progress(self, server):
        job_id = server.submit(atomique_job())
        server.result(job_id)
        progress = server.status(job_id)["progress"]
        assert progress and progress[-1]["index"] == progress[-1]["total"]

    def test_unknown_job_is_a_clean_remote_error(self, server):
        with pytest.raises(RemoteError, match="unknown job"):
            server.result_stream("job-000099-nothere")

    def test_frame_corrupt_fault_raises_wire_error_not_garbage(
        self, tmp_path
    ):
        with ServerThread(tmp_path / "chaos.sock") as srv:
            client = ServiceClient(
                socket_path=srv.socket_path, timeout=120.0, retries=0
            )
            client.wait_ready(timeout=10.0)
            assert client.ping()
            job_id = client.submit(atomique_job(), keep_program=True)
            client.result(job_id, wait=True)
            expected = dumps(client.program(job_id))
            # A finished job streams its progress events, then the program.
            program_frame = len(client.status(job_id)["progress"]) + 1
            # A flipped last byte of a program frame lands in the record's
            # final column section, which still parses: the frame checksum
            # is what turns it into an error, on the fetch and the stream.
            for rule, fetch in (
                ({"at": [1]}, client.backends),
                ({"match": "program", "at": [1]}, lambda: client.program(job_id)),
                (
                    {"match": "result", "at": [program_frame]},
                    lambda: client.result_stream(job_id),
                ),
            ):
                faults.install({"rules": [{"site": "frame.corrupt", **rule}]})
                try:
                    with pytest.raises(RemoteError, match="undecodable"):
                        fetch()
                finally:
                    faults.reset()
            # The next (uncorrupted) frames work on fresh connections.
            assert "Atomique" in client.backends()
            assert dumps(client.program(job_id)) == expected
            assert dumps(client.result_stream(job_id)[1]) == expected


class TestProgramRecordOnTheWire:
    def test_streamed_fetched_and_spooled_records_are_byte_identical(
        self, tmp_path
    ):
        # The record is past the JSON deflate threshold, so a deflating
        # daemon would show it: the program rides undeflated, as the very
        # bytes of spool/programs/<id>.bin, on the stream and the fetch.
        spool = tmp_path / "spool"
        with ServerThread(tmp_path / "repro.sock", spool_dir=spool) as srv:
            client = ServiceClient(socket_path=srv.socket_path, timeout=120.0)
            client.wait_ready(timeout=10.0)
            job = atomique_job(num_qubits=20, depth=80)
            job_id = client.submit(job, keep_program=True)
            streamed = raw_exchange(
                srv.socket_path,
                {"op": "result", "id": job_id, "stream": True,
                 "timeout": 120.0},
            )
            fetched = raw_exchange(
                srv.socket_path, {"op": "program", "id": job_id}
            )
        spooled = (spool / "programs" / f"{job_id}.bin").read_bytes()
        assert len(spooled) > WIRE_COMPRESS_THRESHOLD
        events = [message["event"] for _, message in streamed]
        assert events[-2:] == ["program", "done"]
        assert set(events[:-2]) == {"progress"}
        stream_flags, stream_message = streamed[-2]
        [(fetch_flags, fetch_message)] = fetched
        assert stream_message["program"].data == spooled
        assert fetch_message["program"].data == spooled
        for flags in (stream_flags, fetch_flags):
            assert flags == FRAME_FLAG_BINARY_DOC
            assert not flags & FRAME_FLAG_DEFLATE

    def test_record_past_the_frame_cap_is_a_clean_remote_error(
        self, tmp_path, monkeypatch
    ):
        # An undeflated record over MAX_FRAME_BYTES cannot be framed: the
        # daemon answers with an error frame on both paths and keeps
        # serving.
        with ServerThread(tmp_path / "repro.sock") as srv:
            client = ServiceClient(socket_path=srv.socket_path, timeout=120.0)
            client.wait_ready(timeout=10.0)
            job_id = client.submit(atomique_job(), keep_program=True)
            client.result(job_id)
            monkeypatch.setattr(wire, "MAX_FRAME_BYTES", 4096)
            with pytest.raises(RemoteError, match="exceeds 4096"):
                client.program(job_id)
            with pytest.raises(RemoteError, match="exceeds 4096"):
                client.result_stream(job_id)
            monkeypatch.undo()
            assert client.ping()
            assert client.program(job_id).num_stages > 0
