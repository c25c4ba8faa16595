"""Binary-frame socket protocol of :class:`ServiceServer`, exercised
in-process over a Unix socket (the subprocess daemon is covered by the
``service_smoke`` end-to-end test)."""

import asyncio
import logging

import pytest

from repro.baselines.registry import CompileOptions
from repro.experiments import compile_on, raa_for
from repro.experiments.batch import CompileJob
from repro.generators import qaoa_regular
from repro.service import CompileService, ServiceServer
from repro.service.wire import (
    FRAME_HEADER_LEN,
    FRAME_MAGIC,
    FRAME_VERSION,
    decode_frame_payload,
    decode_metrics,
    encode_frame,
    encode_job,
    parse_frame_header,
)


async def read_frame(reader):
    """One response frame off *reader*, decoded."""
    header = await reader.readexactly(FRAME_HEADER_LEN)
    flags, length = parse_frame_header(header)
    return decode_frame_payload(flags, await reader.readexactly(length))


async def roundtrip(path, requests):
    """Open one connection, send each request frame, collect responses."""
    reader, writer = await asyncio.open_unix_connection(path)
    responses = []
    try:
        for request in requests:
            writer.write(encode_frame(request))
            await writer.drain()
            responses.append(await read_frame(reader))
    finally:
        writer.close()
    return responses


def serve_scenario(tmp_path, body):
    async def scenario():
        service = CompileService(inline=True, shards=1)
        server = ServiceServer(service, socket_path=tmp_path / "repro.sock")
        await server.start()
        try:
            return await body(str(tmp_path / "repro.sock"))
        finally:
            await server.aclose()

    return asyncio.run(scenario())


class TestProtocol:
    def test_ping_and_backends(self, tmp_path):
        async def body(path):
            return await roundtrip(path, [{"op": "ping"}, {"op": "backends"}])

        ping, backends = serve_scenario(tmp_path, body)
        assert ping["ok"] is True
        assert "Atomique" in backends["backends"]

    def test_submit_status_result_over_socket(self, tmp_path):
        circuit = qaoa_regular(8, 3, seed=1)
        job = CompileJob(
            "Atomique", circuit, CompileOptions(raa=raa_for(circuit))
        )

        async def body(path):
            (submitted,) = await roundtrip(
                path, [{"op": "submit", "job": encode_job(job)}]
            )
            job_id = submitted["id"]
            return await roundtrip(
                path,
                [
                    {"op": "result", "id": job_id, "wait": True, "timeout": 60},
                    {"op": "status", "id": job_id},
                    {"op": "jobs"},
                    {"op": "stats"},
                ],
            )

        result, status, jobs, stats = serve_scenario(tmp_path, body)
        direct = compile_on("Atomique", circuit, raa=raa_for(circuit))
        assert decode_metrics(result["metrics"]).num_2q_gates == direct.num_2q_gates
        assert status["job"]["state"] == "done"
        assert len(jobs["jobs"]) == 1
        assert stats["stats"]["jobs"]["done"] == 1

    def test_errors_are_reported_not_fatal(self, tmp_path):
        async def body(path):
            responses = await roundtrip(
                path,
                [
                    {"op": "warp"},
                    {"op": "status", "id": "job-000042-missing"},
                    {"op": "submit", "job": {"backend": "Nope", "circuit": {}}},
                ],
            )
            # The connection survived all three bad requests.
            responses += await roundtrip(path, [{"op": "ping"}])
            return responses

        unknown_op, missing, bad_submit, ping = serve_scenario(tmp_path, body)
        assert unknown_op["ok"] is False and "unknown op" in unknown_op["error"]
        assert missing["ok"] is False and "unknown job" in missing["error"]
        assert bad_submit["ok"] is False
        assert ping["ok"] is True

    @pytest.mark.parametrize(
        "gate",
        [[1, [0], []], ["cz", [0, "2"], []]],
        ids=["int-name", "str-qubit"],
    )
    def test_bad_gate_is_an_error_reply(self, tmp_path, caplog, gate):
        job = {"backend": "Atomique", "circuit": {"num_qubits": 3, "gates": [gate]}}

        async def body(path):
            return await roundtrip(
                path, [{"op": "submit", "job": job}, {"op": "ping"}]
            )

        with caplog.at_level(logging.ERROR, logger="asyncio"):
            rejected, ping = serve_scenario(tmp_path, body)
        assert rejected["ok"] is False
        assert "bad circuit payload" in rejected["error"]
        assert ping["ok"] is True  # same connection, still served
        crashes = [
            r for r in caplog.records
            if "client_connected_cb" in r.getMessage()
        ]
        assert not crashes, "the connection handler raised"

    def test_malformed_line_gets_error_response(self, tmp_path):
        async def body(path):
            reader, writer = await asyncio.open_unix_connection(path)
            writer.write(b"this is not json\n")
            await writer.drain()
            response = await read_frame(reader)
            writer.close()
            return response

        response = serve_scenario(tmp_path, body)
        assert response["ok"] is False and "bad request" in response["error"]

    def test_undecodable_frame_body_keeps_the_connection(self, tmp_path):
        # The header was sound, so the next frame boundary is known: the
        # error is answered and the same connection serves the next op.
        body_bytes = b"[not json"
        bad = (
            FRAME_MAGIC
            + bytes((FRAME_VERSION, 0))
            + len(body_bytes).to_bytes(4, "big")
            + body_bytes
        )

        async def body(path):
            reader, writer = await asyncio.open_unix_connection(path)
            writer.write(bad + encode_frame({"op": "ping"}))
            await writer.drain()
            responses = [await read_frame(reader), await read_frame(reader)]
            writer.close()
            return responses

        error, ping = serve_scenario(tmp_path, body)
        assert error["ok"] is False and "bad frame payload" in error["error"]
        assert ping["ok"] is True

    def test_drain_op_stops_the_server(self, tmp_path):
        async def scenario():
            service = CompileService(inline=True, shards=1)
            server = ServiceServer(service, socket_path=tmp_path / "s.sock")
            await server.start()
            serving = asyncio.create_task(server.serve_until_drained())
            (response,) = await roundtrip(
                str(tmp_path / "s.sock"), [{"op": "drain"}]
            )
            await asyncio.wait_for(serving, timeout=10)
            await server.aclose()
            return response

        response = asyncio.run(scenario())
        assert response["ok"] is True and response["op"] == "drain"


def _header(version=FRAME_VERSION, flags=0, length=2):
    return FRAME_MAGIC + bytes((version, flags)) + length.to_bytes(4, "big")


MALFORMED_HEADERS = {
    "json-line": b'{"op": "ping"}\n',
    "non-utf8": b"\xff\xfe\x00garbage\n",
    "bad-magic": b"\xabX" + _header()[2:] + b"{}",
    "unknown-version": _header(version=99) + b"{}",
    "unknown-flags": _header(flags=0x80) + b"{}",
    "oversized-length": _header(length=2**31),
    "truncated-header": FRAME_MAGIC + bytes((FRAME_VERSION,)),
}


class TestMalformedHeaders:
    """A bad frame header is answered with one error frame and a hang-up
    (a truncated one with a clean close) — never a crashed handler — and
    the daemon keeps serving new connections."""

    @pytest.mark.parametrize(
        "data", MALFORMED_HEADERS.values(), ids=MALFORMED_HEADERS.keys()
    )
    def test_error_frame_then_close(self, tmp_path, caplog, data):
        truncated = data == MALFORMED_HEADERS["truncated-header"]

        async def body(path):
            reader, writer = await asyncio.open_unix_connection(path)
            writer.write(data)
            await writer.drain()
            if truncated:
                writer.write_eof()  # the rest of the header never comes
            raw = await asyncio.wait_for(reader.read(), timeout=10.0)
            writer.close()
            (ping,) = await roundtrip(path, [{"op": "ping"}])
            return raw, ping

        with caplog.at_level(logging.ERROR, logger="asyncio"):
            raw, ping = serve_scenario(tmp_path, body)
        if truncated:
            assert raw == b""
        else:
            flags, length = parse_frame_header(raw[:FRAME_HEADER_LEN])
            assert len(raw) == FRAME_HEADER_LEN + length  # one frame, EOF
            response = decode_frame_payload(flags, raw[FRAME_HEADER_LEN:])
            assert response["ok"] is False
            assert "bad request" in response["error"]
        assert ping["ok"] is True
        crashes = [
            r for r in caplog.records
            if "client_connected_cb" in r.getMessage()
        ]
        assert not crashes, "the connection handler raised"
