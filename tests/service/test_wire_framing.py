"""Binary frames and the binary program codec on the service wire."""

import json

import pytest

from repro.core import AtomiqueCompiler, AtomiqueConfig, binformat
from repro.core.program import ProgramStore
from repro.generators import qaoa_random, qsim_random
from repro.hardware import RAAArchitecture
from repro.service.wire import (
    FRAME_FLAG_BINARY_DOC,
    FRAME_FLAG_DEFLATE,
    FRAME_HEADER_LEN,
    FRAME_MAGIC,
    FRAME_VERSION,
    WIRE_COMPRESS_THRESHOLD,
    BinaryDoc,
    WireError,
    decode_frame,
    encode_bindoc_frame,
    encode_frame,
    parse_frame_header,
)


class TestProgramCodec:
    @pytest.fixture(scope="class")
    def store(self):
        circuit = qsim_random(10, seed=10)
        arch = RAAArchitecture.default(side=4)
        return AtomiqueCompiler(arch, AtomiqueConfig(seed=7)).compile(
            circuit
        ).program

    def test_program_roundtrip_bit_exact(self, store):
        # through a real frame, as the socket would carry it
        data = encode_bindoc_frame(
            {"ok": True, "op": "program"},
            "program",
            binformat.encode_program(store),
        )
        restored = decode_frame(data)["program"].to_store()
        assert isinstance(restored, ProgramStore)
        assert restored.gate_n_vib == store.gate_n_vib
        assert restored.atom_loss_log == store.atom_loss_log
        assert restored.gate_pairs() == store.gate_pairs()
        assert restored.off_gate == store.off_gate
        assert restored.move_start == store.move_start

    def test_columnar_wire_form_is_smaller(self, store):
        from repro.core.serialize import program_to_dict

        binary = len(binformat.encode_program(store))
        columnar = len(json.dumps(program_to_dict(store)))
        assert binary < columnar

    def test_bad_program_payload_rejected(self):
        with pytest.raises(WireError, match="bad binary program"):
            BinaryDoc(b"{\"format_version\": 99}").to_store()


class TestBinaryFrames:
    def test_small_frame_roundtrip_uncompressed(self):
        payload = {"op": "ping", "n": 7}
        data = encode_frame(payload)
        assert data[:2] == FRAME_MAGIC
        assert data[3] == 0  # flags: no deflate below the threshold
        assert decode_frame(data) == payload

    def test_large_frame_roundtrip_deflated(self):
        payload = {"op": "submit", "blob": "x" * (WIRE_COMPRESS_THRESHOLD + 1)}
        data = encode_frame(payload)
        assert data[3] == 1  # FRAME_FLAG_DEFLATE
        assert len(data) < WIRE_COMPRESS_THRESHOLD  # x*N deflates well
        assert decode_frame(data) == payload

    def test_frame_magic_cannot_begin_a_json_line(self):
        # The server rejects foreign peers on their first byte: 0xAB is
        # not ASCII and can never start a JSON document or HTTP request.
        assert FRAME_MAGIC[0] > 0x7F

    def test_truncated_header_rejected(self):
        data = encode_frame({"op": "ping"})
        with pytest.raises(WireError, match="frame"):
            decode_frame(data[: FRAME_HEADER_LEN - 2])

    def test_truncated_body_rejected(self):
        data = encode_frame({"op": "ping"})
        with pytest.raises(WireError, match="truncat"):
            decode_frame(data[:-1])

    def test_corrupt_payload_rejected(self):
        # The frame.corrupt chaos site flips the last byte; the decoder
        # must raise, never hand back garbage.
        payload = {"op": "submit", "blob": "x" * (WIRE_COMPRESS_THRESHOLD + 1)}
        data = encode_frame(payload)
        corrupt = data[:-1] + bytes((data[-1] ^ 0xFF,))
        with pytest.raises(WireError):
            decode_frame(corrupt)

    def test_wrong_magic_rejected(self):
        data = encode_frame({"op": "ping"})
        with pytest.raises(WireError, match="frame header"):
            decode_frame(b"\x00" + data[1:])

    def test_unknown_version_rejected(self):
        data = encode_frame({"op": "ping"})
        with pytest.raises(WireError, match="version"):
            decode_frame(data[:2] + b"\x63" + data[3:])

    def test_unknown_flags_rejected(self):
        data = encode_frame({"op": "ping"})
        with pytest.raises(WireError, match="flag"):
            decode_frame(data[:3] + b"\x80" + data[4:])

    def test_oversized_length_rejected(self):
        from repro.service.wire import MAX_FRAME_BYTES

        header = FRAME_MAGIC + bytes((1, 0))
        header += (MAX_FRAME_BYTES + 1).to_bytes(4, "big")
        with pytest.raises(WireError, match="exceeds"):
            decode_frame(header + b"x")

    def test_non_object_payload_rejected(self):
        body = b"[1, 2, 3]"
        header = FRAME_MAGIC + bytes((1, 0)) + len(body).to_bytes(4, "big")
        with pytest.raises(WireError, match="object"):
            decode_frame(header + body)


class TestBindocFrames:
    """Binary-doc frames: a JSON message plus a raw v3 record in one body."""

    DOC = b"\xabP3" + bytes(range(256))  # any bytes at the framing layer

    def test_small_bindoc_roundtrip(self):
        data = encode_bindoc_frame(
            {"ok": True, "op": "program"}, "program", self.DOC
        )
        assert data[:2] == FRAME_MAGIC
        assert data[3] & FRAME_FLAG_BINARY_DOC
        assert not data[3] & FRAME_FLAG_DEFLATE
        payload = decode_frame(data)
        blob = payload.pop("program")
        assert isinstance(blob, BinaryDoc) and blob.data == self.DOC
        # the marker is stripped; nothing else leaks through
        assert payload == {"ok": True, "op": "program"}

    def test_large_bindoc_ships_undeflated(self):
        # Past the JSON deflate threshold, and as compressible as bytes
        # get: a binary-doc frame still carries the record as it is.
        doc = b"\xabP3" + b"\x07" * (WIRE_COMPRESS_THRESHOLD + 1)
        data = encode_bindoc_frame({"ok": True, "op": "p"}, "program", doc)
        assert data[3] == FRAME_FLAG_BINARY_DOC
        assert data.endswith(doc)
        assert decode_frame(data)["program"].data == doc

    def test_bindoc_past_the_frame_cap_rejected(self, monkeypatch):
        from repro.service import wire

        monkeypatch.setattr(wire, "MAX_FRAME_BYTES", 1024)
        with pytest.raises(WireError, match="exceeds 1024"):
            encode_bindoc_frame({"op": "p"}, "program", self.DOC * 4)

    def test_doc_bytes_are_binary_safe(self):
        # newlines, frame magic, and the JSON length prefix inside the
        # doc must not confuse the framing
        doc = b"\n" + FRAME_MAGIC + (2**31).to_bytes(4, "big") + b"\x00\xff"
        data = encode_bindoc_frame({"ok": True, "op": "p"}, "chunk", doc)
        assert decode_frame(data)["chunk"].data == doc

    def test_field_collision_rejected(self):
        with pytest.raises(WireError, match="already has field"):
            encode_bindoc_frame({"program": 1, "op": "p"}, "program", b"x")

    def test_bindoc_json_length_past_body_rejected(self):
        body = (999).to_bytes(4, "big") + b"{}"
        header = FRAME_MAGIC + bytes(
            (FRAME_VERSION, FRAME_FLAG_BINARY_DOC)
        ) + len(body).to_bytes(4, "big")
        with pytest.raises(WireError, match="bindoc json length"):
            decode_frame(header + body)

    def test_bindoc_without_marker_rejected(self):
        head = json.dumps({"ok": True, "op": "p"}).encode()
        body = len(head).to_bytes(4, "big") + head + b"doc"
        header = FRAME_MAGIC + bytes(
            (FRAME_VERSION, FRAME_FLAG_BINARY_DOC)
        ) + len(body).to_bytes(4, "big")
        with pytest.raises(WireError, match="_bindoc field marker"):
            decode_frame(header + body)

    def test_binarydoc_decodes_real_records(self):
        from repro.core import binformat

        circuit = qsim_random(8, seed=8)
        arch = RAAArchitecture.default(side=4)
        store = AtomiqueCompiler(arch, AtomiqueConfig(seed=7)).compile(
            circuit
        ).program
        restored = BinaryDoc(binformat.encode_program(store)).to_store()
        assert restored.gate_n_vib == store.gate_n_vib
        assert restored.off_gate == store.off_gate
        # a chunk record is not a program record, and garbage is neither
        chunk = binformat.encode_chunk(store.chunk_doc(0, store.num_stages))
        with pytest.raises(WireError, match="bad binary program"):
            BinaryDoc(chunk).to_store()
        with pytest.raises(WireError, match="bad binary program"):
            BinaryDoc(b"\x00garbage").to_store()


class TestFrameNegotiation:
    """Frames are the only wire: there is nothing left to negotiate, and a
    peer speaking anything else gets a clean error."""

    def _serve(self, tmp_path, body):
        import asyncio

        from repro.service.client import ServiceClient
        from repro.service.server import CompileService, ServiceServer

        async def run():
            service = CompileService(inline=True, shards=1)
            server = ServiceServer(service, socket_path=tmp_path / "sock")
            await server.start()
            client = ServiceClient(socket_path=tmp_path / "sock")
            loop = asyncio.get_running_loop()
            try:
                return await loop.run_in_executor(None, body, client)
            finally:
                await server.aclose()

        return asyncio.run(run())

    def test_new_client_upgrades_to_frames_after_ping(self, tmp_path):
        # The daemon parses nothing but frames, so both the ping and the
        # request after it must have crossed as frames to be answered.
        def body(client):
            assert client.ping()
            return client.backends()

        backends = self._serve(tmp_path, body)
        assert "Atomique" in backends

    def test_old_json_client_against_new_server(self, tmp_path):
        # A JSON-lines client gets one error frame, then the daemon hangs
        # up (it cannot find a frame boundary in line-framed bytes).
        import asyncio

        from repro.service.server import CompileService, ServiceServer

        async def run():
            service = CompileService(inline=True, shards=1)
            server = ServiceServer(service, socket_path=tmp_path / "sock")
            await server.start()
            reader, writer = await asyncio.open_unix_connection(
                str(tmp_path / "sock")
            )
            writer.write(b'{"op": "ping"}\n')
            await writer.drain()
            raw = await asyncio.wait_for(reader.read(), timeout=10.0)
            writer.close()
            await server.aclose()
            return raw

        raw = asyncio.run(run())
        response = decode_frame(raw)  # exactly one frame, then EOF
        assert response["ok"] is False and "frame header" in response["error"]

    def test_truncated_frame_from_server_raises_not_hangs(self, tmp_path):
        # A server that dies mid-frame must produce a clean error: the
        # client sees EOF before the declared length and raises.
        import asyncio

        from repro.service.client import RemoteError, ServiceClient

        async def run():
            async def handle(reader, writer):
                header = await reader.readexactly(FRAME_HEADER_LEN)
                await reader.readexactly(parse_frame_header(header)[1])
                data = encode_frame({"ok": True, "op": "ping"})
                writer.write(data[:-3])  # drop the tail, then hang up
                await writer.drain()
                writer.close()

            server = await asyncio.start_unix_server(
                handle, path=str(tmp_path / "t.sock")
            )
            client = ServiceClient(socket_path=tmp_path / "t.sock", retries=0)
            loop = asyncio.get_running_loop()
            try:
                await loop.run_in_executor(
                    None, lambda: client.request({"op": "ping"})
                )
            except RemoteError as exc:
                return str(exc)
            finally:
                server.close()
                await server.wait_closed()
            return None

        message = asyncio.run(run())
        assert message is not None and "truncated" in message


class TestBindocNegotiation:
    """Programs, fetched or streamed, always cross as packed v3 records."""

    def _serve(self, tmp_path, body):
        import asyncio

        from repro.service.client import ServiceClient
        from repro.service.server import CompileService, ServiceServer

        async def run():
            service = CompileService(
                inline=True, shards=1, spool_dir=tmp_path / "spool"
            )
            server = ServiceServer(service, socket_path=tmp_path / "sock")
            await server.start()
            client = ServiceClient(
                socket_path=tmp_path / "sock", timeout=120.0
            )
            loop = asyncio.get_running_loop()
            try:
                return await loop.run_in_executor(None, body, client)
            finally:
                await server.aclose()

        return asyncio.run(run())

    @staticmethod
    def _job():
        from repro.baselines.registry import CompileOptions
        from repro.circuits.random_circuits import random_circuit
        from repro.experiments import raa_for
        from repro.experiments.batch import CompileJob

        circuit = random_circuit(12, 10, 3, seed=3)
        return CompileJob(
            "Atomique", circuit, CompileOptions(raa=raa_for(circuit))
        )

    def test_new_pair_ships_binary_docs_bit_identically(self, tmp_path):
        from repro.core.serialize import dumps

        def body(client):
            job_id = client.submit(self._job(), keep_program=True)
            whole = client.program(job_id)  # rides a bindoc frame
            metrics, streamed = client.result_stream(job_id)
            # the program arrived as one packed v3 record
            assert client.last_stream_stats == {"binary_chunks": 1}
            return dumps(whole), dumps(streamed)

        whole, streamed = self._serve(tmp_path, body)
        assert whole == streamed

class TestClientServerCompression(object):
    """End-to-end: a large circuit submission crosses the socket as a
    deflated frame and compiles to the same result as a plain one."""

    def test_inline_service_accepts_compressed_submission(self, tmp_path):
        import asyncio

        from repro.experiments.batch import CompileJob
        from repro.service.server import CompileService, ServiceServer
        from repro.service.client import ServiceClient
        from repro.service.wire import encode_job

        # a small circuit keeps the runtime down; pad the name so the
        # encoded job crosses the 64 KiB threshold and actually compresses.
        circuit = qaoa_random(12, seed=5)
        circuit.name = "q" * (WIRE_COMPRESS_THRESHOLD + 1)
        job = CompileJob("Superconducting", circuit)
        request = encode_frame({"op": "submit", "job": encode_job(job)})
        assert request[3] & FRAME_FLAG_DEFLATE

        async def run():
            service = CompileService(spool_dir=tmp_path / "spool", inline=True)
            server = ServiceServer(service, socket_path=tmp_path / "sock")
            await server.start()
            client = ServiceClient(socket_path=tmp_path / "sock")
            loop = asyncio.get_running_loop()
            job_id = await loop.run_in_executor(None, client.submit, job)
            metrics = await loop.run_in_executor(
                None, lambda: client.result(job_id, wait=True)
            )
            await server.aclose()
            return metrics

        metrics = asyncio.run(run())
        from repro.baselines.registry import CompileOptions, get_backend

        direct = get_backend("Superconducting").compile(
            circuit, CompileOptions()
        )
        assert metrics.num_2q_gates == direct.num_2q_gates
        assert metrics.fidelity == direct.fidelity
