"""HTTP/REST gateway (tier 1): auth, quotas, and byte-for-byte fidelity
with the socket protocol.

The daemon runs in a background thread on a Unix socket; the gateway
serves real HTTP on a loopback port; the tests speak stdlib
``urllib``.  The load-bearing assertion is that a result fetched over
REST is the *same JSON payload* the socket client receives — the
gateway relays, it does not re-encode.
"""

import asyncio
import json
import threading
import urllib.error
import urllib.request

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.registry import CompileOptions
from repro.experiments import compile_on, raa_for
from repro.experiments.batch import CompileJob
from repro.generators import qaoa_regular
from repro.service import (
    CompileService,
    GatewayAuth,
    HttpGateway,
    ServiceClient,
    ServiceServer,
    TokenPolicy,
)
from repro.core.serialize import program_to_dict
from repro.service.client import RemoteError
from repro.service.wire import decode_metrics, encode_job


class DaemonThread:
    """An in-process daemon on a Unix socket, served off-thread so the
    gateway's blocking per-request clients have something to talk to."""

    def __init__(self, socket_path, spool_dir=None):
        self.socket_path = socket_path
        self.spool_dir = spool_dir
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
            inline=True, shards=1, spool_dir=self.spool_dir
        )
        server = ServiceServer(service, socket_path=self.socket_path)
        await server.start()
        self._ready.set()
        await self._stop.wait()
        await server.aclose()

    def __enter__(self):
        self._thread.start()
        assert self._ready.wait(timeout=30.0), "daemon thread never came up"
        ServiceClient(socket_path=self.socket_path).wait_ready(timeout=10.0)
        return self

    def __exit__(self, *exc):
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=30.0)


def http(method, url, body=None, token=None, timeout=60.0):
    """One stdlib HTTP request; returns (status, decoded JSON body)."""
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(url, data=data, method=method)
    request.add_header("Content-Type", "application/json")
    if token is not None:
        request.add_header("Authorization", f"Bearer {token}")
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


@pytest.fixture()
def farm_front(tmp_path):
    """A daemon + gateway pair with one quota-limited token."""
    with DaemonThread(tmp_path / "repro.sock") as daemon:
        auth = GatewayAuth(
            [TokenPolicy(token="s3cret", name="alice", submit_quota=3)]
        )
        gateway = HttpGateway(socket_path=daemon.socket_path, auth=auth)
        gateway.start()
        try:
            yield daemon, gateway
        finally:
            gateway.close()


def atomique_job(seed=1):
    circuit = qaoa_regular(8, 3, seed=seed)
    return circuit, CompileJob(
        "Atomique", circuit, CompileOptions(raa=raa_for(circuit))
    )


class TestAuthAndQuota:
    def test_healthz_needs_no_token(self, farm_front):
        _, gateway = farm_front
        status, body = http("GET", f"{gateway.url}/healthz")
        assert status == 200 and body["ok"] is True

    def test_missing_and_unknown_tokens_are_401(self, farm_front):
        _, gateway = farm_front
        _, job = atomique_job()
        status, body = http(
            "POST", f"{gateway.url}/v1/jobs", body={"job": encode_job(job)}
        )
        assert status == 401
        assert "credentials" in body["error"]
        status, body = http(
            "GET", f"{gateway.url}/v1/jobs", token="wrong-token"
        )
        assert status == 401
        assert body["error"] == "unknown token"

    def test_submit_quota_is_429_and_counted(self, farm_front):
        _, gateway = farm_front
        _, job = atomique_job()
        payload = {"job": encode_job(job), "key": "quota-test"}
        for _ in range(3):  # idempotent key: one real job, three charges
            status, _body = http(
                "POST", f"{gateway.url}/v1/jobs", body=payload,
                token="s3cret",
            )
            assert status == 202
        status, body = http(
            "POST", f"{gateway.url}/v1/jobs", body=payload, token="s3cret"
        )
        assert status == 429
        assert "quota exhausted" in body["error"]
        assert "alice" in body["error"]
        status, body = http(
            "GET", f"{gateway.url}/v1/stats", token="s3cret"
        )
        assert status == 200
        assert body["gateway"]["submits_per_client"] == {"alice": 3}
        assert body["gateway"]["rejected_submits"] == 1

    def test_rejected_submit_enqueues_nothing(self, tmp_path):
        with DaemonThread(tmp_path / "repro.sock") as daemon:
            auth = GatewayAuth(
                [TokenPolicy(token="t", name="bob", submit_quota=0)]
            )
            gateway = HttpGateway(socket_path=daemon.socket_path, auth=auth)
            gateway.start()
            try:
                _, job = atomique_job()
                status, _body = http(
                    "POST",
                    f"{gateway.url}/v1/jobs",
                    body={"job": encode_job(job)},
                    token="t",
                )
                assert status == 429
                assert (
                    ServiceClient(socket_path=daemon.socket_path).jobs() == []
                )
            finally:
                gateway.close()


class TestRestRoundTrip:
    def test_result_matches_the_socket_client_byte_for_byte(
        self, farm_front
    ):
        daemon, gateway = farm_front
        circuit, job = atomique_job()
        status, body = http(
            "POST",
            f"{gateway.url}/v1/jobs",
            body={"job": encode_job(job)},
            token="s3cret",
        )
        assert status == 202
        job_id = body["id"]
        status, rest = http(
            "GET",
            f"{gateway.url}/v1/jobs/{job_id}/result?wait=1&timeout=120",
            token="s3cret",
        )
        assert status == 200
        # The same payload the socket protocol hands out, not a re-encode.
        socket_raw = ServiceClient(socket_path=daemon.socket_path).request(
            {"op": "result", "id": job_id, "wait": False}
        )["metrics"]
        assert rest["metrics"] == socket_raw
        direct = compile_on("Atomique", circuit, raa=raa_for(circuit))
        assert (
            decode_metrics(rest["metrics"]).num_2q_gates
            == direct.num_2q_gates
        )

    def test_status_jobs_program_cancel_and_errors(self, farm_front):
        daemon, gateway = farm_front
        url, token = gateway.url, "s3cret"
        _circuit, job = atomique_job(seed=2)
        status, body = http(
            "POST",
            f"{url}/v1/jobs",
            body={"job": encode_job(job), "keep_program": True,
                  "priority": 2},
            token=token,
        )
        assert status == 202
        job_id = body["id"]
        status, result = http(
            "GET",
            f"{url}/v1/jobs/{job_id}/result?wait=1&timeout=120",
            token=token,
        )
        assert status == 200 and "metrics" in result

        status, body = http("GET", f"{url}/v1/jobs/{job_id}", token=token)
        assert status == 200
        assert body["job"]["state"] == "done"
        assert body["job"]["priority"] == 2

        status, body = http("GET", f"{url}/v1/jobs", token=token)
        assert status == 200
        assert any(j["id"] == job_id for j in body["jobs"])

        status, body = http(
            "GET", f"{url}/v1/jobs/{job_id}/program", token=token
        )
        assert status == 200
        # the daemon ships a v3 record; REST serves its v2 document
        socket_program = ServiceClient(
            socket_path=daemon.socket_path
        ).program(job_id)
        assert body["program"] == json.loads(
            json.dumps(program_to_dict(socket_program))
        )

        # A finished job can no longer be cancelled.
        status, body = http(
            "DELETE", f"{url}/v1/jobs/{job_id}", token=token
        )
        assert status == 200 and body["cancelled"] is False

        status, body = http(
            "GET", f"{url}/v1/jobs/job-000099-nothere", token=token
        )
        assert status == 404
        status, body = http("GET", f"{url}/v1/nowhere", token=token)
        assert status == 404
        status, body = http(
            "POST", f"{url}/v1/jobs", body={"nope": 1}, token=token
        )
        assert status == 400

    def test_backends_listed(self, farm_front):
        _, gateway = farm_front
        status, body = http(
            "GET", f"{gateway.url}/v1/backends", token="s3cret"
        )
        assert status == 200
        assert "Atomique" in body["backends"]

    def test_daemon_down_maps_to_503(self, tmp_path):
        gateway = HttpGateway(socket_path=tmp_path / "nobody-home.sock")
        gateway.start()
        try:
            status, body = http("GET", f"{gateway.url}/healthz")
            assert status == 503 and body["ok"] is False
            status, body = http("GET", f"{gateway.url}/v1/jobs")
            assert status == 503
            assert "unreachable" in body["error"]
        finally:
            gateway.close()


class TestUndecodableProgram:
    def test_junk_spooled_program_is_a_remote_error_and_a_4xx(
        self, tmp_path
    ):
        # The daemon ships the spooled record without decoding it, so a
        # corrupt programs/<id>.bin surfaces in the client: as the
        # RemoteError every undecodable response raises, on both the
        # fetch and the stream, and as a 4xx at the gateway, not a 500.
        spool = tmp_path / "spool"
        with DaemonThread(tmp_path / "repro.sock", spool) as daemon:
            client = ServiceClient(socket_path=daemon.socket_path)
            _circuit, job = atomique_job(seed=3)
            job_id = client.submit(job, keep_program=True)
            client.result(job_id)
            (spool / "programs" / f"{job_id}.bin").write_bytes(b"\x00junk")
            with pytest.raises(RemoteError, match="undecodable"):
                client.program(job_id)
            with pytest.raises(RemoteError, match="undecodable"):
                client.result_stream(job_id)
            gateway = HttpGateway(socket_path=daemon.socket_path)
            gateway.start()
            try:
                status, body = http(
                    "GET", f"{gateway.url}/v1/jobs/{job_id}/program"
                )
            finally:
                gateway.close()
        assert status == 400
        assert "undecodable service response" in body["error"]


class TestRequestBodyHandling:
    """The gateway's body reader: hostile or broken HTTP clients get a
    4xx JSON error, never a 500 from an exception mid-parse."""

    def _raw(self, gateway, request_bytes, timeout=10.0):
        """Send raw bytes over a fresh TCP connection; return the status
        line and decoded JSON body of the response."""
        import socket as socketlib

        with socketlib.create_connection(
            (gateway.host, gateway.port), timeout=timeout
        ) as sock:
            sock.sendall(request_bytes)
            sock.shutdown(socketlib.SHUT_WR)
            raw = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                raw += chunk
        head, _, body = raw.partition(b"\r\n\r\n")
        status = int(head.split(b" ")[1])
        return status, json.loads(body) if body else {}

    def test_malformed_content_length_is_400_not_500(self, farm_front):
        _, gateway = farm_front
        request = (
            b"POST /v1/jobs HTTP/1.1\r\n"
            b"Host: x\r\n"
            b"Authorization: Bearer s3cret\r\n"
            b"Content-Length: banana\r\n"
            b"\r\n"
        )
        status, body = self._raw(gateway, request)
        assert status == 400
        assert "Content-Length" in body["error"]

    def test_negative_content_length_is_400(self, farm_front):
        _, gateway = farm_front
        request = (
            b"POST /v1/jobs HTTP/1.1\r\n"
            b"Host: x\r\n"
            b"Authorization: Bearer s3cret\r\n"
            b"Content-Length: -5\r\n"
            b"\r\n"
        )
        status, body = self._raw(gateway, request)
        assert status == 400
        assert "Content-Length" in body["error"]

    def test_oversized_body_is_413(self, farm_front):
        _, gateway = farm_front
        from repro.service.http import MAX_BODY_BYTES

        request = (
            b"POST /v1/jobs HTTP/1.1\r\n"
            b"Host: x\r\n"
            b"Authorization: Bearer s3cret\r\n"
            + f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n".encode()
        )
        status, body = self._raw(gateway, request)
        assert status == 413

    def test_truncated_body_is_400(self, farm_front):
        # Declares 1000 bytes, sends 10, hangs up: the reader must not
        # hand a partial document to json.loads as if it were complete.
        _, gateway = farm_front
        request = (
            b"POST /v1/jobs HTTP/1.1\r\n"
            b"Host: x\r\n"
            b"Authorization: Bearer s3cret\r\n"
            b"Content-Length: 1000\r\n"
            b"\r\n"
            b'{"job": "x"'
        )
        status, body = self._raw(gateway, request)
        assert status == 400
        assert "truncated" in body["error"]

    def _post_body(self, gateway, body):
        request = (
            b"POST /v1/jobs HTTP/1.1\r\n"
            b"Host: x\r\n"
            b"Authorization: Bearer s3cret\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode()
            + body
        )
        return self._raw(gateway, request)

    def test_undecodable_body_is_400(self, farm_front):
        _, gateway = farm_front
        status, body = self._post_body(gateway, b"\xff\xfe\xfa")
        assert status == 400
        assert "not JSON" in body["error"]

    def test_deeply_nested_body_is_400(self, farm_front):
        # fits under MAX_BODY_BYTES, but nests past the JSON parser's
        # recursion limit
        _, gateway = farm_front
        status, body = self._post_body(gateway, b"[" * 100_000)
        assert status == 400
        assert "not JSON" in body["error"]

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        payload=st.one_of(
            st.binary(max_size=2048),
            st.integers(1, 50_000).map(lambda n: b"[" * n),
            st.recursive(
                st.none() | st.booleans() | st.integers() | st.text(),
                lambda inner: st.lists(inner)
                | st.dictionaries(st.text(), inner),
                max_leaves=20,
            ).map(lambda v: json.dumps(v).encode()),
        )
    )
    def test_arbitrary_bodies_are_4xx(self, farm_front, payload):
        # whatever the bytes, the reader answers 400 (or 413) with a JSON
        # error — never a 500, never a hang (the socket timeout bounds it)
        _, gateway = farm_front
        status, body = self._post_body(gateway, payload)
        assert status in (400, 413)
        assert "error" in body

    def test_wellformed_posts_still_work(self, farm_front):
        daemon, gateway = farm_front
        _, job = atomique_job()
        status, body = http(
            "POST",
            f"{gateway.url}/v1/jobs",
            body={"job": encode_job(job)},
            token="s3cret",
        )
        assert status == 202 and body["id"]
