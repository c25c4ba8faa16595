"""HTTP/REST gateway in front of the compile-service socket protocol.

Web clients cannot speak the daemon's binary-frame protocol, so the
gateway translates a small REST surface onto :class:`~repro.service.client.
ServiceClient` requests; it is the service's only JSON-text edge.  Stdlib
only (:mod:`http.server`); one gateway fronts one daemon (or one farm
member — any member can serve every job on the shared spool).

Routes (all responses are JSON)::

    GET    /healthz                      daemon reachability (no auth)
    GET    /v1/backends                  registered backend names
    POST   /v1/jobs                      submit; body {"job": <wire job>,
                                         "timeout", "max_retries", "key",
                                         "priority", "deadline",
                                         "keep_program"}
    GET    /v1/jobs                      job summaries
    GET    /v1/jobs/<id>                 one job's status summary
    GET    /v1/jobs/<id>/result         ?wait=1&timeout=S blocks for it
    GET    /v1/jobs/<id>/program         captured program (keep_program)
    DELETE /v1/jobs/<id>                 cancel
    GET    /v1/stats                     daemon stats + gateway counters

Authentication is a per-client token table: ``Authorization: Bearer
<token>`` or ``X-Repro-Token: <token>``.  Unknown tokens get 401.  Each
token may carry a **submit quota** — a cap on accepted submissions
through this gateway — answered with 429 once exhausted.  With no token
table the gateway is open (trusted-network mode), with an optional
anonymous quota.

Fidelity matters more than convenience: the gateway relays the daemon's
**raw wire payloads** (metrics, summaries) without decoding and
re-encoding them, so a REST ``result`` is byte-for-byte the JSON the
socket client would decode — the equivalence the farm acceptance test
asserts.  Programs are the one translation: the daemon attaches a v3
binary record, and the gateway answers with the v2 columnar JSON document
(:func:`~repro.core.serialize.program_to_dict`) decoded from it.
"""

from __future__ import annotations

import json
import logging
import re
import signal
import sys
import threading
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any
from urllib.parse import parse_qs, urlparse

from ..core.serialize import program_to_dict
from .client import RemoteError, ServiceClient, ServiceUnavailable

log = logging.getLogger("repro.service")

#: request body cap — a wire job comfortably fits
MAX_BODY_BYTES = 32 * 2**20


class GatewayError(Exception):
    """An HTTP-level rejection: carries the status code to answer with."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


@dataclass(frozen=True)
class TokenPolicy:
    """One client credential: the token, a display name, and an optional
    cap on submissions accepted through this gateway."""

    token: str
    name: str
    submit_quota: int | None = None


class GatewayAuth:
    """Token table + per-client submit accounting (thread-safe).

    ``policies=None`` runs the gateway open — any caller is "anonymous",
    bounded only by *anonymous_quota*.  With a table, a missing or
    unknown token is a 401 and an exhausted quota a 429.
    """

    def __init__(
        self,
        policies: list[TokenPolicy] | None = None,
        anonymous_quota: int | None = None,
    ) -> None:
        self._by_token = (
            {p.token: p for p in policies} if policies is not None else None
        )
        self._anonymous = TokenPolicy(
            token="", name="anonymous", submit_quota=anonymous_quota
        )
        self._submitted: dict[str, int] = {}
        self._rejected = 0
        self._lock = threading.Lock()

    @classmethod
    def from_file(
        cls, path: str | Path, anonymous_quota: int | None = None
    ) -> "GatewayAuth":
        """Load a token table: ``{"tokens": [{"token", "name", "quota"}]}``."""
        data = json.loads(Path(path).read_text())
        policies = [
            TokenPolicy(
                token=str(entry["token"]),
                name=str(entry.get("name", entry["token"][:8])),
                submit_quota=(
                    int(entry["quota"]) if entry.get("quota") is not None
                    else None
                ),
            )
            for entry in data.get("tokens", [])
        ]
        return cls(policies, anonymous_quota=anonymous_quota)

    @property
    def open(self) -> bool:
        return self._by_token is None

    def authenticate(self, token: str | None) -> TokenPolicy:
        if self._by_token is None:
            return self._anonymous
        if not token:
            raise GatewayError(
                401, "missing credentials: pass Authorization: Bearer "
                "<token> or X-Repro-Token"
            )
        policy = self._by_token.get(token)
        if policy is None:
            raise GatewayError(401, "unknown token")
        return policy

    def charge_submit(self, policy: TokenPolicy) -> None:
        """Count one submission against *policy*; 429 when over quota."""
        with self._lock:
            used = self._submitted.get(policy.name, 0)
            if (
                policy.submit_quota is not None
                and used >= policy.submit_quota
            ):
                self._rejected += 1
                raise GatewayError(
                    429,
                    f"submit quota exhausted for {policy.name!r} "
                    f"({used}/{policy.submit_quota} used)",
                )
            self._submitted[policy.name] = used + 1

    def counters(self) -> dict[str, Any]:
        with self._lock:
            return {
                "submits_per_client": dict(self._submitted),
                "rejected_submits": self._rejected,
                "open": self.open,
            }


_ROUTES = [
    ("GET", re.compile(r"^/healthz$"), "healthz"),
    ("GET", re.compile(r"^/v1/backends$"), "backends"),
    ("POST", re.compile(r"^/v1/jobs$"), "submit"),
    ("GET", re.compile(r"^/v1/jobs$"), "jobs"),
    ("GET", re.compile(r"^/v1/stats$"), "stats"),
    ("GET", re.compile(r"^/v1/jobs/(?P<id>[\w.:-]+)/result$"), "result"),
    ("GET", re.compile(r"^/v1/jobs/(?P<id>[\w.:-]+)/program$"), "program"),
    ("GET", re.compile(r"^/v1/jobs/(?P<id>[\w.:-]+)$"), "status"),
    ("DELETE", re.compile(r"^/v1/jobs/(?P<id>[\w.:-]+)$"), "cancel"),
]


class _GatewayHandler(BaseHTTPRequestHandler):
    """Routes one HTTP request onto the daemon socket protocol."""

    protocol_version = "HTTP/1.1"
    server: "GatewayServer"

    # -- plumbing ------------------------------------------------------------

    def log_message(self, format: str, *args: Any) -> None:
        log.debug("gateway: " + format, *args)

    def _reply(self, status: int, payload: dict[str, Any]) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _token(self) -> str | None:
        header = self.headers.get("Authorization")
        if header and header.lower().startswith("bearer "):
            return header[len("bearer ") :].strip()
        return self.headers.get("X-Repro-Token")

    def _body(self) -> dict[str, Any]:
        header = self.headers.get("Content-Length")
        try:
            length = int(header) if header else 0
        except (TypeError, ValueError):
            # A malformed header is the client's fault: 400, not a 500
            # from the int() blowing up mid-dispatch.
            raise GatewayError(400, f"bad Content-Length: {header!r}")
        if length < 0:
            raise GatewayError(400, f"bad Content-Length: {header!r}")
        if length > MAX_BODY_BYTES:
            raise GatewayError(413, f"request body over {MAX_BODY_BYTES} bytes")
        # rfile.read(n) may return short on a socket stream; loop until the
        # declared length arrives or the client hangs up early.
        chunks: list[bytes] = []
        got = 0
        while got < length:
            chunk = self.rfile.read(length - got)
            if not chunk:
                raise GatewayError(400, "request body truncated")
            chunks.append(chunk)
            got += len(chunk)
        raw = b"".join(chunks)
        if not raw:
            return {}
        try:
            body = json.loads(raw)
        except (ValueError, RecursionError) as exc:
            # ValueError covers bad JSON, undecodable text and over-long
            # integer literals; RecursionError, nesting past the parser's
            # depth limit — all the client's fault, none worth a 500
            raise GatewayError(400, f"request body is not JSON: {exc}")
        if not isinstance(body, dict):
            raise GatewayError(400, "request body must be a JSON object")
        return body

    def _dispatch(self, method: str) -> None:
        gateway = self.server.gateway
        parsed = urlparse(self.path)
        query = {k: v[-1] for k, v in parse_qs(parsed.query).items()}
        try:
            for verb, pattern, name in _ROUTES:
                if verb != method:
                    continue
                match = pattern.match(parsed.path)
                if match is None:
                    continue
                handler = getattr(self, f"_op_{name}")
                status, payload = handler(gateway, match.groupdict(), query)
                self._reply(status, payload)
                return
            raise GatewayError(404, f"no route for {method} {parsed.path}")
        except GatewayError as exc:
            self._reply(exc.status, {"error": str(exc)})
        except ServiceUnavailable as exc:
            self._reply(503, {"error": f"compile daemon unreachable: {exc}"})
        except RemoteError as exc:
            status = 404 if "unknown job" in str(exc) else 400
            self._reply(status, {"error": str(exc)})
        except Exception as exc:  # last-resort: never drop the connection
            log.exception("gateway: unhandled error on %s %s", method, self.path)
            self._reply(500, {"error": f"gateway failure: {exc}"})

    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._dispatch("DELETE")

    # -- operations ----------------------------------------------------------
    # Each returns (status, payload).  Daemon payloads (metrics, summaries)
    # are relayed verbatim — no decode/re-encode on this hop; programs
    # arrive as v3 records and leave as v2 JSON documents.

    def _op_healthz(
        self, gateway: "HttpGateway", path: dict, query: dict
    ) -> tuple[int, dict[str, Any]]:
        client = gateway.client()
        try:
            client.ping(timeout=5.0)
        except (ServiceUnavailable, OSError) as exc:
            return 503, {"ok": False, "error": str(exc)}
        return 200, {"ok": True, "daemon": gateway.daemon_address}

    def _authenticated(self, gateway: "HttpGateway") -> TokenPolicy:
        return gateway.auth.authenticate(self._token())

    def _op_backends(
        self, gateway: "HttpGateway", path: dict, query: dict
    ) -> tuple[int, dict[str, Any]]:
        self._authenticated(gateway)
        return 200, {"backends": gateway.client().backends()}

    def _op_submit(
        self, gateway: "HttpGateway", path: dict, query: dict
    ) -> tuple[int, dict[str, Any]]:
        policy = self._authenticated(gateway)
        body = self._body()
        job = body.get("job")
        if not isinstance(job, dict):
            raise GatewayError(
                400, 'submit body needs {"job": <wire-encoded job>}'
            )
        gateway.auth.charge_submit(policy)
        request: dict[str, Any] = {"op": "submit", "job": job}
        for knob in (
            "timeout", "max_retries", "key", "priority", "deadline",
            "keep_program",
        ):
            if body.get(knob) is not None:
                request[knob] = body[knob]
        response = gateway.client().request(request)
        return 202, {"id": response["id"]}

    def _op_jobs(
        self, gateway: "HttpGateway", path: dict, query: dict
    ) -> tuple[int, dict[str, Any]]:
        self._authenticated(gateway)
        response = gateway.client().request({"op": "jobs"})
        return 200, {"jobs": response["jobs"]}

    def _op_status(
        self, gateway: "HttpGateway", path: dict, query: dict
    ) -> tuple[int, dict[str, Any]]:
        self._authenticated(gateway)
        response = gateway.client().request(
            {"op": "status", "id": path["id"]}
        )
        return 200, {"job": response["job"]}

    def _op_result(
        self, gateway: "HttpGateway", path: dict, query: dict
    ) -> tuple[int, dict[str, Any]]:
        self._authenticated(gateway)
        wait = query.get("wait", "") in ("1", "true", "yes")
        try:
            timeout = float(query.get("timeout", 300.0))
        except ValueError:
            raise GatewayError(400, f"bad timeout {query.get('timeout')!r}")
        response = gateway.client().request(
            {"op": "result", "id": path["id"], "wait": wait,
             "timeout": timeout},
            # socket slack past the server-side deadline, as the socket
            # client does
            timeout=timeout + 30.0,
        )
        return 200, {"metrics": response["metrics"]}

    def _op_program(
        self, gateway: "HttpGateway", path: dict, query: dict
    ) -> tuple[int, dict[str, Any]]:
        self._authenticated(gateway)
        store = gateway.client().program(path["id"])
        return 200, {"program": program_to_dict(store)}

    def _op_cancel(
        self, gateway: "HttpGateway", path: dict, query: dict
    ) -> tuple[int, dict[str, Any]]:
        self._authenticated(gateway)
        response = gateway.client().request(
            {"op": "cancel", "id": path["id"]}
        )
        return 200, {"cancelled": response["cancelled"]}

    def _op_stats(
        self, gateway: "HttpGateway", path: dict, query: dict
    ) -> tuple[int, dict[str, Any]]:
        self._authenticated(gateway)
        response = gateway.client().request({"op": "stats"})
        return 200, {
            "stats": response["stats"],
            "gateway": gateway.auth.counters(),
        }


class GatewayServer(ThreadingHTTPServer):
    daemon_threads = True
    gateway: "HttpGateway"


class HttpGateway:
    """The REST front door: binds an HTTP listener, relays to one daemon.

    Thread-per-request (:class:`ThreadingHTTPServer`) so a long ``result
    ?wait=1`` poll cannot block other clients; every request opens its
    own short-lived daemon connection, exactly like the socket client."""

    def __init__(
        self,
        socket_path: str | Path | None = None,
        daemon_host: str = "127.0.0.1",
        daemon_port: int | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        auth: GatewayAuth | None = None,
    ) -> None:
        if socket_path is None and daemon_port is None:
            raise ValueError("need the daemon's socket_path or port")
        self._socket_path = socket_path
        self._daemon_host = daemon_host
        self._daemon_port = daemon_port
        self.auth = auth if auth is not None else GatewayAuth()
        self._httpd = GatewayServer((host, int(port)), _GatewayHandler)
        self._httpd.gateway = self
        self.host, self.port = self._httpd.server_address[:2]
        self._thread: threading.Thread | None = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def daemon_address(self) -> str:
        if self._socket_path is not None:
            return f"unix:{self._socket_path}"
        return f"tcp:{self._daemon_host}:{self._daemon_port}"

    def client(self) -> ServiceClient:
        """A fresh per-request client (connection-stateless, like the
        daemon); retries stay low — HTTP callers have their own."""
        return ServiceClient(
            socket_path=self._socket_path,
            host=self._daemon_host,
            port=self._daemon_port,
            retries=1,
        )

    def start(self) -> None:
        """Serve in a background thread (tests and embedded use)."""
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            daemon=True,
        )
        self._thread.start()

    def serve_forever(self) -> None:
        """Serve on the calling thread (the CLI entry point)."""
        self._httpd.serve_forever(poll_interval=0.1)

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None


def serve_gateway(
    socket_path: str | None = None,
    daemon_host: str = "127.0.0.1",
    daemon_port: int | None = None,
    host: str = "127.0.0.1",
    port: int = 0,
    auth_file: str | None = None,
    anonymous_quota: int | None = None,
) -> int:
    """Blocking entry point used by ``python -m repro gateway``."""
    logging.basicConfig(
        level=logging.INFO,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    auth = (
        GatewayAuth.from_file(auth_file, anonymous_quota=anonymous_quota)
        if auth_file is not None
        else GatewayAuth(anonymous_quota=anonymous_quota)
    )
    gateway = HttpGateway(
        socket_path=socket_path,
        daemon_host=daemon_host,
        daemon_port=daemon_port,
        host=host,
        port=port,
        auth=auth,
    )
    # Machine-parseable readiness line, mirroring `repro serve`.
    print(f"repro-gateway: listening on {gateway.url}", flush=True)
    # SIGTERM (the supervisor's stop signal) exits 0 like Ctrl-C does.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    try:
        gateway.serve_forever()
    except (KeyboardInterrupt, SystemExit):
        pass
    finally:
        gateway.close()
    return 0
