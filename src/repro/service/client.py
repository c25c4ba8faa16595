"""Synchronous client for the compile-service daemon.

Speaks the binary-frame protocol (:mod:`repro.service.wire`) of
:class:`~repro.service.server.ServiceServer` over a Unix or TCP socket, one
connection per request (the daemon is connection-stateless).  Results
come back as real :class:`~repro.analysis.metrics.CompiledMetrics` objects,
decoded from the wire form, so callers can treat a service compile exactly
like a local one.

    client = ServiceClient(socket_path="/tmp/repro.sock")
    job_id = client.submit(CompileJob("Atomique", circuit))
    metrics = client.result(job_id, wait=True)

Transient transport failures (daemon restarting, connection reset, a
dropped socket) are retried with exponential backoff and jitter.  The
retry rule is strict about duplicates: a request that *may have reached
the daemon* (the socket died after the request was written) is only
retried when repeating it is safe — read-only ops, ``cancel``, and
``submit`` carrying an idempotency ``key`` (the daemon deduplicates on
the key, so the retry returns the original job id instead of enqueuing a
second job).  A keyless submit whose response was lost raises
:class:`ServiceUnavailable` rather than risk compiling the job twice.
"""

from __future__ import annotations

import random
import socket
import time
from pathlib import Path
from typing import Any, Iterator

from ..analysis.metrics import CompiledMetrics
from ..experiments.batch import CompileJob
from .wire import (
    FRAME_HEADER_LEN,
    BinaryDoc,
    JobControl,
    WireError,
    decode_frame_payload,
    decode_metrics,
    encode_frame,
    encode_job,
    encode_job_control,
    parse_frame_header,
)

#: Ops that are safe to repeat verbatim even when the first copy may have
#: been processed.  ``submit`` joins this set only when it carries an
#: idempotency key.
_IDEMPOTENT_OPS = frozenset(
    {"ping", "backends", "status", "result", "program", "cancel", "jobs",
     "stats"}
)


class ServiceUnavailable(ConnectionError):
    """The daemon could not be reached, or the connection died mid-request.

    ``request_sent`` distinguishes "never reached the daemon" (always safe
    to retry) from "the request was written but no response came back"
    (retried only for idempotent ops)."""

    request_sent: bool = False


class RemoteError(RuntimeError):
    """The daemon rejected a request (its error message is the payload)."""


def _decode_program(message: dict[str, Any]):
    """The :class:`~repro.core.program.ProgramStore` a ``program`` response
    or stream event carries; an absent or undecodable record raises
    :class:`RemoteError`, like any other undecodable response."""
    doc = message.get("program")
    if not isinstance(doc, BinaryDoc):
        raise RemoteError("program response without a binary record")
    try:
        return doc.to_store()
    except WireError as exc:
        raise RemoteError(f"undecodable service response: {exc}") from exc


class ServiceClient:
    """One client endpoint: either ``socket_path`` (Unix) or ``host``/``port``.

    *retries*/*backoff_base*/*backoff_cap* shape the transient-failure
    policy: attempt n sleeps ``min(base * 2**n, cap)`` scaled by a jitter
    factor in [0.5, 1.5).  *backoff_seed* makes the jitter sequence
    deterministic — the chaos tests pin it so a replayed fault plan meets
    an identical retry schedule."""

    def __init__(
        self,
        socket_path: str | Path | None = None,
        host: str = "127.0.0.1",
        port: int | None = None,
        timeout: float = 300.0,
        retries: int = 3,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        backoff_seed: int | None = None,
    ) -> None:
        if socket_path is None and port is None:
            raise ValueError("need a socket_path or a port")
        self.socket_path = str(socket_path) if socket_path is not None else None
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self._jitter = random.Random(backoff_seed)
        #: program-transfer accounting of the last :meth:`result_stream`
        #: call — ``{"binary_chunks": 1}`` when a program arrived, else 0
        self.last_stream_stats: dict[str, int] | None = None

    # -- transport -----------------------------------------------------------

    def _connect(self, timeout: float) -> socket.socket:
        try:
            if self.socket_path is not None:
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                try:
                    sock.settimeout(timeout)
                    sock.connect(self.socket_path)
                except OSError:
                    sock.close()
                    raise
                return sock
            assert self.port is not None
            return socket.create_connection(
                (self.host, self.port), timeout=timeout
            )
        except OSError as exc:
            raise ServiceUnavailable(
                f"cannot reach compile service at "
                f"{self.socket_path or f'{self.host}:{self.port}'}: {exc}"
            ) from exc

    def request(
        self,
        payload: dict[str, Any],
        timeout: float | None = None,
        idempotent: bool | None = None,
    ) -> dict[str, Any]:
        """Send one op, return the decoded response; raise on ``ok: false``.

        *timeout* overrides the client's socket timeout for this request —
        blocking ops (``result`` with ``wait``, ``drain``) pass a deadline
        comfortably past the server-side one so the server's answer,
        including its timeout error, always arrives before the socket
        gives up.

        Transient :class:`ServiceUnavailable` failures retry up to
        ``self.retries`` times with exponential backoff; *idempotent*
        overrides the built-in safe-to-repeat classification (see module
        docstring).  :class:`RemoteError` — the daemon answered and said
        no — never retries."""
        op = payload.get("op")
        if idempotent is None:
            idempotent = op in _IDEMPOTENT_OPS or (
                op == "submit" and payload.get("key") is not None
            )
        attempt = 0
        while True:
            try:
                return self._request_once(payload, timeout)
            except ServiceUnavailable as exc:
                attempt += 1
                if attempt > self.retries:
                    raise
                if exc.request_sent and not idempotent:
                    raise
                delay = min(
                    self.backoff_base * (2 ** (attempt - 1)), self.backoff_cap
                )
                time.sleep(delay * (0.5 + self._jitter.random()))

    def _read_message(self, stream) -> dict[str, Any] | None:
        """One response frame off *stream*.

        Returns ``None`` on a cleanly closed stream; raises
        :class:`~repro.service.wire.WireError` on truncated or corrupt
        frames — a bad length prefix fails here instead of hanging."""
        header = stream.read(FRAME_HEADER_LEN)
        if not header:
            return None
        if len(header) != FRAME_HEADER_LEN:
            raise WireError("frame truncated: incomplete header")
        flags, length = parse_frame_header(header)
        body = stream.read(length)
        if len(body) != length:
            raise WireError(
                f"frame truncated: header says {length} bytes, got {len(body)}"
            )
        return decode_frame_payload(flags, body)

    def _exchange(
        self, payload: dict[str, Any], timeout: float
    ) -> Iterator[dict[str, Any]]:
        """Send *payload* as one frame on a fresh connection and yield the
        ``ok`` response messages until the caller stops reading.

        An ``ok: false`` message raises :class:`RemoteError`; a connection
        that closes before the caller is done raises
        :class:`ServiceUnavailable` with ``request_sent`` set, since the
        daemon may or may not have processed the request."""
        data_out = encode_frame(payload)
        sock = self._connect(timeout)
        sent = False
        try:
            with sock.makefile("rwb") as stream:
                stream.write(data_out)
                stream.flush()
                sent = True
                while True:
                    message = self._read_message(stream)
                    if message is None:
                        failure = ServiceUnavailable(
                            "connection closed before a response"
                        )
                        failure.request_sent = True
                        raise failure
                    if not message.get("ok"):
                        raise RemoteError(
                            message.get("error", "unknown service error")
                        )
                    yield message
        except WireError as exc:
            raise RemoteError(f"undecodable service response: {exc}") from exc
        except ServiceUnavailable:
            raise
        except OSError as exc:  # read timeout / reset mid-request
            failure = ServiceUnavailable(
                f"no response from compile service: {exc}"
            )
            failure.request_sent = sent
            raise failure from exc
        finally:
            sock.close()

    def _request_once(
        self, payload: dict[str, Any], timeout: float | None = None
    ) -> dict[str, Any]:
        """One wire round-trip (the retry loop lives in :meth:`request`)."""
        messages = self._exchange(
            payload, timeout if timeout is not None else self.timeout
        )
        try:
            return next(messages)
        finally:
            messages.close()

    # -- ops -----------------------------------------------------------------

    def ping(self, timeout: float | None = None) -> bool:
        return bool(self.request({"op": "ping"}, timeout=timeout)["ok"])

    def wait_ready(self, timeout: float = 10.0, poll: float = 0.05) -> None:
        """Block until the daemon answers pings (boot synchronization).

        Each probe uses a short socket timeout of its own: a live daemon
        answers in milliseconds, and a connect that lands in a dead
        listener's backlog (never accepted) must not absorb the whole
        deadline in one blocking ``recv``."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                self.ping(timeout=5.0)
                return
            except (ServiceUnavailable, OSError):
                if time.monotonic() >= deadline:
                    raise
                time.sleep(poll)

    def backends(self) -> list[str]:
        return list(self.request({"op": "backends"})["backends"])

    def submit(
        self,
        job: CompileJob | dict[str, Any],
        timeout: float | None = None,
        max_retries: int | None = None,
        key: str | None = None,
        priority: int | None = None,
        deadline: float | None = None,
        keep_program: bool = False,
    ) -> str:
        """Submit one job; returns its id.

        *timeout* and *max_retries* bound the daemon-side attempts; *key*
        makes the submission idempotent (and thereby retryable across a
        dropped socket): the daemon returns the existing job's id for a
        key it has already accepted.  *priority* (higher dispatches
        first) and *deadline* (seconds from now the job must dispatch by)
        shape queue ordering; *keep_program* captures the compiled
        program for :meth:`program` (Atomique jobs only)."""
        payload = encode_job(job) if isinstance(job, CompileJob) else job
        request: dict[str, Any] = {"op": "submit", "job": payload}
        request.update(
            encode_job_control(
                JobControl(
                    timeout=timeout,
                    max_retries=max_retries,
                    key=key,
                    priority=priority,
                    deadline=deadline,
                    keep_program=keep_program,
                )
            )
        )
        return str(self.request(request)["id"])

    def submit_many(
        self,
        jobs: list[CompileJob | dict[str, Any]],
        timeout: float | None = None,
        max_retries: int | None = None,
    ) -> list[str]:
        return [
            self.submit(job, timeout=timeout, max_retries=max_retries)
            for job in jobs
        ]

    def status(self, job_id: str) -> dict[str, Any]:
        return dict(self.request({"op": "status", "id": job_id})["job"])

    def result(
        self, job_id: str, wait: bool = True, timeout: float | None = None
    ) -> CompiledMetrics:
        server_timeout = timeout if timeout is not None else self.timeout
        response = self.request(
            {
                "op": "result",
                "id": job_id,
                "wait": wait,
                "timeout": server_timeout,
            },
            # The server enforces the deadline; give the socket slack so
            # its timeout error (not a bare socket timeout) reaches us.
            timeout=server_timeout + 30.0,
        )
        return decode_metrics(response["metrics"])

    def results(self, job_ids: list[str]) -> list[CompiledMetrics]:
        """Results in the given (submission) order, waiting for each."""
        return [self.result(job_id, wait=True) for job_id in job_ids]

    def result_stream(
        self,
        job_id: str,
        timeout: float | None = None,
        on_event: Any = None,
    ):
        """Streaming :meth:`result`: per-pass progress plus the compiled
        program, over one connection.

        Returns ``(metrics, store)`` where *store* is the
        :class:`~repro.core.program.ProgramStore` of a job submitted with
        ``keep_program=True`` (else ``None``).  *on_event* — if given — is
        called with each raw ``progress`` message as it arrives (keys
        ``pass``, ``index``, ``total``, ``seconds``, ``attempt``).  The
        program arrives as one ``program`` event carrying the daemon's
        spooled v3 record byte for byte, decoded here exactly like a
        :meth:`program` fetch."""
        server_timeout = timeout if timeout is not None else self.timeout
        payload: dict[str, Any] = {
            "op": "result",
            "id": job_id,
            "wait": True,
            "stream": True,
            "timeout": server_timeout,
        }
        metrics_payload: dict[str, Any] | None = None
        store = None
        # Server enforces the deadline; give the socket slack (see result).
        messages = self._exchange(payload, server_timeout + 30.0)
        try:
            for message in messages:
                event = message.get("event")
                if event == "progress":
                    if on_event is not None:
                        on_event(dict(message))
                elif event == "program":
                    store = _decode_program(message)
                elif event == "done":
                    metrics_payload = message["metrics"]
                    break
                # Unknown events from a newer daemon are skipped.
        finally:
            messages.close()
        self.last_stream_stats = {"binary_chunks": int(store is not None)}
        return decode_metrics(metrics_payload), store

    def program(self, job_id: str):
        """The compiled program of a DONE job submitted with
        ``keep_program=True``, decoded to a
        :class:`~repro.core.program.ProgramStore` from the v3 binary
        record the daemon attaches to its response."""
        return _decode_program(self.request({"op": "program", "id": job_id}))

    def cancel(self, job_id: str) -> bool:
        return bool(self.request({"op": "cancel", "id": job_id})["cancelled"])

    def jobs(self) -> list[dict[str, Any]]:
        return list(self.request({"op": "jobs"})["jobs"])

    def stats(self) -> dict[str, Any]:
        return dict(self.request({"op": "stats"})["stats"])

    def drain(self, timeout: float | None = None) -> int:
        """Finish everything queued and shut the daemon down; returns the
        number of jobs completed during the drain.  Blocks until the
        daemon has finished its backlog (*timeout* bounds the wait)."""
        return int(
            self.request(
                {"op": "drain"},
                timeout=timeout if timeout is not None else self.timeout,
            )["finished"]
        )
