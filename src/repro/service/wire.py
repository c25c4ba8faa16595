"""Wire codecs for the compile service.

A submitted job crosses a process (and possibly machine) boundary, so the
service speaks JSON rather than pickle: a :class:`CompileJob` becomes a
nested dict of primitives, and a finished :class:`CompiledMetrics` comes
back the same way.  Backends are resolved *by name* through the registry on
the server side, so a client never ships code.

Circuits travel as explicit gate lists, not QASM: ``json`` emits floats
with ``repr``-exact shortest round-trip text, so a decoded job is
bit-identical to the submitted one — the differential tests compare a
service compile against a direct in-process compile down to the last bit.

Every ``encode_*``/``decode_*`` pair is lossless for the types the compile
path consumes.  ``pipeline_cache`` never travels: it is process-local
identity state, and the service's workers install their own shard cache.

Every message between :class:`~repro.service.client.ServiceClient` and the
daemon is one **length-prefixed binary frame** (:func:`encode_frame` /
:func:`parse_frame_header` / :func:`decode_frame_payload`): a fixed 8-byte
header — 2 magic bytes, a version, a flags byte, a big-endian u32 payload
length — followed by the JSON body, raw-deflate compressed past
:data:`WIRE_COMPRESS_THRESHOLD`.  Compiled programs — fetched or streamed
— ride as **binary-doc attachments** (:data:`FRAME_FLAG_BINARY_DOC`,
:func:`encode_bindoc_frame`): the body is a u32 length-prefixed JSON
message followed by the spooled v3 record from
:mod:`repro.core.binformat`, byte for byte and never deflated, which the
receiver surfaces as a :class:`BinaryDoc`.  There is no negotiation: both
ends always speak this one format.  The REST gateway
(:mod:`repro.service.http`) is the only JSON-text edge.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import asdict, dataclass
from typing import Any

from ..analysis.metrics import CompiledMetrics
from ..baselines.registry import CompileOptions
from ..circuits.circuit import QuantumCircuit
from ..circuits.gates import Gate
from ..core.compiler import AtomiqueConfig
from ..core.constraints import ConstraintToggles
from ..core.program import ProgramStore
from ..core.router import RouterConfig
from ..experiments.batch import CompileJob
from ..hardware.parameters import HardwareParams
from ..hardware.raa import ArrayShape, RAAArchitecture
from ..noise.fidelity import FidelityReport


class WireError(ValueError):
    """A payload could not be decoded into a compile job."""


#: JSON frame bodies longer than this (encoded bytes) are raw-deflate
#: compressed.  Binary-doc frames never are: a v3 record already packs its
#: columns at their narrowest widths, and deflating it on every send costs
#: more than the bytes it saves on a local socket.
WIRE_COMPRESS_THRESHOLD = 64 * 1024


# -- binary frames -----------------------------------------------------------

#: Frame preamble.  ``0xAB`` is not printable text, so a peer speaking
#: anything else (a JSON line, an HTTP request) fails on its first byte.
FRAME_MAGIC = b"\xabR"

#: Protocol version carried in every frame header.
FRAME_VERSION = 1

#: Flags bit 0: the payload is raw-deflate compressed (no gzip container,
#: no base64 — the length prefix makes both redundant).
FRAME_FLAG_DEFLATE = 0x01

#: Flags bit 1: the payload is a JSON message plus a binary columnar
#: program document — ``u32 BE json_len | json message | v3 record``.  The
#: JSON part carries ``"_bindoc": "<field>"`` naming where the attachment
#: belongs; :func:`decode_frame_payload` restores it as a
#: :class:`BinaryDoc` under that field.
FRAME_FLAG_BINARY_DOC = 0x02

#: All flag bits a receiver understands; anything else is rejected.
_KNOWN_FRAME_FLAGS = FRAME_FLAG_DEFLATE | FRAME_FLAG_BINARY_DOC

#: magic (2) + version (1) + flags (1) + payload length (u32 big-endian)
FRAME_HEADER_LEN = 8

#: Upper bound on a frame's payload length; a corrupt or hostile length
#: prefix fails fast instead of waiting on bytes that never arrive.
MAX_FRAME_BYTES = 256 * 2**20


def _seal(body: bytes, flags: int) -> bytes:
    """Header + *body*, as it is."""
    if len(body) > MAX_FRAME_BYTES:
        raise WireError(
            f"frame payload {len(body)} bytes exceeds {MAX_FRAME_BYTES}"
        )
    header = (
        FRAME_MAGIC
        + bytes((FRAME_VERSION, flags))
        + len(body).to_bytes(4, "big")
    )
    return header + body


def encode_frame(
    payload: dict[str, Any],
    *,
    threshold: int = WIRE_COMPRESS_THRESHOLD,
) -> bytes:
    """One length-prefixed binary frame for *payload*.

    The JSON body is raw-deflate compressed past *threshold* bytes (no
    base64 step: the length prefix makes a text-safe envelope redundant).
    """
    body, flags = json.dumps(payload).encode(), 0
    if len(body) > threshold:
        packer = zlib.compressobj(wbits=-zlib.MAX_WBITS)
        body = packer.compress(body) + packer.flush()
        flags = FRAME_FLAG_DEFLATE
    return _seal(body, flags)


class BinaryDoc:
    """A v3 binary columnar program record riding inside a frame.

    The wire layer does not decode the record — it hands the raw bytes to
    the consumer, which decodes them with :meth:`to_store` or forwards
    ``.data`` untouched (spool writes, relays).
    """

    __slots__ = ("data",)

    def __init__(self, data: bytes) -> None:
        self.data = data

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BinaryDoc({len(self.data)} bytes)"

    def to_store(self) -> ProgramStore:
        """Decode as a whole program (``kind == "program"``)."""
        from ..core import binformat

        try:
            return binformat.decode_program(self.data)
        except (ValueError, KeyError, TypeError) as exc:
            raise WireError(f"bad binary program document: {exc}") from exc


def encode_bindoc_frame(
    payload: dict[str, Any], field: str, doc: bytes
) -> bytes:
    """One frame carrying *payload* plus a binary program document.

    *payload* must not already contain *field* — the document IS that
    field, shipped as raw bytes after the JSON part instead of as JSON
    text.  The body is ``u32 BE json_len | json | doc``, sealed as it is:
    no deflate, so the receiver gets *doc* byte for byte.  A body over
    :data:`MAX_FRAME_BYTES` raises :class:`WireError`.
    """
    if field in payload:
        raise WireError(f"payload already has field {field!r}")
    message = dict(payload)
    message["_bindoc"] = field
    head = json.dumps(message).encode()
    body = len(head).to_bytes(4, "big") + head + doc
    return _seal(body, FRAME_FLAG_BINARY_DOC)


def parse_frame_header(header: bytes) -> tuple[int, int]:
    """Validate a frame header; returns ``(flags, payload_length)``.

    Raises :class:`WireError` on a short header, wrong magic, unknown
    version or flags, or a length over :data:`MAX_FRAME_BYTES`.
    """
    if len(header) != FRAME_HEADER_LEN or header[:2] != FRAME_MAGIC:
        raise WireError("bad frame header")
    version, flags = header[2], header[3]
    if version != FRAME_VERSION:
        raise WireError(f"unsupported frame version {version}")
    if flags & ~_KNOWN_FRAME_FLAGS:
        raise WireError(f"unknown frame flags 0x{flags:02x}")
    length = int.from_bytes(header[4:8], "big")
    if length > MAX_FRAME_BYTES:
        raise WireError(
            f"frame length {length} bytes exceeds {MAX_FRAME_BYTES}"
        )
    return flags, length


def decode_frame_payload(flags: int, body: bytes) -> dict[str, Any]:
    """Decode a frame body (already read to its prefixed length).

    A :data:`FRAME_FLAG_BINARY_DOC` body decodes to the JSON message with
    its binary attachment restored as a :class:`BinaryDoc` under the field
    named by the ``"_bindoc"`` marker (the marker itself is stripped).
    """
    if flags & FRAME_FLAG_DEFLATE:
        try:
            unpacker = zlib.decompressobj(wbits=-zlib.MAX_WBITS)
            # bounded: a small hostile frame must not inflate without limit
            body = unpacker.decompress(body, MAX_FRAME_BYTES + 1)
            if len(body) > MAX_FRAME_BYTES or unpacker.unconsumed_tail:
                raise WireError(
                    f"inflated frame payload exceeds {MAX_FRAME_BYTES}"
                )
            body += unpacker.flush()
        except zlib.error as exc:
            raise WireError(f"bad deflate frame payload: {exc}") from exc
    doc = b""
    if flags & FRAME_FLAG_BINARY_DOC:
        if len(body) < 4:
            raise WireError("bindoc frame body shorter than its length prefix")
        json_len = int.from_bytes(body[:4], "big")
        if json_len > len(body) - 4:
            raise WireError(
                f"bindoc json length {json_len} exceeds body "
                f"({len(body) - 4} bytes after prefix)"
            )
        body, doc = body[4 : 4 + json_len], body[4 + json_len :]
    try:
        payload = json.loads(body)
    except (ValueError, RecursionError) as exc:
        raise WireError(f"bad frame payload: {exc}") from exc
    if not isinstance(payload, dict):
        raise WireError(
            f"frame payload must be an object, got {type(payload).__name__}"
        )
    if flags & FRAME_FLAG_BINARY_DOC:
        field = payload.pop("_bindoc", None)
        if not isinstance(field, str) or not field:
            raise WireError("bindoc frame missing its _bindoc field marker")
        payload[field] = BinaryDoc(bytes(doc))
    return payload


def decode_frame(data: bytes) -> dict[str, Any]:
    """Decode one complete frame (header + body) from a byte string."""
    flags, length = parse_frame_header(data[:FRAME_HEADER_LEN])
    body = data[FRAME_HEADER_LEN:]
    if len(body) != length:
        raise WireError(
            f"frame truncated: header says {length} bytes, got {len(body)}"
        )
    return decode_frame_payload(flags, body)


# -- circuits ---------------------------------------------------------------


def encode_circuit(circuit: QuantumCircuit) -> dict[str, Any]:
    return {
        "name": circuit.name,
        "num_qubits": circuit.num_qubits,
        "gates": [
            [g.name, list(g.qubits), list(g.params)] for g in circuit.gates
        ],
    }


def decode_circuit(payload: dict[str, Any]) -> QuantumCircuit:
    try:
        circuit = QuantumCircuit(
            int(payload["num_qubits"]), name=str(payload.get("name", "circuit"))
        )
        for name, qubits, params in payload["gates"]:
            circuit.append(Gate(name, tuple(qubits), tuple(params)))
    except (KeyError, TypeError, ValueError) as exc:
        raise WireError(f"bad circuit payload: {exc}") from exc
    return circuit


# -- hardware ---------------------------------------------------------------


def encode_params(params: HardwareParams) -> dict[str, float]:
    return asdict(params)


def decode_params(payload: dict[str, float]) -> HardwareParams:
    try:
        return HardwareParams(**payload)
    except TypeError as exc:
        raise WireError(f"bad hardware params: {exc}") from exc


def encode_architecture(arch: RAAArchitecture) -> dict[str, Any]:
    return {
        "slm": [arch.slm_shape.rows, arch.slm_shape.cols],
        "aods": [[s.rows, s.cols] for s in arch.aod_shapes],
        "params": encode_params(arch.params),
    }


def decode_architecture(payload: dict[str, Any]) -> RAAArchitecture:
    try:
        return RAAArchitecture(
            slm_shape=ArrayShape(*payload["slm"]),
            aod_shapes=[ArrayShape(*s) for s in payload["aods"]],
            params=decode_params(payload["params"]),
        )
    except (KeyError, TypeError) as exc:
        raise WireError(f"bad architecture payload: {exc}") from exc


# -- compiler config --------------------------------------------------------


def encode_config(config: AtomiqueConfig) -> dict[str, Any]:
    router = config.router
    return {
        "gamma": config.gamma,
        "array_mapper": config.array_mapper,
        "atom_mapper": config.atom_mapper,
        "seed": config.seed,
        "router": {
            "toggles": asdict(router.toggles),
            "serial": router.serial,
            "max_candidate_sites": router.max_candidate_sites,
            "cooling_threshold": router.cooling_threshold,
            "ordering_trials": router.ordering_trials,
            "seed": router.seed,
        },
    }


def decode_config(payload: dict[str, Any]) -> AtomiqueConfig:
    try:
        r = payload["router"]
        router = RouterConfig(
            toggles=ConstraintToggles(**r["toggles"]),
            serial=bool(r["serial"]),
            max_candidate_sites=int(r["max_candidate_sites"]),
            cooling_threshold=(
                None
                if r["cooling_threshold"] is None
                else float(r["cooling_threshold"])
            ),
            ordering_trials=int(r["ordering_trials"]),
            seed=int(r["seed"]),
        )
        return AtomiqueConfig(
            gamma=float(payload["gamma"]),
            array_mapper=str(payload["array_mapper"]),
            atom_mapper=str(payload["atom_mapper"]),
            router=router,
            seed=int(payload["seed"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise WireError(f"bad config payload: {exc}") from exc


# -- options and jobs -------------------------------------------------------


def _freeze(value: Any) -> Any:
    """JSON arrays back to tuples so options stay hashable/cache-keyable."""
    if isinstance(value, list):
        return tuple(_freeze(v) for v in value)
    return value


def encode_options(options: CompileOptions) -> dict[str, Any]:
    return {
        "raa": (
            encode_architecture(options.raa) if options.raa is not None else None
        ),
        "config": (
            encode_config(options.config) if options.config is not None else None
        ),
        "params": (
            encode_params(options.params) if options.params is not None else None
        ),
        "seed": options.seed,
        "label": options.label,
        "extra": [[k, v] for k, v in options.extra],
    }


def decode_options(payload: dict[str, Any]) -> CompileOptions:
    try:
        return CompileOptions(
            raa=(
                decode_architecture(payload["raa"])
                if payload.get("raa") is not None
                else None
            ),
            config=(
                decode_config(payload["config"])
                if payload.get("config") is not None
                else None
            ),
            params=(
                decode_params(payload["params"])
                if payload.get("params") is not None
                else None
            ),
            seed=int(payload.get("seed", 7)),
            label=payload.get("label"),
            extra=tuple(
                (str(k), _freeze(v)) for k, v in payload.get("extra", [])
            ),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise WireError(f"bad options payload: {exc}") from exc


def encode_job(job: CompileJob) -> dict[str, Any]:
    return {
        "backend": job.backend,
        "circuit": encode_circuit(job.circuit),
        "options": encode_options(job.options),
    }


def decode_job(payload: dict[str, Any]) -> CompileJob:
    if not isinstance(payload, dict):
        raise WireError(f"job payload must be a dict, got {type(payload).__name__}")
    try:
        backend = str(payload["backend"])
        circuit = payload["circuit"]
        options = payload.get("options")
    except KeyError as exc:
        raise WireError(f"job payload missing field {exc}") from exc
    return CompileJob(
        backend=backend,
        circuit=decode_circuit(circuit),
        options=(
            decode_options(options) if options is not None else CompileOptions()
        ),
    )


# -- job control (submit-time robustness knobs) ------------------------------


@dataclass(frozen=True)
class JobControl:
    """Per-job fault-tolerance knobs riding alongside a submit request.

    These travel as top-level fields of the ``submit`` op (not inside the
    job payload) because they configure the *queue's* handling of the job
    — timeout enforcement, retry budget, idempotent resubmission — and
    deliberately stay out of every cache key: two submissions differing
    only in their control knobs are the same compile.
    """

    timeout: float | None = None
    max_retries: int | None = None
    key: str | None = None
    #: dispatch priority — higher runs first within a shard (default 0)
    priority: int | None = None
    #: seconds from submission the job must *dispatch* by; expired
    #: undispatched jobs fail with a clear error instead of running late
    deadline: float | None = None
    #: capture the compiled program alongside the metrics (Atomique only)
    keep_program: bool = False


def encode_job_control(control: JobControl) -> dict[str, Any]:
    """The submit-request fields for *control* (absent knobs omitted)."""
    fields: dict[str, Any] = {}
    if control.timeout is not None:
        fields["timeout"] = control.timeout
    if control.max_retries is not None:
        fields["max_retries"] = control.max_retries
    if control.key is not None:
        fields["key"] = control.key
    if control.priority is not None:
        fields["priority"] = control.priority
    if control.deadline is not None:
        fields["deadline"] = control.deadline
    if control.keep_program:
        fields["keep_program"] = True
    return fields


def decode_job_control(request: dict[str, Any]) -> JobControl:
    """Validate and extract the control fields of a submit request."""
    try:
        timeout = request.get("timeout")
        if timeout is not None:
            timeout = float(timeout)
            if timeout <= 0:
                raise ValueError(f"timeout must be > 0, got {timeout}")
        max_retries = request.get("max_retries")
        if max_retries is not None:
            max_retries = int(max_retries)
            if max_retries < 1:
                raise ValueError(
                    f"max_retries must be >= 1, got {max_retries}"
                )
        key = request.get("key")
        if key is not None:
            key = str(key)
        priority = request.get("priority")
        if priority is not None:
            priority = int(priority)
        deadline = request.get("deadline")
        if deadline is not None:
            deadline = float(deadline)
            if deadline <= 0:
                raise ValueError(f"deadline must be > 0, got {deadline}")
        keep_program = bool(request.get("keep_program", False))
    except (TypeError, ValueError) as exc:
        raise WireError(f"bad job control fields: {exc}") from exc
    return JobControl(
        timeout=timeout,
        max_retries=max_retries,
        key=key,
        priority=priority,
        deadline=deadline,
        keep_program=keep_program,
    )


# -- results ----------------------------------------------------------------


def encode_metrics(metrics: CompiledMetrics) -> dict[str, Any]:
    return {
        "benchmark": metrics.benchmark,
        "architecture": metrics.architecture,
        "num_qubits": metrics.num_qubits,
        "num_2q_gates": metrics.num_2q_gates,
        "num_1q_gates": metrics.num_1q_gates,
        "depth": metrics.depth,
        "fidelity": asdict(metrics.fidelity),
        "additional_cnots": metrics.additional_cnots,
        "compile_seconds": metrics.compile_seconds,
        "execution_seconds": metrics.execution_seconds,
        "extras": dict(metrics.extras),
    }


def decode_metrics(payload: dict[str, Any]) -> CompiledMetrics:
    try:
        return CompiledMetrics(
            benchmark=payload["benchmark"],
            architecture=payload["architecture"],
            num_qubits=int(payload["num_qubits"]),
            num_2q_gates=int(payload["num_2q_gates"]),
            num_1q_gates=int(payload["num_1q_gates"]),
            depth=int(payload["depth"]),
            fidelity=FidelityReport(**payload["fidelity"]),
            additional_cnots=int(payload["additional_cnots"]),
            compile_seconds=float(payload["compile_seconds"]),
            execution_seconds=float(payload["execution_seconds"]),
            # re-freeze like decode_options: JSON turned tuple-valued
            # extras into lists, and a bare dict() would keep them that way
            extras={
                str(k): _freeze(v) for k, v in payload["extras"].items()
            },
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise WireError(f"bad metrics payload: {exc}") from exc
