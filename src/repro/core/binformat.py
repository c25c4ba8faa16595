"""v3 binary columnar program codec: packed typed little-endian columns.

The v2 columnar JSON document (:mod:`repro.core.serialize`) renders every
scalar through ``repr`` and parses it back one token at a time — the last
order-of-magnitude hotspot on the large-program result path.  This module
keeps the exact same *logical* document (the ``_COLUMN_SPEC`` columns plus
the CSR stage-offset tables) but packs each column as a typed blob:

* all-``int`` columns -> the narrowest signed width that holds the
  range (``<i1``/``<i2``/``<i4``, ``<i8`` past 32-bit — qubit indices
  and AOD flags are mostly one byte each),
* all-``float`` columns -> ``<f8`` (bit-exact: stricter than JSON's
  repr-exact text),
* all-``str`` columns -> an interned table in the meta header plus a
  ``<u1``/``<u2``/``<u4`` index blob,
* ragged ``params`` columns -> a flattened values blob plus CSR offsets,
* anything mixed falls back to inline JSON in the meta header (exactness
  over compactness; never hit by router output).

Record layout::

    b"\\xabP3" | codec u8 | meta_len u32 LE | meta JSON | section blobs...

The meta JSON carries the record ``kind`` (always ``"program"``; the
decoder rejects any other), the scalar header fields, and an *ordered*
section table with per-section byte lengths, from which the decoder
locates every column.  The leading ``0xAB`` byte makes records first-byte
sniffable against JSON text (``{``) in spool files.

Round trips are type- and bit-exact: ``decode_program(encode_program(s))``
compares equal to ``s`` field by field, and re-serializing the decoded
store to a v2 JSON document is byte-identical to serializing the original.
"""

from __future__ import annotations

import json
from typing import Any, Callable

import numpy as np

from ..hardware.raa import AtomLocation
from .program import _SECTION, ProgramStore
from .serialize import _common_header

#: the ``format_version`` this codec implements ("v3" next to the JSON v2)
BINARY_FORMAT_VERSION = 3
#: record magic; first byte 0xAB distinguishes binary records from JSON text
MAGIC = b"\xabP3"
#: layout revision of the record framing itself
_CODEC_VERSION = 1
#: magic + codec byte + u32 meta length
_PREAMBLE_LEN = len(MAGIC) + 1 + 4

_I32_MIN, _I32_MAX = -(2**31), 2**31 - 1

#: narrowest-first signed widths tried for all-int columns
_INT_WIDTHS = (
    ("i8", np.int8, -(2**7), 2**7 - 1, 1),
    ("i16", np.int16, -(2**15), 2**15 - 1, 2),
    ("i32", np.int32, _I32_MIN, _I32_MAX, 4),
)

_DTYPES = {
    "i8": "<i1",
    "i16": "<i2",
    "i32": "<i4",
    "i64": "<i8",
    "f64": "<f8",
    "s8": "<u1",
    "s16": "<u2",
    "s32": "<u4",
}

_EMPTY = b""


class BinformatError(ValueError):
    """A malformed or truncated binary program record."""


def is_binary_record(data: bytes) -> bool:
    """Cheap sniff: does *data* start like a v3 binary record?"""
    return data[: len(MAGIC)] == MAGIC


# -- section packing -----------------------------------------------------------


def _pack_scalars(
    name: str,
    values: list,
    get_array: "Callable[[Any], np.ndarray] | None" = None,
) -> tuple[dict, bytes]:
    """One homogeneous column -> (section descriptor, blob).

    Type detection is exact (``set(map(type, ...))``), so python's
    ``int``/``float``/``str`` distinction survives the round trip; mixed
    or exotic columns fall back to inline JSON in the descriptor.
    *get_array* optionally supplies a cached numpy view of the column
    (:meth:`ProgramStore.column_array`) to skip re-conversion.
    """
    n = len(values)
    if n == 0:
        return {"n": name, "c": "empty", "len": 0, "nb": 0}, _EMPTY
    kinds = set(map(type, values))
    if kinds == {int}:
        try:
            arr = (
                get_array(np.int64)
                if get_array is not None
                else np.asarray(values, dtype=np.int64)
            )
        except OverflowError:
            return {"n": name, "c": "json", "len": n, "nb": 0,
                    "vals": list(values)}, _EMPTY
        lo, hi = int(arr.min()), int(arr.max())
        for code, np_dtype, dmin, dmax, width in _INT_WIDTHS:
            if dmin <= lo and hi <= dmax:
                return {"n": name, "c": code, "len": n,
                        "nb": width * n}, arr.astype(np_dtype).tobytes()
        return {"n": name, "c": "i64", "len": n, "nb": 8 * n}, arr.tobytes()
    if kinds == {float}:
        arr = (
            get_array(np.float64)
            if get_array is not None
            else np.asarray(values, dtype=np.float64)
        )
        return {"n": name, "c": "f64", "len": n, "nb": 8 * n}, arr.tobytes()
    if kinds == {str}:
        table: dict[str, int] = {}
        index = [table.setdefault(v, len(table)) for v in values]
        size = len(table)
        if size <= 0xFF:
            dtype, code = np.uint8, "s8"
        elif size <= 0xFFFF:
            dtype, code = np.uint16, "s16"
        else:
            dtype, code = np.uint32, "s32"
        blob = np.asarray(index, dtype=dtype).tobytes()
        return {"n": name, "c": code, "len": n, "nb": len(blob),
                "tab": list(table)}, blob
    # mixed types (or bools, or anything else): exactness over compactness
    return {"n": name, "c": "json", "len": n, "nb": 0,
            "vals": list(values)}, _EMPTY


def _pack_ragged(name: str, rows: list) -> tuple[list[dict], list[bytes]]:
    """A ragged column (tuples/lists per row) -> values + CSR offsets."""
    offsets = [0]
    flat: list = []
    total = 0
    append = offsets.append
    extend = flat.extend
    for row in rows:
        total += len(row)
        extend(row)
        append(total)
    vmeta, vblob = _pack_scalars(name + "#values", flat)
    ometa, oblob = _pack_scalars(name + "#offsets", offsets)
    return [vmeta, ometa], [vblob, oblob]


def _unpack_ragged(values: list, offsets: list) -> list[tuple]:
    n = len(offsets) - 1
    if not values:
        return [()] * n
    return [tuple(values[offsets[i]: offsets[i + 1]]) for i in range(n)]


def decode_section(sec: dict, blob: bytes) -> list:
    """Rebuild one column from its descriptor and blob."""
    code = sec.get("c")
    if code == "empty":
        return []
    if code == "json":
        return list(sec["vals"])
    dtype = _DTYPES.get(code)
    if dtype is None:
        raise BinformatError(f"unknown section code {code!r}")
    if len(blob) != sec["nb"]:
        raise BinformatError(
            f"section {sec.get('n')!r}: expected {sec['nb']} bytes, "
            f"got {len(blob)}"
        )
    arr = np.frombuffer(blob, dtype=dtype)
    if code in ("s8", "s16", "s32"):
        tab = sec["tab"]
        try:
            return [tab[i] for i in arr.tolist()]
        except IndexError:
            raise BinformatError(
                f"section {sec.get('n')!r}: string index out of table range"
            ) from None
    return arr.tolist()


# -- record framing ------------------------------------------------------------


def _assemble(header: dict, sections: list[dict], blobs: list[bytes]) -> bytes:
    meta = {
        "kind": "program",
        "format_version": BINARY_FORMAT_VERSION,
        "header": header,
        "sections": sections,
    }
    meta_bytes = json.dumps(meta, separators=(",", ":")).encode("utf-8")
    parts = [
        MAGIC,
        bytes((_CODEC_VERSION,)),
        len(meta_bytes).to_bytes(4, "little"),
        meta_bytes,
    ]
    parts.extend(blobs)
    return b"".join(parts)


def parse_record(data: bytes) -> tuple[dict, int]:
    """Validate the preamble and return ``(meta, payload_offset)``."""
    if len(data) < _PREAMBLE_LEN:
        raise BinformatError(f"record truncated at {len(data)} bytes")
    if not is_binary_record(data):
        raise BinformatError("bad magic: not a binary program record")
    codec = data[len(MAGIC)]
    if codec != _CODEC_VERSION:
        raise BinformatError(f"unsupported binary codec revision {codec}")
    meta_len = int.from_bytes(data[len(MAGIC) + 1: _PREAMBLE_LEN], "little")
    payload_off = _PREAMBLE_LEN + meta_len
    if payload_off > len(data):
        raise BinformatError("record truncated inside the meta header")
    try:
        meta = json.loads(data[_PREAMBLE_LEN:payload_off])
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise BinformatError(f"bad meta header: {exc}") from exc
    if not isinstance(meta, dict) or not isinstance(meta.get("sections"), list):
        raise BinformatError("meta header is not a section-table object")
    return meta, payload_off


def section_index(meta: dict, payload_off: int) -> dict[str, tuple[dict, int, int]]:
    """Name -> ``(descriptor, start, end)`` byte ranges inside the record.

    Sections are laid out back to back in table order, so the ranges come
    from a running sum of the declared byte lengths.
    """
    out: dict[str, tuple[dict, int, int]] = {}
    pos = payload_off
    for sec in meta["sections"]:
        try:
            name, nb = sec["n"], int(sec["nb"])
        except (TypeError, KeyError) as exc:
            raise BinformatError(f"malformed section descriptor: {sec!r}") from exc
        out[name] = (sec, pos, pos + nb)
        pos += nb
    return out


def _read(data: bytes, smap: dict, name: str) -> list:
    try:
        sec, lo, hi = smap[name]
    except KeyError:
        raise BinformatError(f"record is missing section {name!r}") from None
    if hi > len(data):
        raise BinformatError(f"section {name!r} extends past the record end")
    return decode_section(sec, data[lo:hi])


# -- whole-document codec ------------------------------------------------------


def _pack_sections(named_columns) -> tuple[list[dict], list[bytes]]:
    """``(section name, values, array getter)`` triples -> sections + blobs;
    ``params`` columns pack ragged."""
    sections: list[dict] = []
    blobs: list[bytes] = []
    for name, values, get_array in named_columns:
        if name.endswith(".params"):
            metas, parts = _pack_ragged(name, values)
            sections.extend(metas)
            blobs.extend(parts)
        else:
            meta, blob = _pack_scalars(name, values, get_array)
            sections.append(meta)
            blobs.append(blob)
    return sections, blobs


def _read_column(data: bytes, smap: dict, name: str) -> list:
    """One column back from its section(s), ragged rows as tuples."""
    if name.endswith(".params"):
        values = _read(data, smap, name + "#values")
        offsets = _read(data, smap, name + "#offsets")
        return _unpack_ragged(values, offsets)
    return _read(data, smap, name)


def encode_program(program: ProgramStore) -> bytes:
    """A full program -> one v3 ``"program"`` record."""
    sections, blobs = _pack_sections(
        (name, getattr(program, attr), _array_getter(program, attr))
        for attr, name in _SECTION.items()
    )
    loss_meta, loss_blob = _pack_scalars("atom_loss_log", program.atom_loss_log)
    sections.append(loss_meta)
    blobs.append(loss_blob)
    header = _common_header(program)
    del header["atom_loss_log"]  # carried as a section, it can be long
    header["emit_seconds"] = program.emit_seconds
    return _assemble(header, sections, blobs)


def _array_getter(store: ProgramStore, attr: str):
    def get(dtype):
        return store.column_array(attr, dtype)

    return get


def decode_program(data: bytes) -> ProgramStore:
    """One v3 ``"program"`` record -> a dense :class:`ProgramStore`.

    The result is bit-identical to decoding the equivalent v2 JSON
    document (same types, same values, same defaulting of timing fields).
    """
    meta, payload_off = parse_record(data)
    if meta.get("kind") != "program":
        raise BinformatError(
            f"expected a program record, got kind {meta.get('kind')!r}"
        )
    smap = section_index(meta, payload_off)
    header = meta["header"]
    kwargs: dict[str, Any] = {
        attr: _read_column(data, smap, name)
        for attr, name in _SECTION.items()
    }
    try:
        return ProgramStore(
            num_qubits=header["num_qubits"],
            qubit_locations={
                int(q): AtomLocation(*loc)
                for q, loc in header["qubit_locations"].items()
            },
            n_vib_final={
                int(q): v for q, v in header["n_vib_final"].items()
            },
            atom_loss_log=_read(data, smap, "atom_loss_log"),
            num_transfers=header["num_transfers"],
            overlap_rejections=header["overlap_rejections"],
            compile_seconds=header["compile_seconds"],
            emit_seconds=header.get("emit_seconds", 0.0),
            **kwargs,
        )
    except (KeyError, TypeError) as exc:
        raise BinformatError(f"malformed program header: {exc}") from exc
