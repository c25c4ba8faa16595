"""JSON (de)serialization of compiled RAA programs: the v2 document.

The v2 document is the readable export of a
:class:`~repro.core.program.ProgramStore` (``repro compile -o``, the REST
gateway's program document): its header fields, flat arrays of numbers per
column, and the CSR stage-offset table — the column layout
``_COLUMN_SPEC`` / ``_OFFSET_SPEC`` states once.  Storage and the
client/daemon wire use the packed v3 records of :mod:`repro.core.binformat`,
which encode the same logical document.

``json`` emits floats with ``repr``-exact shortest round-trip text, so the
document preserves every field the fidelity model reads bit-for-bit.
"""

from __future__ import annotations

import json
from typing import Any

from ..hardware.raa import AtomLocation
from .program import _COLUMN_SPEC, _OFFSET_SPEC, ProgramStore

COLUMNAR_FORMAT_VERSION = 2

#: ``columns`` table layout of the v2 document: family key -> column keys.
DOC_FAMILIES: dict[str, tuple[str, ...]] = {
    fam: tuple(key for f, key, *_ in _COLUMN_SPEC if f == fam)
    for fam, _off_attr in _OFFSET_SPEC
}


def _common_header(program: ProgramStore) -> dict[str, Any]:
    return {
        "num_qubits": program.num_qubits,
        "qubit_locations": {
            str(q): [loc.array, loc.row, loc.col]
            for q, loc in program.qubit_locations.items()
        },
        "n_vib_final": {str(q): v for q, v in program.n_vib_final.items()},
        "atom_loss_log": list(program.atom_loss_log),
        "num_transfers": program.num_transfers,
        "overlap_rejections": program.overlap_rejections,
        "compile_seconds": program.compile_seconds,
    }


def program_to_dict(program: ProgramStore) -> dict[str, Any]:
    """Lower a program to a JSON-ready v2 document.

    Every column is snapshotted, so the document neither tracks later store
    mutations nor exposes the store to callers editing the payload.
    """
    columns: dict[str, dict[str, list]] = {fam: {} for fam in DOC_FAMILIES}
    for fam, key, attr, enc, _dec in _COLUMN_SPEC:
        col = getattr(program, attr)
        columns[fam][key] = enc(col) if enc is not None else list(col)
    return {
        "format_version": COLUMNAR_FORMAT_VERSION,
        **_common_header(program),
        "emit_seconds": program.emit_seconds,
        "columns": columns,
        "stage_offsets": {
            fam: list(getattr(program, off_attr))
            for fam, off_attr in _OFFSET_SPEC
        },
    }


def program_from_dict(doc: dict[str, Any]) -> ProgramStore:
    """Rebuild a program from :func:`program_to_dict` output."""
    version = doc.get("format_version")
    if version != COLUMNAR_FORMAT_VERSION:
        raise ValueError(f"unsupported program format version {version!r}")
    store = ProgramStore(
        num_qubits=doc["num_qubits"],
        qubit_locations={
            int(q): AtomLocation(*loc)
            for q, loc in doc["qubit_locations"].items()
        },
        n_vib_final={int(q): v for q, v in doc["n_vib_final"].items()},
        atom_loss_log=list(doc["atom_loss_log"]),
        num_transfers=doc["num_transfers"],
        overlap_rejections=doc["overlap_rejections"],
        compile_seconds=doc["compile_seconds"],
        emit_seconds=doc.get("emit_seconds", 0.0),
    )
    store.extend_from_chunk(doc)
    return store


def dumps(program: ProgramStore, indent: int | None = None) -> str:
    """Serialize to a v2 JSON string."""
    return json.dumps(program_to_dict(program), indent=indent)


def loads(text: str) -> ProgramStore:
    """Deserialize from a v2 JSON string."""
    return program_from_dict(json.loads(text))
