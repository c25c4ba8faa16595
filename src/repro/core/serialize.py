"""JSON (de)serialization of compiled RAA programs.

Two JSON wire formats (a third, binary format lives in
:mod:`repro.core.binformat` — the "v3" packed-column codec that encodes
the same logical v2 document as typed little-endian blobs):

* **v1 (object)** — the historical stage-list document: one dict per stage,
  one dict per gate.  Decodes to a legacy
  :class:`~repro.core.instructions.RAAProgram`.
* **v2 (columnar)** — the structure-of-arrays document matching
  :class:`~repro.core.program.ProgramStore`: flat arrays of numbers per
  field plus the CSR stage-offset table.  For large programs this removes
  the per-gate dict overhead (no repeated keys) and encodes/decodes in
  bulk; it is the readable export, and the REST gateway's program
  document.  Decodes to a :class:`ProgramStore`.

``json`` emits floats with ``repr``-exact shortest round-trip text, so both
formats preserve every field the fidelity model reads bit-for-bit.
:func:`program_to_dict` picks the format matching the representation it is
given (override with ``columnar=``); :func:`program_from_dict` dispatches
on ``format_version``.
"""

from __future__ import annotations

import json
from typing import Any

from ..hardware.raa import AtomLocation
from .instructions import (
    CoolingEvent,
    Move,
    RAAProgram,
    RamanPulse,
    RydbergGate,
    Stage,
)
from .program import AXES, Program, ProgramStore, SpillingProgramStore

FORMAT_VERSION = 1
COLUMNAR_FORMAT_VERSION = 2

#: ``columns`` table layout of the v2 document: family key -> column keys.
#: Shared by the whole-document codec below and the v3 binary codec.
DOC_FAMILIES: dict[str, tuple[str, ...]] = {
    "raman": ("qubit", "name", "params"),
    "moves": ("aod", "axis", "index", "start", "end"),
    "gates": ("a", "b", "site_r", "site_c", "n_vib", "name", "params"),
    "cooling": ("aod", "num_atoms"),
    "amd": ("qubit", "dist"),
}


def _common_header(program: Program) -> dict[str, Any]:
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


def program_to_dict(
    program: Program, *, columnar: bool | None = None
) -> dict[str, Any]:
    """Lower a program to JSON-ready primitives.

    ``columnar=None`` (the default) keeps the representation: a
    :class:`ProgramStore` becomes a v2 columnar document, a legacy
    :class:`RAAProgram` a v1 stage-list document — so a round trip always
    returns the type it was fed.
    """
    if columnar is None:
        columnar = isinstance(program, ProgramStore)
    if columnar:
        if isinstance(program, SpillingProgramStore):
            # densify: whole-document serialization needs every column,
            # and the spilled columns only hold the in-memory tail
            store = program.collect()
        elif isinstance(program, ProgramStore):
            store = program
        else:
            store = ProgramStore.from_program(program)
        # every column is snapshotted (like the v1 path) so the document
        # neither tracks later store mutations nor exposes the store to
        # callers editing the payload
        return {
            "format_version": COLUMNAR_FORMAT_VERSION,
            **_common_header(store),
            "emit_seconds": store.emit_seconds,
            "columns": {
                "raman": {
                    "qubit": list(store.raman_qubit),
                    "name": list(store.raman_name),
                    "params": [list(p) for p in store.raman_params],
                },
                "moves": {
                    "aod": list(store.move_aod),
                    "axis": [AXES.index(a) for a in store.move_axis],
                    "index": list(store.move_index),
                    "start": list(store.move_start),
                    "end": list(store.move_end),
                },
                "gates": {
                    "a": list(store.gate_a),
                    "b": list(store.gate_b),
                    "site_r": list(store.gate_site_r),
                    "site_c": list(store.gate_site_c),
                    "n_vib": list(store.gate_n_vib),
                    "name": list(store.gate_name),
                    "params": [list(p) for p in store.gate_params],
                },
                "cooling": {
                    "aod": list(store.cool_aod),
                    "num_atoms": list(store.cool_atoms),
                },
                "amd": {
                    "qubit": list(store.amd_qubit),
                    "dist": list(store.amd_dist),
                },
            },
            "stage_offsets": {
                "raman": list(store.off_raman),
                "moves": list(store.off_move),
                "gates": list(store.off_gate),
                "cooling": list(store.off_cool),
                "amd": list(store.off_amd),
            },
        }
    return {
        "format_version": FORMAT_VERSION,
        **_common_header(program),
        "stages": [
            {
                "one_qubit_gates": [
                    [p.qubit, p.name, list(p.params)]
                    for p in stage.one_qubit_gates
                ],
                "moves": [
                    [m.aod, m.axis, m.index, m.start, m.end]
                    for m in stage.moves
                ],
                "gates": [
                    {
                        "a": g.qubit_a,
                        "b": g.qubit_b,
                        "site": list(g.site),
                        "n_vib": g.n_vib,
                        "name": g.name,
                        "params": list(g.params),
                    }
                    for g in stage.gates
                ],
                "cooling": [[c.aod, c.num_atoms] for c in stage.cooling],
                "atom_move_distance": {
                    str(q): d for q, d in stage.atom_move_distance.items()
                },
            }
            for stage in program.stages
        ],
    }


def _decode_v1(doc: dict[str, Any]) -> RAAProgram:
    stages = []
    for sd in doc["stages"]:
        stages.append(
            Stage(
                one_qubit_gates=[
                    RamanPulse(q, name, tuple(params))
                    for q, name, params in sd["one_qubit_gates"]
                ],
                moves=[
                    Move(aod, axis, index, start, end)
                    for aod, axis, index, start, end in sd["moves"]
                ],
                gates=[
                    RydbergGate(
                        gd["a"],
                        gd["b"],
                        tuple(gd["site"]),
                        n_vib=gd["n_vib"],
                        name=gd.get("name", "cz"),
                        params=tuple(gd.get("params", ())),
                    )
                    for gd in sd["gates"]
                ],
                cooling=[
                    CoolingEvent(aod, num_atoms)
                    for aod, num_atoms in sd["cooling"]
                ],
                atom_move_distance={
                    int(q): d for q, d in sd["atom_move_distance"].items()
                },
            )
        )
    return RAAProgram(
        stages=stages,
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
    )


def _decode_v2(doc: dict[str, Any]) -> ProgramStore:
    cols = doc["columns"]
    offs = doc["stage_offsets"]
    raman, moves, gates = cols["raman"], cols["moves"], cols["gates"]
    cooling, amd = cols["cooling"], cols["amd"]
    return ProgramStore(
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
        raman_qubit=list(raman["qubit"]),
        raman_name=list(raman["name"]),
        raman_params=[tuple(p) for p in raman["params"]],
        move_aod=list(moves["aod"]),
        move_axis=[AXES[a] for a in moves["axis"]],
        move_index=list(moves["index"]),
        move_start=list(moves["start"]),
        move_end=list(moves["end"]),
        gate_a=list(gates["a"]),
        gate_b=list(gates["b"]),
        gate_site_r=list(gates["site_r"]),
        gate_site_c=list(gates["site_c"]),
        gate_n_vib=list(gates["n_vib"]),
        gate_name=list(gates["name"]),
        gate_params=[tuple(p) for p in gates["params"]],
        cool_aod=list(cooling["aod"]),
        cool_atoms=list(cooling["num_atoms"]),
        amd_qubit=list(amd["qubit"]),
        amd_dist=list(amd["dist"]),
        off_raman=list(offs["raman"]),
        off_move=list(offs["moves"]),
        off_gate=list(offs["gates"]),
        off_cool=list(offs["cooling"]),
        off_amd=list(offs["amd"]),
    )


def program_from_dict(doc: dict[str, Any]) -> Program:
    """Rebuild a program from :func:`program_to_dict` output (either format)."""
    version = doc.get("format_version")
    if version == FORMAT_VERSION:
        return _decode_v1(doc)
    if version == COLUMNAR_FORMAT_VERSION:
        return _decode_v2(doc)
    raise ValueError(f"unsupported program format version {version!r}")


def store_header_doc(store: ProgramStore) -> dict[str, Any]:
    """The v2 document minus its column payload, without building the
    columns (same keys, same order as :func:`program_to_dict`'s header).

    The streaming server sends it first, alone, to open a program stream;
    :func:`store_from_program_header` seeds the receiving store from it.
    """
    return {
        "format_version": COLUMNAR_FORMAT_VERSION,
        **_common_header(store),
        "emit_seconds": store.emit_seconds,
    }


def store_from_program_header(header: dict[str, Any]) -> ProgramStore:
    """An empty :class:`ProgramStore` seeded from :func:`store_header_doc`.

    Feed the streamed chunks to :meth:`ProgramStore.extend_from_chunk`; the
    assembled store is bit-identical to decoding the whole v2 document.
    """
    return ProgramStore(
        num_qubits=header["num_qubits"],
        qubit_locations={
            int(q): AtomLocation(*loc)
            for q, loc in header["qubit_locations"].items()
        },
        n_vib_final={int(q): v for q, v in header["n_vib_final"].items()},
        atom_loss_log=list(header["atom_loss_log"]),
        num_transfers=header["num_transfers"],
        overlap_rejections=header["overlap_rejections"],
        compile_seconds=header["compile_seconds"],
        emit_seconds=header.get("emit_seconds", 0.0),
    )


def dumps(
    program: Program,
    indent: int | None = None,
    *,
    columnar: bool | None = None,
) -> str:
    """Serialize to a JSON string (format chosen like :func:`program_to_dict`)."""
    return json.dumps(program_to_dict(program, columnar=columnar), indent=indent)


def loads(text: str) -> Program:
    """Deserialize from a JSON string."""
    return program_from_dict(json.loads(text))
