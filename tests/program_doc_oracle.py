"""Reference slicing of v2 columnar program documents.

The service streams programs from v3 binary records
(:meth:`~repro.core.program.ProgramStore.chunk_doc` per stage range).  These
helpers cut the same chunks straight out of the JSON document, with no
:class:`~repro.core.program.ProgramStore` involved, so tests can check the
store-side slicing and the binary codec against an independent oracle.
:func:`doc_stage_records` likewise rebuilds each stage's instruction
records from the document, the reference for the store's lazy views.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Any, Iterator

from repro.core.instructions import CoolingEvent, Move, RamanPulse, RydbergGate
from repro.core.program import AXES
from repro.core.serialize import COLUMNAR_FORMAT_VERSION, DOC_FAMILIES


def _require_v2(doc: dict[str, Any]) -> None:
    if doc.get("format_version") != COLUMNAR_FORMAT_VERSION:
        raise ValueError(
            "streaming requires a v2 columnar document, got format_version "
            f"{doc.get('format_version')!r}"
        )


def program_doc_header(doc: dict[str, Any]) -> dict[str, Any]:
    """The v2 document minus its column payload (streamed first, alone)."""
    _require_v2(doc)
    return {
        k: v for k, v in doc.items() if k not in ("columns", "stage_offsets")
    }


def program_doc_stages(doc: dict[str, Any]) -> int:
    """Number of closed stages in a v2 columnar document."""
    return len(doc["stage_offsets"]["gates"]) - 1


def iter_program_doc_chunks(
    doc: dict[str, Any], stages_per_chunk: int
) -> Iterator[dict[str, Any]]:
    """Slice a v2 columnar document into self-contained stage-range chunks
    of the :meth:`ProgramStore.chunk_doc` shape: ``stages``, ``columns``,
    and ``stage_offsets`` rebased to 0."""
    _require_v2(doc)
    step = max(1, int(stages_per_chunk))
    total = program_doc_stages(doc)
    all_offs = doc["stage_offsets"]
    all_cols = doc["columns"]
    for lo in range(0, total, step):
        hi = min(lo + step, total)
        offsets: dict[str, list[int]] = {}
        columns: dict[str, dict[str, list]] = {}
        for fam, keys in DOC_FAMILIES.items():
            off = all_offs[fam]
            base, top = off[lo], off[hi]
            offsets[fam] = [o - base for o in off[lo : hi + 1]]
            columns[fam] = {k: all_cols[fam][k][base:top] for k in keys}
        yield {"stages": hi - lo, "columns": columns, "stage_offsets": offsets}


def doc_stage_records(doc: dict[str, Any]) -> list[SimpleNamespace]:
    """Per stage, the instruction records read straight off a v2 document
    (attribute names as on :class:`~repro.core.program.StageView`)."""
    _require_v2(doc)
    offs = doc["stage_offsets"]
    raman, moves, gates = (doc["columns"][f] for f in ("raman", "moves", "gates"))
    cooling, amd = doc["columns"]["cooling"], doc["columns"]["amd"]
    stages = []
    for si in range(program_doc_stages(doc)):

        def rows(fam: str) -> range:
            return range(offs[fam][si], offs[fam][si + 1])

        stages.append(
            SimpleNamespace(
                one_qubit_gates=[
                    RamanPulse(
                        raman["qubit"][i], raman["name"][i],
                        tuple(raman["params"][i]),
                    )
                    for i in rows("raman")
                ],
                moves=[
                    Move(
                        moves["aod"][i], AXES[moves["axis"][i]],
                        moves["index"][i], moves["start"][i], moves["end"][i],
                    )
                    for i in rows("moves")
                ],
                gates=[
                    RydbergGate(
                        gates["a"][i], gates["b"][i],
                        (gates["site_r"][i], gates["site_c"][i]),
                        n_vib=gates["n_vib"][i], name=gates["name"][i],
                        params=tuple(gates["params"][i]),
                    )
                    for i in rows("gates")
                ],
                cooling=[
                    CoolingEvent(cooling["aod"][i], cooling["num_atoms"][i])
                    for i in rows("cooling")
                ],
                atom_move_distance={
                    amd["qubit"][i]: amd["dist"][i] for i in rows("amd")
                },
            )
        )
    return stages
