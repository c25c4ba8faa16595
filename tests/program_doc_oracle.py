"""Reference reading of v2 columnar program documents.

:func:`doc_stage_records` rebuilds each stage's instruction records straight
from the JSON document, with no :class:`~repro.core.program.ProgramStore`
involved, so tests can check the store's lazy views against an independent
oracle.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Any

from repro.core.instructions import CoolingEvent, Move, RamanPulse, RydbergGate
from repro.core.program import AXES
from repro.core.serialize import COLUMNAR_FORMAT_VERSION


def doc_stage_records(doc: dict[str, Any]) -> list[SimpleNamespace]:
    """Per stage, the instruction records read straight off a v2 document
    (attribute names as on :class:`~repro.core.program.StageView`)."""
    if doc.get("format_version") != COLUMNAR_FORMAT_VERSION:
        raise ValueError(
            f"not a v2 columnar document: {doc.get('format_version')!r}"
        )
    offs = doc["stage_offsets"]
    raman, moves, gates = (doc["columns"][f] for f in ("raman", "moves", "gates"))
    cooling, amd = doc["columns"]["cooling"], doc["columns"]["amd"]
    stages = []
    for si in range(len(offs["gates"]) - 1):

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
