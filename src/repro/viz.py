"""ASCII visualization of circuits, array layouts, and stage programs.

Pure-text renderers for terminals and logs:

* :func:`draw_circuit` — wire diagram of a (small) circuit;
* :func:`draw_placement` — the SLM/AOD grids with qubit positions;
* :func:`draw_stage` — one router stage: which lines move where and which
  pairs interact;
* :func:`draw_program_summary` — per-stage one-liners for a whole program.
"""

from __future__ import annotations

from .circuits.circuit import QuantumCircuit
from .core.program import ProgramStore, StageView
from .hardware.raa import AtomLocation, RAAArchitecture

_MAX_DRAW_GATES = 80


def draw_circuit(circuit: QuantumCircuit, max_gates: int = _MAX_DRAW_GATES) -> str:
    """Render *circuit* as an ASCII wire diagram (one column per gate)."""
    n = circuit.num_qubits
    gates = [g for g in circuit.gates if not g.is_directive][:max_gates]
    rows = [[f"q{q:<2}|"] for q in range(n)]
    for g in gates:
        if g.is_one_qubit:
            label = g.name.upper()[:3]
        else:
            label = g.name.upper()[:4]
        width = max(len(label) + 2, 5)
        involved = set(g.qubits)
        lo, hi = min(involved), max(involved)
        for q in range(n):
            if q in involved:
                if g.num_qubits == 1 or q == g.qubits[-1]:
                    cell = label.center(width, "-")
                else:
                    cell = "o".center(width, "-")
            elif lo < q < hi:
                cell = "|".center(width, "-")
            else:
                cell = "-" * width
            rows[q].append(cell)
    truncated = len([g for g in circuit.gates if not g.is_directive]) > len(gates)
    out = "\n".join("".join(r) for r in rows)
    if truncated:
        out += f"\n... ({len(circuit)} ops total, first {max_gates} drawn)"
    return out


def draw_placement(
    architecture: RAAArchitecture, locations: dict[int, AtomLocation]
) -> str:
    """Render every array's grid with qubit ids at their traps."""
    blocks: list[str] = []
    cell = max(
        (len(str(q)) for q in locations), default=1
    ) + 1
    for arr in range(architecture.num_arrays):
        shape = architecture.array_shape(arr)
        name = "SLM" if arr == 0 else f"AOD{arr}"
        grid = {}
        for q, loc in locations.items():
            if loc.array == arr:
                grid[(loc.row, loc.col)] = str(q)
        lines = [f"{name} ({shape.rows}x{shape.cols}):"]
        for r in range(shape.rows):
            row_cells = []
            for c in range(shape.cols):
                row_cells.append(grid.get((r, c), ".").rjust(cell))
            lines.append(" ".join(row_cells))
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)


def draw_stage(stage: StageView, index: int | None = None) -> str:
    """Render one stage: Raman pulses, line moves, Rydberg pairs, cooling."""
    header = f"stage {index}:" if index is not None else "stage:"
    lines = [header]
    if stage.one_qubit_gates:
        names = ", ".join(
            f"{p.name} q{p.qubit}" for p in stage.one_qubit_gates[:8]
        )
        extra = (
            f" (+{len(stage.one_qubit_gates) - 8} more)"
            if len(stage.one_qubit_gates) > 8
            else ""
        )
        lines.append(f"  raman : {names}{extra}")
    for m in stage.moves:
        lines.append(
            f"  move  : AOD{m.aod} {m.axis}{m.index} "
            f"{m.start:.2f} -> {m.end:.2f}"
        )
    for g in stage.gates:
        lines.append(
            f"  gate  : {g.name} q{g.qubit_a}-q{g.qubit_b} @ "
            f"({g.site[0]:g}, {g.site[1]:g})"
        )
    for c in stage.cooling:
        lines.append(f"  cool  : AOD{c.aod} swap ({c.num_atoms} atoms, "
                     f"{c.num_cz} CZ)")
    if len(lines) == 1:
        lines.append("  (empty)")
    return "\n".join(lines)


def draw_program_summary(program: ProgramStore, max_stages: int = 40) -> str:
    """One line per stage: move/gate/cooling counts."""
    lines = [
        f"RAA program: {program.num_qubits} qubits, "
        f"{len(program.stages)} stages, {program.num_2q_gates} 2Q gates, "
        f"depth {program.two_qubit_depth}"
    ]
    for i, s in enumerate(program.stages[:max_stages]):
        parts = []
        if s.one_qubit_gates:
            parts.append(f"{len(s.one_qubit_gates)}x1Q")
        if s.moves:
            parts.append(f"{len(s.moves)} moves")
        if s.gates:
            pairs = " ".join(f"({g.qubit_a},{g.qubit_b})" for g in s.gates[:6])
            more = "..." if len(s.gates) > 6 else ""
            parts.append(f"CZ {pairs}{more}")
        if s.cooling:
            parts.append("COOL")
        lines.append(f"  [{i:3d}] " + "  ".join(parts))
    if len(program.stages) > max_stages:
        lines.append(f"  ... ({len(program.stages) - max_stages} more stages)")
    return "\n".join(lines)
