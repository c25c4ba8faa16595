"""Uniform result records shared by every architecture/compiler harness.

Each compiler run — Atomique, the FAA baselines, superconducting, the solver
proxies — reduces to a :class:`CompiledMetrics` record carrying the paper's
reporting vocabulary: 2Q gate count, parallel-2Q-layer depth, fidelity
report, additional CNOTs from SWAP insertion, compile and execution times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..noise.fidelity import FidelityReport

if TYPE_CHECKING:
    from ..core.program import ProgramStore
    from ..hardware.parameters import HardwareParams


@dataclass
class CompiledMetrics:
    """One (benchmark, architecture) evaluation row."""

    benchmark: str
    architecture: str
    num_qubits: int
    num_2q_gates: int
    num_1q_gates: int
    depth: int
    fidelity: FidelityReport
    additional_cnots: int = 0
    compile_seconds: float = 0.0
    execution_seconds: float = 0.0
    extras: dict[str, float] = field(default_factory=dict)

    @property
    def total_fidelity(self) -> float:
        return self.fidelity.total

    def row(self) -> dict[str, object]:
        """Flat dict for table printing."""
        return {
            "benchmark": self.benchmark,
            "arch": self.architecture,
            "qubits": self.num_qubits,
            "2q": self.num_2q_gates,
            "1q": self.num_1q_gates,
            "depth": self.depth,
            "fidelity": round(self.total_fidelity, 4),
            "add_cnot": self.additional_cnots,
            "compile_s": round(self.compile_seconds, 4),
            "exec_s": round(self.execution_seconds, 6),
        }


def program_aggregates(
    program: "ProgramStore", params: "HardwareParams"
) -> dict[str, float]:
    """The program-level numbers every scoring adapter reads, in one place.

    Each entry is a fold over the store's column segments (occupancy
    counts via vectorized offset-table compares, distance and duration
    sums computed elementwise then accumulated in stage order, so the
    floats stay bit-identical to a scalar stage walk) — no stage views are
    built, and a spilling store seek-reads just the columns it needs from
    its binary segments.
    """
    return {
        "num_2q_gates": program.num_2q_gates,
        "num_1q_gates": program.num_1q_gates,
        "two_qubit_depth": program.two_qubit_depth,
        "num_moves": program.num_moves,
        "execution_seconds": program.execution_time(params),
        "avg_move_distance_m": program.avg_move_distance(params),
        "total_move_distance_m": program.total_move_distance(params),
        "overlap_rejections": float(program.overlap_rejections),
        "cooling_events": float(program.num_cooling_events),
        "num_transfers": float(program.num_transfers),
    }


def geometric_mean(values: list[float], floor: float = 1e-12) -> float:
    """Geometric mean with a floor for zero entries (the paper's GMean)."""
    if not values:
        return 0.0
    logs = [math.log(max(v, floor)) for v in values]
    return math.exp(sum(logs) / len(logs))


def improvement_ratio(baseline: float, ours: float, floor: float = 1e-12) -> float:
    """``baseline / ours`` with a floor (used for depth/2Q reduction factors)."""
    return max(baseline, floor) / max(ours, floor)


def format_table(rows: list[dict[str, object]]) -> str:
    """Render rows as an aligned text table (benchmark harness output)."""
    if not rows:
        return "(no rows)"
    cols = list(rows[0].keys())
    widths = {
        c: max(len(str(c)), max(len(str(r.get(c, ""))) for r in rows)) for c in cols
    }
    header = "  ".join(str(c).ljust(widths[c]) for c in cols)
    sep = "  ".join("-" * widths[c] for c in cols)
    lines = [header, sep]
    for r in rows:
        lines.append("  ".join(str(r.get(c, "")).ljust(widths[c]) for c in cols))
    return "\n".join(lines)
