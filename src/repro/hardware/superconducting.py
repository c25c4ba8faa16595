"""Heavy-hex superconducting coupling map (IBM Washington-style).

The heavy-hexagon lattice is the IBM Eagle/Washington topology: hexagonal
cells whose vertices are degree-3 qubits and whose edges each carry one
degree-2 bridge qubit.  We generate it as rows of linear chains connected by
sparse vertical rungs, which reproduces the qubit-degree distribution
(max degree 3) and the long SWAP distances that drive the paper's
superconducting baseline numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .coupling import CouplingMap
from .parameters import HardwareParams, scaled_superconducting_params


def heavy_hex_coupling(rows: int, row_length: int, rung_spacing: int = 4) -> CouplingMap:
    """Build a heavy-hex-style lattice.

    Parameters
    ----------
    rows:
        Number of horizontal qubit chains.
    row_length:
        Qubits per chain.
    rung_spacing:
        Horizontal distance between vertical bridge qubits; alternating rows
        offset the rungs by half a period, forming the hexagon cells.
    """
    if rows < 1 or row_length < 2:
        raise ValueError("heavy-hex needs rows >= 1 and row_length >= 2")
    num_chain = rows * row_length

    def qid(r: int, c: int) -> int:
        return r * row_length + c

    edges: list[tuple[int, int]] = []
    for r in range(rows):
        for c in range(row_length - 1):
            edges.append((qid(r, c), qid(r, c + 1)))

    next_id = num_chain
    for r in range(rows - 1):
        offset = (rung_spacing // 2) * (r % 2)
        for c in range(offset, row_length, rung_spacing):
            bridge = next_id
            next_id += 1
            edges.append((qid(r, c), bridge))
            edges.append((bridge, qid(r + 1, c)))
    return CouplingMap(next_id, edges)


@dataclass
class SuperconductingArchitecture:
    """A heavy-hex superconducting device.

    The default sizing targets the 127-qubit IBM Washington machine used in
    the paper; :meth:`for_circuit` grows the lattice for larger registers
    (the paper equalizes qubit counts across architectures).
    """

    rows: int = 7
    row_length: int = 15
    params: HardwareParams = field(default_factory=scaled_superconducting_params)

    @classmethod
    def for_circuit(
        cls, num_qubits: int, params: HardwareParams | None = None
    ) -> "SuperconductingArchitecture":
        """Smallest default-proportioned heavy-hex holding *num_qubits*."""
        rows, row_length = 7, 15
        while True:
            dev = cls(rows, row_length, params or scaled_superconducting_params())
            if dev.coupling_map().num_qubits >= num_qubits:
                return dev
            rows += 2
            row_length += 4

    def coupling_map(self) -> CouplingMap:
        """The heavy-hex coupling graph (built once per instance, so its
        distance matrix and edge mask are computed once too)."""
        cached = getattr(self, "_coupling", None)
        if cached is None:
            cached = heavy_hex_coupling(self.rows, self.row_length)
            self._coupling = cached
        return cached
