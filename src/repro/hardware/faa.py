"""Fixed atom array (FAA) device models.

Three FAA baselines from the paper's evaluation:

* **FAA-Rectangular** — nearest-neighbour rectangular grid;
* **FAA-Triangular** — grid plus one diagonal per cell (Geyser's topology);
* **Baker-Long-Range** — rectangular grid where any pair within 4 Rydberg
  radii may interact directly (Baker et al., ISCA'21).

Each provides a coupling map sized to hold the circuit, plus timing metadata
used by the fidelity model (FAA gates need no atom movement; routing is done
with SWAPs inserted by SABRE).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .coupling import CouplingMap, grid_coupling, long_range_grid_coupling
from .parameters import HardwareParams, scaled_neutral_atom_params


def _grid_shape_for(num_qubits: int) -> tuple[int, int]:
    """Smallest near-square grid holding *num_qubits*."""
    rows = int(math.isqrt(num_qubits))
    if rows * rows < num_qubits:
        rows += 1
    cols = rows
    while rows * (cols - 1) >= num_qubits:
        cols -= 1
    return rows, cols


@dataclass
class FAAArchitecture:
    """A fixed-atom-array device.

    Parameters
    ----------
    topology:
        ``"rectangular"``, ``"triangular"`` or ``"long_range"``.
    rows, cols:
        Grid dimensions.
    max_interaction_range:
        For ``"long_range"``: maximum Euclidean interaction distance in site
        units.  The paper sets Baker's maximum range to 4 Rydberg radii; FAA
        atoms must sit >= 2.5 r_b apart so that idle neighbours stay outside
        the blockade, giving a range of 4/2.5 = 1.6 site pitches (king's-move
        connectivity).
    params:
        Physical parameters; neutral-atom Table I values by default.
    """

    topology: str
    rows: int
    cols: int
    max_interaction_range: float = 1.6
    params: HardwareParams = field(default_factory=scaled_neutral_atom_params)

    def __post_init__(self) -> None:
        if self.topology not in ("rectangular", "triangular", "long_range"):
            raise ValueError(f"unknown FAA topology {self.topology!r}")

    @classmethod
    def for_circuit(
        cls,
        num_qubits: int,
        topology: str = "rectangular",
        params: HardwareParams | None = None,
        max_interaction_range: float = 1.6,
    ) -> "FAAArchitecture":
        """Smallest near-square FAA holding *num_qubits* (paper: baselines
        "equalize qubit numbers with those reported in Atomique")."""
        rows, cols = _grid_shape_for(num_qubits)
        return cls(
            topology=topology,
            rows=rows,
            cols=cols,
            max_interaction_range=max_interaction_range,
            params=params or scaled_neutral_atom_params(),
        )

    @property
    def num_qubits(self) -> int:
        return self.rows * self.cols

    def coupling_map(self) -> CouplingMap:
        """The device coupling graph (built once per instance, so its
        distance matrix and edge mask are computed once too)."""
        cached = getattr(self, "_coupling", None)
        if cached is not None:
            return cached
        if self.topology == "rectangular":
            cached = grid_coupling(self.rows, self.cols, triangular=False)
        elif self.topology == "triangular":
            cached = grid_coupling(self.rows, self.cols, triangular=True)
        else:
            cached = long_range_grid_coupling(
                self.rows, self.cols, self.max_interaction_range
            )
        self._coupling = cached
        return cached
