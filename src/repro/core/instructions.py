"""RAA instruction records: the per-stage view of a compiled program.

The router lowers a circuit into *stages*.  Each stage is one iteration of
the high-parallelism router (Fig. 8): an optional Raman step executing 1Q
gates, a set of AOD row/column moves, and one global Rydberg pulse executing
the stage's parallel two-qubit gates.  Cooling events (Sec. IV) are recorded
on the stage where they fire.

A compiled program lives as columns in
:class:`~repro.core.program.ProgramStore`; these frozen records are what its
lazy :class:`~repro.core.program.StageView` builds for one stage on demand.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class RamanPulse:
    """Individually-addressed single-qubit gate on *qubit* (front laser)."""

    qubit: int
    name: str
    params: tuple[float, ...] = ()


@dataclass(frozen=True, slots=True)
class Move:
    """Move of one AOD row or column.

    ``axis`` is ``"row"`` or ``"col"``; ``index`` identifies the AOD line;
    positions are in site units (pitch = ``atom_distance``).
    """

    aod: int
    axis: str
    index: int
    start: float
    end: float

    @property
    def distance_sites(self) -> float:
        return abs(self.end - self.start)


@dataclass(frozen=True, slots=True)
class RydbergGate:
    """One two-qubit CZ executed by the global Rydberg pulse.

    ``site`` is the interaction coordinate (row, col) in site units; qubit
    ids are circuit slots.  ``n_vib`` records the pair's vibrational quantum
    number at execution time (Sec. IV, Eq. 2).
    """

    qubit_a: int
    qubit_b: int
    site: tuple[float, float]
    n_vib: float = 0.0
    name: str = "cz"
    params: tuple[float, ...] = ()


@dataclass(frozen=True, slots=True)
class CoolingEvent:
    """Swap an overheated AOD array with a pre-cooled one (Sec. IV).

    Costs two CZ gates per atom in the array; resets every atom's n_vib.
    """

    aod: int
    num_atoms: int

    @property
    def num_cz(self) -> int:
        return 2 * self.num_atoms
