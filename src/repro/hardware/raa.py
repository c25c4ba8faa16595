"""Reconfigurable atom array (RAA / FPQA) architecture model.

An RAA consists of one fixed SLM grid and ``num_aods`` movable AOD grids
(Sec. II).  Qubits live either at an SLM *site* or at an AOD *trap* ``(row,
col)`` of one AOD set.  The logical coupling graph is complete multipartite
over the arrays: two qubits can interact directly iff they sit in different
arrays (Sec. III, Fig. 4).

Geometry is abstracted onto the interaction-site grid of the SLM (pitch =
``atom_distance``): a movement stage places selected AOD rows/cols onto site
rows/cols; everything else parks at half-pitch offsets which are guaranteed
to be at least 2.5 Rydberg radii from any site because the pitch itself is
at least 6 Rydberg radii (Sec. IV: "atom distance ... needs to be greater
than 6x the Rydberg radius").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .coupling import CouplingMap
from .parameters import HardwareParams, scaled_neutral_atom_params


class RAAError(ValueError):
    """Raised on invalid RAA configuration or placement."""


@dataclass(frozen=True)
class ArrayShape:
    """Rows x cols of one atom array."""

    rows: int
    cols: int

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.cols <= 0:
            raise RAAError(f"invalid array shape {self.rows}x{self.cols}")

    @property
    def capacity(self) -> int:
        return self.rows * self.cols

    def sites(self) -> list[tuple[int, int]]:
        """All ``(row, col)`` positions, row-major."""
        return [(r, c) for r in range(self.rows) for c in range(self.cols)]


@dataclass(frozen=True)
class AtomLocation:
    """Physical home of a qubit: array index + (row, col) inside it.

    ``array == 0`` is the SLM; arrays ``1..num_aods`` are AOD sets.
    """

    array: int
    row: int
    col: int

    @property
    def is_slm(self) -> bool:
        return self.array == 0

    @property
    def is_aod(self) -> bool:
        return self.array > 0


@dataclass
class RAAArchitecture:
    """One SLM array plus ``num_aods`` AOD arrays.

    Parameters
    ----------
    slm_shape:
        Shape of the fixed SLM grid; this grid also defines the interaction
        sites AOD rows/cols can be parked onto.
    aod_shapes:
        One shape per AOD set.  The paper's default is two AODs of the same
        shape as the SLM ("default configuration is 10x10 topology with
        1 SLM array and 2 AOD arrays"); Fig. 23 varies them independently.
    params:
        Physical parameters (Table I), defaulting to the paper's scaled
        evaluation setting.
    """

    slm_shape: ArrayShape
    aod_shapes: list[ArrayShape]
    params: HardwareParams = field(default_factory=scaled_neutral_atom_params)

    def __post_init__(self) -> None:
        if not self.aod_shapes:
            raise RAAError("RAA needs at least one AOD array")
        if self.params.atom_distance < 6.0 * self.params.rydberg_radius * (1.0 - 1e-9):
            raise RAAError(
                "atom distance must be >= 6 Rydberg radii for safe parking "
                f"(got {self.params.atom_distance} < "
                f"{6.0 * self.params.rydberg_radius})"
            )

    @classmethod
    def default(
        cls,
        side: int = 10,
        num_aods: int = 2,
        params: HardwareParams | None = None,
    ) -> "RAAArchitecture":
        """The paper's default: ``side x side`` SLM + ``num_aods`` same-shape AODs."""
        shape = ArrayShape(side, side)
        return cls(
            slm_shape=shape,
            aod_shapes=[ArrayShape(side, side) for _ in range(num_aods)],
            params=params or scaled_neutral_atom_params(),
        )

    @property
    def num_aods(self) -> int:
        return len(self.aod_shapes)

    @property
    def num_arrays(self) -> int:
        """k = 1 SLM + number of AODs (the k of MAX k-cut)."""
        return 1 + self.num_aods

    def array_shape(self, array: int) -> ArrayShape:
        """Shape of array *array* (0 = SLM)."""
        if array == 0:
            return self.slm_shape
        if 1 <= array <= self.num_aods:
            return self.aod_shapes[array - 1]
        raise RAAError(f"no array {array}")

    @property
    def total_capacity(self) -> int:
        """Total number of atom traps across all arrays."""
        return self.slm_shape.capacity + sum(s.capacity for s in self.aod_shapes)

    def array_capacities(self) -> list[int]:
        """Capacity per array, index 0 = SLM."""
        return [self.slm_shape.capacity] + [s.capacity for s in self.aod_shapes]

    # -- site geometry ---------------------------------------------------------

    @property
    def site_rows(self) -> int:
        """Interaction-site rows (the SLM grid rows)."""
        return self.slm_shape.rows

    @property
    def site_cols(self) -> int:
        """Interaction-site columns (the SLM grid cols)."""
        return self.slm_shape.cols

    def site_distance(
        self, a: tuple[int, int], b: tuple[int, int]
    ) -> float:
        """Euclidean distance (metres) between two interaction sites."""
        pitch = self.params.atom_distance
        dr = (a[0] - b[0]) * pitch
        dc = (a[1] - b[1]) * pitch
        return (dr * dr + dc * dc) ** 0.5

    # -- logical coupling --------------------------------------------------------

    def multipartite_coupling(self, array_of_qubit: list[int]) -> CouplingMap:
        """Complete multipartite coupling graph for a qubit->array assignment.

        Qubit *i* sits in array ``array_of_qubit[i]``; edges join every pair
        of qubits in *different* arrays (Sec. III: "two-qubit gates can only
        be performed between two different arrays").

        The map (with its cached distance matrix and edge mask) is
        memoized per assignment so repeated compiles of the same circuit —
        e.g. a router-toggle sweep sharing one array mapping — reuse one
        instance instead of re-running the all-pairs BFS.
        """
        key = tuple(array_of_qubit)
        cache = getattr(self, "_multipartite_cache", None)
        if cache is None:
            cache = {}
            object.__setattr__(self, "_multipartite_cache", cache)
        cm = cache.get(key)
        if cm is None:
            n = len(array_of_qubit)
            edges = [
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if array_of_qubit[i] != array_of_qubit[j]
            ]
            cm = CouplingMap(n, edges)
            if len(cache) >= 8:  # bound the per-architecture footprint
                cache.pop(next(iter(cache)))
            cache[key] = cm
        return cm

    def validate_assignment(self, array_of_qubit: list[int]) -> None:
        """Raise if an array is over capacity or an index is out of range."""
        caps = self.array_capacities()
        counts = [0] * self.num_arrays
        for q, a in enumerate(array_of_qubit):
            if not (0 <= a < self.num_arrays):
                raise RAAError(f"qubit {q} assigned to nonexistent array {a}")
            counts[a] += 1
        for a, (cnt, cap) in enumerate(zip(counts, caps)):
            if cnt > cap:
                raise RAAError(
                    f"array {a} over capacity: {cnt} qubits in {cap} traps"
                )
