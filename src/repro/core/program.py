"""Columnar program store: the one in-memory form of a compiled program.

A compiled RAA program is a sequence of router stages (Fig. 8), each an
optional Raman step, a set of AOD line moves, one global Rydberg pulse and
any cooling swaps.  :class:`ProgramStore` keeps those stages as flat
*columns* (plain python lists of scalars, one list per field) plus a
CSR-style stage-offset table: ``stage k``'s moves are rows
``off_move[k]:off_move[k+1]`` of the move columns, and likewise for Raman
pulses, Rydberg gates, cooling events, and the per-atom move-distance log.
The router appends scalars during emission and closes a stage with
:meth:`ProgramStore.end_stage` — no per-stage objects exist on the hot path.

Per-stage access goes through **lazy views**: ``program.stages[i]`` returns
a :class:`StageView` that builds the :mod:`repro.core.instructions` records
(``RamanPulse``, ``Move``, ``RydbergGate``, ``CoolingEvent``) from the
column slices on demand.  ``atom_move_distance`` preserves the pinned
insertion order the noisy simulator consumes positionally.

Every aggregate reads the columns directly: counts are column lengths or
vectorized offset-table compares; float reductions compute per-element
terms vectorized and accumulate left to right in stage order, so they are
bit-identical to a scalar walk over the stages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from ..hardware.parameters import HardwareParams
from ..hardware.raa import AtomLocation
from .instructions import CoolingEvent, Move, RamanPulse, RydbergGate

#: ``Move.axis`` values in column encoding order (the columnar JSON codec
#: stores axes as indices into this tuple).
AXES = ("row", "col")

#: The column layout, stated once: ``(family key, column key, store
#: attribute, encode, decode)``.  ``encode`` lowers a column slice to JSON
#: primitives (``None`` when the scalars already are); ``decode`` is its
#: exact inverse.  Family and column keys are the ``columns`` table of the
#: v2 document (:mod:`repro.core.serialize`) and name the sections of the
#: v3 record (:mod:`repro.core.binformat`).
_COLUMN_SPEC: tuple = (
    ("raman", "qubit", "raman_qubit", None, None),
    ("raman", "name", "raman_name", None, None),
    (
        "raman",
        "params",
        "raman_params",
        lambda vs: [list(p) for p in vs],
        lambda vs: [tuple(p) for p in vs],
    ),
    ("moves", "aod", "move_aod", None, None),
    (
        "moves",
        "axis",
        "move_axis",
        lambda vs: [AXES.index(a) for a in vs],
        lambda vs: [AXES[a] for a in vs],
    ),
    ("moves", "index", "move_index", None, None),
    ("moves", "start", "move_start", None, None),
    ("moves", "end", "move_end", None, None),
    ("gates", "a", "gate_a", None, None),
    ("gates", "b", "gate_b", None, None),
    ("gates", "site_r", "gate_site_r", None, None),
    ("gates", "site_c", "gate_site_c", None, None),
    ("gates", "n_vib", "gate_n_vib", None, None),
    ("gates", "name", "gate_name", None, None),
    (
        "gates",
        "params",
        "gate_params",
        lambda vs: [list(p) for p in vs],
        lambda vs: [tuple(p) for p in vs],
    ),
    ("cooling", "aod", "cool_aod", None, None),
    ("cooling", "num_atoms", "cool_atoms", None, None),
    ("amd", "qubit", "amd_qubit", None, None),
    ("amd", "dist", "amd_dist", None, None),
)

#: family key -> CSR offset-table attribute, in document order
_OFFSET_SPEC: tuple = (
    ("raman", "off_raman"),
    ("moves", "off_move"),
    ("gates", "off_gate"),
    ("cooling", "off_cool"),
    ("amd", "off_amd"),
)

#: store attribute -> v3 section name
_SECTION: dict[str, str] = {
    **{attr: f"{fam}.{key}" for fam, key, attr, _e, _d in _COLUMN_SPEC},
    **{off_attr: f"off.{fam}" for fam, off_attr in _OFFSET_SPEC},
}

def _duration_lut(params: HardwareParams) -> list[float]:
    """Stage duration for every (raman, move, gate, cool) activity combo.

    Term order matches :meth:`StageView.duration` exactly (t_1q, then
    t_per_move, then t_2q, then the cooling term), so ``lut[combo]`` is
    bit-identical to the scalar if-chain for that stage.
    """
    t_1q = params.t_1q
    t_move = params.t_per_move
    t_2q = params.t_2q
    t_cool = params.t_per_move + 2 * params.t_2q
    lut = []
    for bits in range(16):
        t = 0.0
        if bits & 1:
            t += t_1q
        if bits & 2:
            t += t_move
        if bits & 4:
            t += t_2q
        if bits & 8:
            t += t_cool
        lut.append(t)
    return lut


def _stage_times(
    off_r: np.ndarray,
    off_m: np.ndarray,
    off_g: np.ndarray,
    off_c: np.ndarray,
    lut: np.ndarray,
) -> list[float]:
    """Per-stage durations via the activity-combo LUT (vectorized).

    Each stage's 4-bit combo index is computed elementwise from the CSR
    offset deltas; the caller accumulates the returned python floats
    sequentially so the summation order matches the scalar loop.
    """
    combo = (
        (off_r[1:] > off_r[:-1]).astype(np.int8)
        + 2 * (off_m[1:] > off_m[:-1]).astype(np.int8)
        + 4 * (off_g[1:] > off_g[:-1]).astype(np.int8)
        + 8 * (off_c[1:] > off_c[:-1]).astype(np.int8)
    )
    return lut[combo].tolist()


class StageView:
    """Lazy view over one stage of a :class:`ProgramStore`.

    Attribute access builds the instruction records from the column slices
    on first use and caches them, so a view that is only asked for
    ``duration()`` or ``has_movement`` never builds an object list.
    """

    __slots__ = (
        "_store",
        "_index",
        "_one_qubit_gates",
        "_moves",
        "_gates",
        "_cooling",
        "_atom_move_distance",
    )

    def __init__(self, store: "ProgramStore", index: int) -> None:
        self._store = store
        self._index = index
        self._one_qubit_gates: list[RamanPulse] | None = None
        self._moves: list[Move] | None = None
        self._gates: list[RydbergGate] | None = None
        self._cooling: list[CoolingEvent] | None = None
        self._atom_move_distance: dict[int, float] | None = None

    # -- record slices ---------------------------------------------------------

    @property
    def one_qubit_gates(self) -> list[RamanPulse]:
        if self._one_qubit_gates is None:
            s = self._store
            lo, hi = s.off_raman[self._index], s.off_raman[self._index + 1]
            self._one_qubit_gates = [
                RamanPulse(s.raman_qubit[i], s.raman_name[i], s.raman_params[i])
                for i in range(lo, hi)
            ]
        return self._one_qubit_gates

    @property
    def moves(self) -> list[Move]:
        if self._moves is None:
            s = self._store
            lo, hi = s.off_move[self._index], s.off_move[self._index + 1]
            self._moves = [
                Move(
                    s.move_aod[i],
                    s.move_axis[i],
                    s.move_index[i],
                    s.move_start[i],
                    s.move_end[i],
                )
                for i in range(lo, hi)
            ]
        return self._moves

    @property
    def gates(self) -> list[RydbergGate]:
        if self._gates is None:
            s = self._store
            lo, hi = s.off_gate[self._index], s.off_gate[self._index + 1]
            self._gates = [
                RydbergGate(
                    s.gate_a[i],
                    s.gate_b[i],
                    (s.gate_site_r[i], s.gate_site_c[i]),
                    n_vib=s.gate_n_vib[i],
                    name=s.gate_name[i],
                    params=s.gate_params[i],
                )
                for i in range(lo, hi)
            ]
        return self._gates

    @property
    def cooling(self) -> list[CoolingEvent]:
        if self._cooling is None:
            s = self._store
            lo, hi = s.off_cool[self._index], s.off_cool[self._index + 1]
            self._cooling = [
                CoolingEvent(s.cool_aod[i], s.cool_atoms[i])
                for i in range(lo, hi)
            ]
        return self._cooling

    @property
    def atom_move_distance(self) -> dict[int, float]:
        """Per-atom Euclidean move distance in metres, keyed by qubit slot."""
        if self._atom_move_distance is None:
            s = self._store
            lo, hi = s.off_amd[self._index], s.off_amd[self._index + 1]
            # Insertion order matches the emission order, which the noisy
            # simulator zips positionally against atom_loss_log.
            self._atom_move_distance = {
                s.amd_qubit[i]: s.amd_dist[i] for i in range(lo, hi)
            }
        return self._atom_move_distance

    # -- derived quantities ----------------------------------------------------

    @property
    def has_movement(self) -> bool:
        s = self._store
        return s.off_move[self._index + 1] > s.off_move[self._index]

    @property
    def max_move_distance_sites(self) -> float:
        s = self._store
        lo, hi = s.off_move[self._index], s.off_move[self._index + 1]
        return max(
            (abs(s.move_end[i] - s.move_start[i]) for i in range(lo, hi)),
            default=0.0,
        )

    def duration(self, params: HardwareParams) -> float:
        """Wall-clock stage time: Raman + move + Rydberg (+ cooling swap)."""
        s = self._store
        i = self._index
        t = 0.0
        if s.off_raman[i + 1] > s.off_raman[i]:
            t += params.t_1q
        if s.off_move[i + 1] > s.off_move[i]:
            t += params.t_per_move
        if s.off_gate[i + 1] > s.off_gate[i]:
            t += params.t_2q
        if s.off_cool[i + 1] > s.off_cool[i]:
            # two sequential CZ transfers plus the array exchange, modelled
            # as one extra move plus the two CZ times
            t += params.t_per_move + 2 * params.t_2q
        return t

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<StageView {self._index}: "
            f"{len(self.one_qubit_gates)}x1Q {len(self.moves)} moves "
            f"{len(self.gates)} gates>"
        )


class StageList:
    """Sequence facade over a store's stages; indexing yields views."""

    __slots__ = ("_store",)

    def __init__(self, store: "ProgramStore") -> None:
        self._store = store

    def __len__(self) -> int:
        return self._store.num_stages

    def __getitem__(self, index):
        n = self._store.num_stages
        if isinstance(index, slice):
            return [StageView(self._store, i) for i in range(*index.indices(n))]
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError(f"stage index {index} out of range (0..{n - 1})")
        return StageView(self._store, index)

    def __iter__(self) -> Iterator[StageView]:
        store = self._store
        return (StageView(store, i) for i in range(store.num_stages))


@dataclass
class ProgramStore:
    """A compiled RAA program in structure-of-arrays layout.

    Top-level attributes carry the compile-time bookkeeping (final
    placement, heating and loss history, transfers, overlap rejections);
    aggregate properties are reductions over the columns; ``stages``
    exposes lazy :class:`StageView` objects.

    The store doubles as its own builder: the router appends scalars to
    the columns and calls :meth:`end_stage` to close each stage.  The
    offset lists always hold ``num_stages + 1`` entries (CSR convention,
    leading 0).
    """

    #: logical circuit width
    num_qubits: int = 0
    #: final slot -> :class:`AtomLocation` placement (home positions)
    qubit_locations: dict[int, AtomLocation] = field(default_factory=dict)
    #: per-qubit vibrational quantum number after the last stage
    n_vib_final: dict[int, float] = field(default_factory=dict)
    #: ``n_vib`` sample for every (atom, move) event, in emission order —
    #: consumed by the movement-loss fidelity term
    atom_loss_log: list[float] = field(default_factory=list)
    #: SLM<->AOD atom transfers (0 in the standard Atomique flow)
    num_transfers: int = 0
    #: times a gate could not join a stage due to constraint 3 (Fig. 24)
    overlap_rejections: int = 0
    compile_seconds: float = 0.0
    #: wall-clock spent in the router's emission phase (the per-stage
    #: record-keeping blocks, excluding constraint search); carried in the
    #: v2/v3 headers.  Per-layer times come from ``perfbench/run.py --trace 1``
    emit_seconds: float = 0.0

    # -- columns (one python list of scalars per field) ------------------------
    raman_qubit: list[int] = field(default_factory=list)
    raman_name: list[str] = field(default_factory=list)
    raman_params: list[tuple[float, ...]] = field(default_factory=list)

    move_aod: list[int] = field(default_factory=list)
    move_axis: list[str] = field(default_factory=list)  # "row" | "col"
    move_index: list[int] = field(default_factory=list)
    move_start: list[float] = field(default_factory=list)
    move_end: list[float] = field(default_factory=list)

    gate_a: list[int] = field(default_factory=list)
    gate_b: list[int] = field(default_factory=list)
    gate_site_r: list[float] = field(default_factory=list)
    gate_site_c: list[float] = field(default_factory=list)
    gate_n_vib: list[float] = field(default_factory=list)
    gate_name: list[str] = field(default_factory=list)
    gate_params: list[tuple[float, ...]] = field(default_factory=list)

    cool_aod: list[int] = field(default_factory=list)
    cool_atoms: list[int] = field(default_factory=list)

    #: per-atom move-distance log (metres), stage-segmented like the rest;
    #: the pair order within a stage is the pinned loss-sample order
    amd_qubit: list[int] = field(default_factory=list)
    amd_dist: list[float] = field(default_factory=list)

    # -- stage-index table (CSR offsets, len == num_stages + 1) ----------------
    off_raman: list[int] = field(default_factory=lambda: [0])
    off_move: list[int] = field(default_factory=lambda: [0])
    off_gate: list[int] = field(default_factory=lambda: [0])
    off_cool: list[int] = field(default_factory=lambda: [0])
    off_amd: list[int] = field(default_factory=lambda: [0])

    # -- building --------------------------------------------------------------

    def end_stage(self) -> None:
        """Close the currently-open stage (everything appended since the
        last close becomes stage ``num_stages``)."""
        self.off_raman.append(len(self.raman_qubit))
        self.off_move.append(len(self.move_aod))
        self.off_gate.append(len(self.gate_a))
        self.off_cool.append(len(self.cool_aod))
        self.off_amd.append(len(self.amd_qubit))

    @property
    def open_raman_count(self) -> int:
        """Raman pulses appended since the last :meth:`end_stage`."""
        return len(self.raman_qubit) - self.off_raman[-1]

    def extend(self, other: "ProgramStore") -> None:
        """Append every stage of *other* after this store's stages.

        Column concatenation plus an offset-table splice.  Top-level fields
        (locations, loss log, counters) are left to the caller.
        """
        for _fam, _key, attr, _enc, _dec in _COLUMN_SPEC:
            getattr(self, attr).extend(getattr(other, attr))
        for _fam, off_attr in _OFFSET_SPEC:
            mine = getattr(self, off_attr)
            base = mine[-1]
            mine.extend(base + o for o in getattr(other, off_attr)[1:])

    def extend_from_chunk(self, chunk: dict) -> None:
        """Append the stages of a v2 document's ``columns`` /
        ``stage_offsets`` tables after this store's stages.

        Column concatenation (each column decoded by its ``_COLUMN_SPEC``
        entry) plus an offset splice — what v2 decoding builds a store with.
        """
        cols = chunk["columns"]
        for fam, key, attr, _enc, dec in _COLUMN_SPEC:
            values = cols[fam][key]
            getattr(self, attr).extend(dec(values) if dec is not None else values)
        offs = chunk["stage_offsets"]
        for fam, off_attr in _OFFSET_SPEC:
            mine = getattr(self, off_attr)
            base = mine[-1]
            mine.extend(base + o for o in offs[fam][1:])

    # -- cached numpy column views ---------------------------------------------

    def column_array(self, attr: str, dtype) -> np.ndarray:
        """Cached numpy view of a column (shared by the binary codec's
        ``tobytes`` packing and the vectorized reductions).

        Entries are keyed by ``(attr, dtype)`` and validated against the
        column length, so router appends (which always grow the list)
        invalidate them naturally.  The cache lives in ``__dict__`` rather
        than a dataclass field: it is derived state, invisible to
        ``__eq__``/``__repr__``.  Code that mutates a column in place
        without changing its length must pop ``_np_views`` from
        ``__dict__``.
        """
        cache = self.__dict__.setdefault("_np_views", {})
        column = getattr(self, attr)
        key = (attr, np.dtype(dtype).str)
        hit = cache.get(key)
        if hit is not None and hit[0] == len(column):
            return hit[1]
        arr = np.asarray(column, dtype=dtype)
        cache[key] = (len(column), arr)
        return arr

    def _active_stage_count(self, off_attr: str) -> int:
        """Stages whose family slice is non-empty."""
        off = self.column_array(off_attr, np.int64)
        if off.size <= 1:
            return 0
        return int(np.count_nonzero(off[1:] > off[:-1]))

    # -- stages ----------------------------------------------------------------

    @property
    def num_stages(self) -> int:
        return len(self.off_gate) - 1

    @property
    def stages(self) -> StageList:
        """Lazy stage views."""
        return StageList(self)

    # -- headline metrics (column reductions) ----------------------------------

    @property
    def num_2q_gates(self) -> int:
        """Two-qubit gates executed by Rydberg pulses (cooling CZs excluded)."""
        return len(self.gate_a)

    @property
    def num_cooling_cz(self) -> int:
        """CZ gates spent on cooling swaps (two per atom in the array)."""
        # integer sum: any order is exact, so the vectorized form is safe
        return 2 * int(self.column_array("cool_atoms", np.int64).sum())

    @property
    def num_1q_gates(self) -> int:
        return len(self.raman_qubit)

    @property
    def two_qubit_depth(self) -> int:
        """Number of stages whose Rydberg pulse executes at least one gate."""
        return self._active_stage_count("off_gate")

    @property
    def num_moves(self) -> int:
        return len(self.move_aod)

    @property
    def num_moving_stages(self) -> int:
        """Stages that move at least one AOD line."""
        return self._active_stage_count("off_move")

    @property
    def num_1q_stages(self) -> int:
        """Stages that flush at least one Raman pulse."""
        return self._active_stage_count("off_raman")

    @property
    def num_cooling_events(self) -> int:
        return len(self.cool_aod)

    def total_move_distance(self, params: HardwareParams) -> float:
        """Total AOD line travel in metres, summed over moves in stage order.

        Per-move distances are computed elementwise in float64 (bit-equal
        to the scalar ``abs(e - s) * pitch``); only the accumulation stays
        sequential, left to right.
        """
        pitch = params.atom_distance
        start = self.column_array("move_start", np.float64)
        end = self.column_array("move_end", np.float64)
        return sum((np.abs(end - start) * pitch).tolist(), 0)

    def avg_move_distance(self, params: HardwareParams) -> float:
        """Mean per-stage line travel (metres); Fig. 20's 'Avg. Moving Distance'."""
        moving = self.num_moving_stages
        if not moving:
            return 0.0
        return self.total_move_distance(params) / moving

    def execution_time(self, params: HardwareParams) -> float:
        """Wall-clock execution time in seconds: the stage durations summed
        in stage order.

        Vectorized via the 16-entry activity-combo LUT: per-stage durations
        come from :func:`_stage_times`, then accumulate sequentially.
        """
        lut = np.asarray(_duration_lut(params), dtype=np.float64)
        offsets = [
            self.column_array(attr, np.int64)
            for attr in ("off_raman", "off_move", "off_gate", "off_cool")
        ]
        return sum(_stage_times(*offsets, lut), 0.0)

    def gate_pairs(self) -> list[tuple[int, int]]:
        """All executed 2Q pairs in order (for equivalence checks)."""
        return list(zip(self.gate_a, self.gate_b))

    def gate_n_vib_array(self) -> np.ndarray:
        """``n_vib`` per executed 2Q gate as a float64 array, in execution
        order (what fidelity scoring reads)."""
        return self.column_array("gate_n_vib", np.float64)
