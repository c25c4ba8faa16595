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

Every aggregate is one fold over the store's *column segments*: a dense
store is one segment (its in-memory columns); a
:class:`SpillingProgramStore` is its flushed segment records followed by
its in-memory tail.  Count aggregates add per-segment counts (taken at
flush time for flushed segments); float reductions compute per-element
terms vectorized per segment and accumulate left to right in stage order,
so a spilled store answers bit-identically to the dense one.
"""

from __future__ import annotations

import copy
import dataclasses
import os
import tempfile
from dataclasses import dataclass, field
from typing import Callable, Iterator

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
#: v3 record (:mod:`repro.core.binformat`); a chunk is a stage-range slice
#: of that document with offsets rebased to 0.
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

#: store attribute -> v3 section name (what a segment seek-read asks for)
_SECTION: dict[str, str] = {
    **{attr: f"{fam}.{key}" for fam, key, attr, _e, _d in _COLUMN_SPEC},
    **{off_attr: f"off.{fam}" for fam, off_attr in _OFFSET_SPEC},
}

#: count aggregate -> its value over one in-memory column segment.  A
#: spilling store takes every count at flush time, so count folds never
#: touch its segment file.
_SEGMENT_COUNTS: dict[str, Callable[["ProgramStore"], int]] = {
    "num_stages": lambda s: len(s.off_gate) - 1,
    "num_1q_gates": lambda s: len(s.raman_qubit),
    "num_2q_gates": lambda s: len(s.gate_a),
    "num_moves": lambda s: len(s.move_aod),
    "num_cooling_events": lambda s: len(s.cool_aod),
    # integer sum: any order is exact, so the vectorized form is safe
    "num_cooling_cz": lambda s: (
        2 * int(s.column_array("cool_atoms", np.int64).sum())
    ),
    "num_1q_stages": lambda s: s._active_stage_count("off_raman"),
    "num_moving_stages": lambda s: s._active_stage_count("off_move"),
    "two_qubit_depth": lambda s: s._active_stage_count("off_gate"),
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


class _SegmentFile:
    """Append-only file of length-prefixed v3 chunk records.

    Holds a spilling store's flushed stage ranges.  Each record keeps the
    segment's count aggregates (taken at flush time) and its section index
    (column name -> absolute byte range), so folds seek-read only the
    columns they need.  An instance with no records is a dense store's
    (empty) flushed part.
    """

    def __init__(self, spill_dir: str | None = None) -> None:
        self.spill_dir = spill_dir
        self.path: str | None = None
        self.records: list[dict] = []

    def append(self, doc: dict, counts: dict[str, int]) -> None:
        from . import binformat  # deferred: binformat imports this module

        record = binformat.encode_chunk(doc)
        if self.path is None:
            fd, self.path = tempfile.mkstemp(
                prefix="program-", suffix=".segs", dir=self.spill_dir
            )
            os.close(fd)
        with open(self.path, "ab") as fh:
            pos = fh.tell()
            fh.write(len(record).to_bytes(4, "little"))
            fh.write(record)
        meta, payload_off = binformat.parse_record(record)
        self.records.append(
            {
                "counts": counts,
                # section byte ranges rebased to absolute file offsets
                "index": binformat.section_index(meta, pos + 4 + payload_off),
            }
        )

    def docs(self) -> Iterator[dict]:
        """Decode every record back to its chunk doc, in stage order."""
        if not self.records:
            return
        from . import binformat

        with open(self.path, "rb") as fh:
            for _ in self.records:
                length = int.from_bytes(fh.read(4), "little")
                yield binformat.decode_chunk(fh.read(length))

    def arrays(self, dtype, attrs: tuple[str, ...]) -> Iterator[tuple]:
        """Seek-read the named columns of each record as *dtype* arrays."""
        if not self.records:
            return
        from . import binformat

        names = [_SECTION[attr] for attr in attrs]
        with open(self.path, "rb") as fh:
            for record in self.records:
                row = []
                for name in names:
                    sec, lo, hi = record["index"][name]
                    fh.seek(lo)
                    blob = fh.read(hi - lo)
                    row.append(
                        binformat.decode_section(sec, blob, as_array=True)
                        .astype(dtype, copy=False)
                    )
                yield tuple(row)

    def discard(self) -> None:
        if self.path is not None:
            try:
                os.unlink(self.path)
            except OSError:
                pass
            self.path = None
            self.records.clear()


@dataclass
class ProgramStore:
    """A compiled RAA program in structure-of-arrays layout.

    Top-level attributes carry the compile-time bookkeeping (final
    placement, heating and loss history, transfers, overlap rejections);
    aggregate properties are folds over the column segments; ``stages``
    exposes lazy :class:`StageView` objects.

    The store doubles as its own builder: the router appends scalars to
    the columns and calls :meth:`end_stage` to close each stage.  The
    offset lists always hold ``num_stages + 1`` entries (CSR convention,
    leading 0) for the in-memory segment.
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
    #: record-keeping blocks, excluding constraint search) — the quantity
    #: ``repro bench --perf`` tracks as ``emit_seconds``
    emit_seconds: float = 0.0
    #: wall-clock spent in the router's constraint-probing phase (the
    #: per-stage ``_select_gates`` window: scratch-plan reset, candidate
    #: lookup, and ``place_pair`` probing over the 2Q front) — the
    #: quantity ``repro bench --perf`` tracks as ``probe_seconds``
    probe_seconds: float = 0.0

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

    #: flushed column segments, in stage order, ahead of the in-memory one.
    #: A class attribute (not a field): dense stores share this empty file
    #: and never append to it; a spilling store owns its own.
    _flushed = _SegmentFile()

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
        """Append every stage of *other* (all its segments) after this
        store's stages.

        Column concatenation plus an offset-table splice.  Top-level fields
        (locations, loss log, counters) are left to the caller.
        """
        for doc in other._flushed.docs():
            self.extend_from_chunk(doc)
        for _fam, _key, attr, _enc, _dec in _COLUMN_SPEC:
            getattr(self, attr).extend(getattr(other, attr))
        for _fam, off_attr in _OFFSET_SPEC:
            mine = getattr(self, off_attr)
            base = mine[-1]
            mine.extend(base + o for o in getattr(other, off_attr)[1:])

    def extend_from_chunk(self, chunk: dict) -> None:
        """Append a :meth:`chunk_doc` stage range after this store's stages.

        Column concatenation plus an offset splice — the assembly primitive
        for v2 documents, streamed program transfers and spilled segment
        files.
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

    # -- segments --------------------------------------------------------------

    def chunk_doc(self, lo: int, hi: int) -> dict:
        """JSON-ready slice of the in-memory closed stages ``[lo, hi)``.

        The document mirrors the v2 format's ``columns`` / ``stage_offsets``
        tables for just that stage range, with the offsets rebased to start
        at 0 — so chunks are self-contained and concatenate by
        :meth:`extend_from_chunk`.  Indices address the in-memory offset
        tables (the whole program for a dense store).
        """
        closed = len(self.off_gate) - 1
        if not 0 <= lo <= hi <= closed:
            raise ValueError(f"stage range [{lo}, {hi}) outside 0..{closed}")
        bases: dict[str, tuple[int, int]] = {}
        offsets: dict[str, list[int]] = {}
        for fam, off_attr in _OFFSET_SPEC:
            off = getattr(self, off_attr)
            base = off[lo]
            bases[fam] = (base, off[hi])
            offsets[fam] = [o - base for o in off[lo : hi + 1]]
        columns: dict[str, dict[str, list]] = {fam: {} for fam, _ in _OFFSET_SPEC}
        for fam, key, attr, enc, _dec in _COLUMN_SPEC:
            base, top = bases[fam]
            sliced = getattr(self, attr)[base:top]
            columns[fam][key] = enc(sliced) if enc is not None else sliced
        return {"stages": hi - lo, "columns": columns, "stage_offsets": offsets}

    def iter_segment_docs(self) -> Iterator[dict]:
        """Every closed stage as chunk docs, one per segment in stage order."""
        yield from self._flushed.docs()
        k = len(self.off_gate) - 1
        if k > 0:
            yield self.chunk_doc(0, k)

    def collect(self) -> "ProgramStore":
        """A dense store holding every stage: the store itself when nothing
        was flushed, else a copy assembled from all its segments."""
        if not self._flushed.records:
            return self
        full = ProgramStore(
            **{
                f.name: copy.copy(getattr(self, f.name))
                for f in dataclasses.fields(ProgramStore)
                if f.name not in _SECTION
            }
        )
        full.extend(self)
        return full

    def discard(self) -> None:
        """Delete any spilled segment file (the store must not be read
        afterwards); a no-op for a dense store."""
        self._flushed.discard()

    def _segment_arrays(self, dtype, *attrs: str) -> Iterator[tuple]:
        """The named columns as *dtype* arrays, one tuple per segment."""
        yield from self._flushed.arrays(dtype, attrs)
        yield tuple(self.column_array(attr, dtype) for attr in attrs)

    def _count(self, key: str) -> int:
        """Fold one count aggregate over every segment."""
        flushed = sum(record["counts"][key] for record in self._flushed.records)
        return flushed + _SEGMENT_COUNTS[key](self)

    # -- cached numpy column views ---------------------------------------------

    def column_array(self, attr: str, dtype) -> np.ndarray:
        """Cached numpy view of an in-memory column (shared by the binary
        codec's ``tobytes`` packing and the vectorized reductions).

        Entries are keyed by ``(attr, dtype)`` and validated against the
        column length, so router appends (which always grow the list)
        invalidate them naturally.  The cache lives in ``__dict__`` rather
        than a dataclass field: it is derived state, invisible to
        ``__eq__``/``__repr__``.  Code that mutates a column in place
        without changing its length must call :meth:`drop_column_arrays`.
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

    def drop_column_arrays(self) -> None:
        """Invalidate every cached column view (after in-place rewrites)."""
        self.__dict__.pop("_np_views", None)

    def _active_stage_count(self, off_attr: str) -> int:
        """In-memory stages whose family slice is non-empty."""
        off = self.column_array(off_attr, np.int64)
        if off.size <= 1:
            return 0
        return int(np.count_nonzero(off[1:] > off[:-1]))

    # -- stages ----------------------------------------------------------------

    @property
    def num_stages(self) -> int:
        return self._count("num_stages")

    @property
    def stages(self) -> StageList:
        """Lazy stage views (a spilling store is densified first)."""
        return StageList(self.collect())

    # -- headline metrics (segment folds) --------------------------------------

    @property
    def num_2q_gates(self) -> int:
        """Two-qubit gates executed by Rydberg pulses (cooling CZs excluded)."""
        return self._count("num_2q_gates")

    @property
    def num_cooling_cz(self) -> int:
        """CZ gates spent on cooling swaps (two per atom in the array)."""
        return self._count("num_cooling_cz")

    @property
    def num_1q_gates(self) -> int:
        return self._count("num_1q_gates")

    @property
    def two_qubit_depth(self) -> int:
        """Number of stages whose Rydberg pulse executes at least one gate."""
        return self._count("two_qubit_depth")

    @property
    def num_moves(self) -> int:
        return self._count("num_moves")

    @property
    def num_moving_stages(self) -> int:
        """Stages that move at least one AOD line."""
        return self._count("num_moving_stages")

    @property
    def num_1q_stages(self) -> int:
        """Stages that flush at least one Raman pulse."""
        return self._count("num_1q_stages")

    @property
    def num_cooling_events(self) -> int:
        return self._count("num_cooling_events")

    def total_move_distance(self, params: HardwareParams) -> float:
        """Total AOD line travel in metres, summed over moves in stage order.

        Per-move distances are computed elementwise in float64 (bit-equal
        to the scalar ``abs(e - s) * pitch``); only the accumulation stays
        sequential, left to right across segments.
        """
        pitch = params.atom_distance
        total = 0
        for start, end in self._segment_arrays(np.float64, "move_start", "move_end"):
            total = sum((np.abs(end - start) * pitch).tolist(), total)
        return total

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
        total = 0.0
        for offsets in self._segment_arrays(
            np.int64, "off_raman", "off_move", "off_gate", "off_cool"
        ):
            total = sum(_stage_times(*offsets, lut), total)
        return total

    def gate_pairs(self) -> list[tuple[int, int]]:
        """All executed 2Q pairs in order (for equivalence checks)."""
        pairs: list[tuple[int, int]] = []
        for a, b in self._segment_arrays(np.int64, "gate_a", "gate_b"):
            pairs.extend(zip(a.tolist(), b.tolist()))
        return pairs

    def gate_n_vib_arrays(self) -> Iterator[np.ndarray]:
        """``n_vib`` per executed 2Q gate as float64 arrays, one per
        segment, in execution order (what fidelity scoring reads)."""
        for (n_vib,) in self._segment_arrays(np.float64, "gate_n_vib"):
            yield n_vib


#: environment switch: set to a directory path to make the router emit into
#: a :class:`SpillingProgramStore` whose segment file lives there
SPILL_ENV = "REPRO_PROGRAM_SPILL"
#: environment override for the per-segment stage count
SPILL_STAGES_ENV = "REPRO_PROGRAM_SPILL_STAGES"
DEFAULT_SEGMENT_STAGES = 512


class SpillingProgramStore(ProgramStore):
    """Bounded-memory :class:`ProgramStore`: closed stages spill to disk.

    Every ``segment_stages`` closed stages, the in-memory columns are
    written to the segment file as one length-prefixed v3 binary chunk
    record (:mod:`repro.core.binformat`), truncated in place, and the
    offset tables rebased in place — *in place* because the router binds
    ``end_stage`` and the column ``.append`` methods to the concrete list
    objects before emission starts.  Emission RSS is therefore bounded by
    the segment size, not the circuit size.

    Aggregates need nothing here: the base folds walk the flushed segments
    (their counts taken at flush time, their columns seek-read) before the
    in-memory tail.  The segment file is not reference-counted — call
    :meth:`discard` when the program is no longer needed.
    """

    def __init__(
        self,
        num_qubits: int = 0,
        *,
        spill_dir: str | None = None,
        segment_stages: int = DEFAULT_SEGMENT_STAGES,
    ) -> None:
        super().__init__(num_qubits=num_qubits)
        self.segment_stages = max(1, int(segment_stages))
        self._flushed = _SegmentFile(spill_dir)

    @property
    def segment_path(self) -> str | None:
        return self._flushed.path

    def end_stage(self) -> None:
        super().end_stage()
        if len(self.off_gate) - 1 >= self.segment_stages:
            self._flush()

    def _flush(self) -> None:
        """Spill every closed in-memory stage to the segment file."""
        k = len(self.off_gate) - 1
        counts = {key: count(self) for key, count in _SEGMENT_COUNTS.items()}
        self._flushed.append(self.chunk_doc(0, k), counts)
        cuts = {fam: getattr(self, off_attr)[k] for fam, off_attr in _OFFSET_SPEC}
        for fam, _key, attr, _enc, _dec in _COLUMN_SPEC:
            del getattr(self, attr)[: cuts[fam]]
        for fam, off_attr in _OFFSET_SPEC:
            off = getattr(self, off_attr)
            base = off[k]
            off[:] = [o - base for o in off[k:]]
        # the in-place truncation/rebase above can leave stale same-length
        # cached views behind — drop them all
        self.drop_column_arrays()


def emission_store(num_qubits: int) -> ProgramStore:
    """The store the router emits into.

    A plain :class:`ProgramStore` by default; a
    :class:`SpillingProgramStore` when ``REPRO_PROGRAM_SPILL`` names a
    directory (``REPRO_PROGRAM_SPILL_STAGES`` overrides the segment size).
    """
    spill_dir = os.environ.get(SPILL_ENV)
    if not spill_dir:
        return ProgramStore(num_qubits=num_qubits)
    segment_stages = int(os.environ.get(SPILL_STAGES_ENV, DEFAULT_SEGMENT_STAGES))
    return SpillingProgramStore(
        num_qubits=num_qubits,
        spill_dir=spill_dir,
        segment_stages=segment_stages,
    )
