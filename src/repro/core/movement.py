"""Movement kinematics, heating (n_vib) tracking, and cooling insertion.

Implements Sec. IV's physics bookkeeping on top of the stage plans produced
by the router:

* AOD line positions persist across stages (in site units).  Engaged lines
  travel to their interaction coordinates; after the Rydberg pulse they
  retreat to ``target + parking_offset(aod)``, a per-AOD fractional offset
  that keeps parked atoms out of blockade range of every SLM trap, meeting
  point, and other-AOD parked atom (see :mod:`repro.core.constraints`).
  The retreat distance is folded into the stage's movement total.
* Every atom in a moved row or column heats: ``delta n_vib`` follows the
  constant-jerk profile formula (Sec. IV) and accumulates per atom.
* When any atom of an AOD exceeds the cooling threshold, the whole AOD array
  is swapped with a pre-cooled twin (2 CZ per atom) and its atoms' n_vib
  reset — the paper's cooling procedure.

The tracker emits **columnar**: :meth:`MovementTracker.bind_store` returns
an emitter closure over a :class:`~repro.core.program.ProgramStore` that
appends move records and the per-atom displacement/heating history straight
into the store's flat columns — the router's per-stage emission hot path.
Internals are list-indexed (line positions, atoms-per-line, array-of-atom)
and atoms moved along a single axis share one per-line heat computation,
but every float expression and traversal order is bit-identical to the
historical object-building loop — including the ``set(dx) | set(dy)``
iteration the loss-sample log is pinned to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from ..hardware.parameters import HardwareParams
from ..hardware.raa import AtomLocation, RAAArchitecture
from .constraints import parking_offset
from .instructions import CoolingEvent

if TYPE_CHECKING:
    from .program import ProgramStore

#: A line's row/column maps as the router's stage plans produce them.
LineMaps = dict[int, dict[int, float]]


@dataclass
class MovementTracker:
    """Stateful AOD-line positions and per-atom heating across stages."""

    architecture: RAAArchitecture
    locations: dict[int, AtomLocation]
    params: HardwareParams
    cooling_threshold: float | None = None
    #: per-AOD line positions in site units, indexed ``[aod][line]``
    row_pos: dict[int, list[float]] = field(default_factory=dict)
    col_pos: dict[int, list[float]] = field(default_factory=dict)
    #: per-atom vibrational quantum number, indexed by qubit slot
    n_vib: list[float] = field(default_factory=list)
    #: n_vib value at each (atom, move) event, for the loss model
    loss_samples: list[float] = field(default_factory=list)
    num_cooling_events: int = 0

    def __post_init__(self) -> None:
        if self.cooling_threshold is None:
            self.cooling_threshold = self.params.n_vib_cooling_threshold
        num_arrays = self.architecture.num_arrays
        for a in range(1, num_arrays):
            shape = self.architecture.array_shape(a)
            off = parking_offset(a)
            self.row_pos[a] = [r + off for r in range(shape.rows)]
            self.col_pos[a] = [c + off for c in range(shape.cols)]
        size = max(self.locations, default=-1) + 1
        if not self.n_vib:
            self.n_vib = [0.0] * size
        #: atoms-per-line lookup, indexed ``[aod][line]`` (AOD atoms only);
        #: per-line order follows the ``locations`` iteration order — the
        #: pinned dy/dx insertion (and so loss-sample) order
        self._row_atoms: list[list[list[int]]] = [
            [
                []
                for _ in range(
                    self.architecture.array_shape(a).rows if a else 0
                )
            ]
            for a in range(num_arrays)
        ]
        self._col_atoms: list[list[list[int]]] = [
            [
                []
                for _ in range(
                    self.architecture.array_shape(a).cols if a else 0
                )
            ]
            for a in range(num_arrays)
        ]
        #: array id per qubit slot (list-indexed; slots are small ints)
        self._array_of: list[int] = [0] * size
        for q, loc in self.locations.items():
            self._array_of[q] = loc.array
            if loc.is_aod:
                self._row_atoms[loc.array][loc.row].append(q)
                self._col_atoms[loc.array][loc.col].append(q)
        self._atoms_by_array: dict[int, list[int]] = {}
        for q, loc in self.locations.items():
            self._atoms_by_array.setdefault(loc.array, []).append(q)
        #: arrays holding an atom over the cooling threshold — maintained
        #: by the heating loop (one float compare per heated atom; the
        #: array lookup happens only on a crossing), so maybe_cool is O(1)
        #: on the overwhelmingly common cold stages
        self._threshold = float(self.cooling_threshold)
        self._hot_arrays: set[int] = {
            self._array_of[q]
            for q in self.locations
            if self.n_vib[q] > self._threshold
        }
        #: heating-formula denominator, factored out of the per-move loop;
        #: identical float product to HardwareParams.delta_n_vib's
        self._dnv_denom = (
            self.params.xzpf * (self.params.omega0**2) * (self.params.t_per_move**2)
        )
        #: per-AOD parking offsets, hoisted out of the stage loop
        self._park: list[float] = [
            parking_offset(a) for a in range(self.architecture.num_arrays)
        ]

    # -- stage application ------------------------------------------------------

    def bind_store(self, store: "ProgramStore") -> Callable[[LineMaps, LineMaps], None]:
        """An emitter ``emit(row_maps, col_maps)`` appending into *store*.

        One routing stage per call: move engaged lines to their targets,
        pulse, then retreat them — recording the line moves and per-atom
        displacements (metres) in *store*'s open stage and accumulating
        heating into the tracker.  Callers read gate-time n_vib values
        *before* :meth:`maybe_cool`, so the heating error of this stage's
        gates sees the pre-cooling temperature.

        Binding hoists every column append and tracker table into the
        closure once, so the per-stage cost is pure loop work.  The float
        math matches the historical per-atom loop bit-for-bit: atoms moved
        along one axis reuse their line's ``(0.0 + t**2) ** 0.5`` distance
        and heat increment (equal inputs, equal expressions), and the
        traversal order — including the pinned ``set(dx) | set(dy)``
        loss-sample order — is unchanged.
        """
        pitch = self.params.atom_distance
        row_pos = self.row_pos
        col_pos = self.col_pos
        row_atoms = self._row_atoms
        col_atoms = self._col_atoms
        park = self._park
        n_vib = self.n_vib
        dnv_denom = self._dnv_denom
        loss_append = self.loss_samples.append
        array_of = self._array_of
        hot_add = self._hot_arrays.add
        threshold = self._threshold

        aod_append = store.move_aod.append
        axis_append = store.move_axis.append
        index_append = store.move_index.append
        start_append = store.move_start.append
        end_append = store.move_end.append
        amd_qubit_append = store.amd_qubit.append
        amd_dist_append = store.amd_dist.append

        # per-stage scratch, reused across calls (cleared, not reallocated)
        dx: dict[int, float] = {}
        dy: dict[int, float] = {}
        # travel -> (d_m, delta_n_vib) memos.  Heat depends only on the
        # displacement and hardware constants, and travels are quantized
        # (half-integer lattice + per-AOD parking offsets), so these hit
        # across the whole route; capped as a safety valve.
        line_heat: dict[float, tuple[float, float]] = {}
        pair_heat: dict[tuple[float, float], tuple[float, float]] = {}

        def emit(row_maps: LineMaps, col_maps: LineMaps) -> None:
            dx.clear()
            dy.clear()
            for aod, rmap in row_maps.items():
                if not rmap:
                    continue
                off = park[aod]
                pos = row_pos[aod]
                atoms = row_atoms[aod]
                for r, target in rmap.items():
                    start = pos[r]
                    travel = abs(start - target) + off
                    aod_append(aod)
                    axis_append("row")
                    index_append(r)
                    start_append(start)
                    end_append(float(target))
                    pos[r] = target + off
                    for q in atoms[r]:
                        dy[q] = travel
            for aod, cmap in col_maps.items():
                if not cmap:
                    continue
                off = park[aod]
                pos = col_pos[aod]
                atoms = col_atoms[aod]
                for c, target in cmap.items():
                    start = pos[c]
                    travel = abs(start - target) + off
                    aod_append(aod)
                    axis_append("col")
                    index_append(c)
                    start_append(start)
                    end_append(float(target))
                    pos[c] = target + off
                    for q in atoms[c]:
                        dx[q] = travel

            # NOTE: the traversal order (and with it the loss-sample order)
            # is pinned to the historical `set(dx) | set(dy)` construction —
            # the noisy simulator consumes the log positionally.
            for q in set(dx) | set(dy):
                tx = dx.get(q)
                ty = dy.get(q)
                if tx is None:
                    t = ty
                elif ty is None:
                    t = tx
                else:
                    t = None
                if t is not None:
                    # Single-axis atom: every atom moved by this travel
                    # shares the same displacement, so compute (and round)
                    # once per travel value.  `(t ** 2) ** 0.5` is
                    # bit-identical to the historical
                    # `(0.0 + t ** 2) ** 0.5`.
                    cached = line_heat.get(t)
                    if cached is None:
                        d_sites = (t**2) ** 0.5
                        d_m = d_sites * pitch
                        # delta_n_vib(d_m) inlined (same expression order
                        # bit-for-bit)
                        val = 6.0 * d_m / dnv_denom
                        cached = (d_m, 0.5 * val * val)
                        if len(line_heat) > 4096:
                            line_heat.clear()
                        line_heat[t] = cached
                    d_m, inc = cached
                else:
                    key = (tx, ty)
                    cached = pair_heat.get(key)
                    if cached is None:
                        d_sites = (tx**2 + ty**2) ** 0.5
                        if d_sites <= 0.0:
                            continue
                        d_m = d_sites * pitch
                        val = 6.0 * d_m / dnv_denom
                        cached = (d_m, 0.5 * val * val)
                        if len(pair_heat) > 4096:
                            pair_heat.clear()
                        pair_heat[key] = cached
                    d_m, inc = cached
                amd_qubit_append(q)
                amd_dist_append(d_m)
                n = n_vib[q] + inc
                n_vib[q] = n
                if n > threshold:
                    hot_add(array_of[q])
                # The atom is hottest *during* the move; the loss model
                # samples the post-move vibrational state.
                loss_append(n)

        return emit

    def maybe_cool(self) -> list[CoolingEvent]:
        """Swap any overheated AOD with a cooled twin (Sec. IV).

        O(1) when no array is over threshold (the emitter maintains the
        hot-array set, so the common cold-stage call is one truthiness
        check plus an empty-list allocation).
        """
        if not self._hot_arrays:
            return []
        events: list[CoolingEvent] = []
        for aod in range(1, self.architecture.num_arrays):
            atoms = self._atoms_by_array.get(aod)
            if not atoms:
                continue
            if aod in self._hot_arrays:
                events.append(CoolingEvent(aod=aod, num_atoms=len(atoms)))
                for q in atoms:
                    self.n_vib[q] = 0.0
                self._hot_arrays.discard(aod)
                self.num_cooling_events += 1
        return events
