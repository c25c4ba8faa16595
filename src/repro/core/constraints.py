"""The three RAA movement constraints (Figs. 9-11) and the stage model.

During one routing stage each AOD array carries a *partial* map from its
rows/columns onto interaction coordinates expressed in site units (the SLM
grid has pitch = ``atom_distance`` and its traps sit at integer coordinates).
An AOD atom is **engaged** when both its row and its column are mapped; it
then lands at ``(rowmap[r], colmap[c])``.

Interaction coordinates live on the half-integer lattice: AOD-SLM gates meet
at the SLM atom's integer position; AOD-AOD gates may also meet at
half-offset points, which are 3 Rydberg radii from the nearest SLM trap
(pitch >= 6 r_b, Sec. IV) and therefore safely out of blockade range of any
fixed atom.

Disengaged lines park at per-AOD fractional offsets strictly between 0 and
0.5 (mod 1), so a parked atom can never coincide with an SLM trap, a
half-offset meeting point, or a parked atom of a different AOD; parked atoms
of the *same* AOD are separated by the array's own row/col pitch.  Hence
only *engaged* atoms can collide, and the constraint checks reduce to:

* **C1 (no unintended interaction, Fig. 9)** — every interaction point
  hosting two atoms hosts exactly one *scheduled* gate pair, and no point
  hosts three atoms.  SLM atoms always sit on their integer sites.
* **C2 (order preservation, Fig. 10)** — each AOD's row map and column map
  must be strictly increasing.
* **C3 (no overlap, Fig. 11)** — each AOD's row map and column map must be
  injective.

Each check can be relaxed independently (Fig. 22's ablation).

The constraint engine is **incremental**: every mutation goes through
:meth:`StagePlan.add`, which journals the entries it touched (so
:meth:`StagePlan.restore` pops the journal instead of deep-copying the whole
plan), keeps per-line sorted indices for O(log n) C2/C3 checks, and updates
a site-occupancy index so :meth:`StagePlan.is_legal` is an O(1) lookup
rather than a full :meth:`engaged_atoms` rebuild.  Mutating ``row_maps`` /
``col_maps`` directly bypasses these indexes; the authoritative full scans
(:meth:`engaged_atoms`, :meth:`violates_c1`) still see such edits.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import NamedTuple

from ..hardware.raa import AtomLocation, RAAArchitecture

#: Coordinates are snapped to this resolution before comparison.
_EPS = 1e-6

Site = tuple[float, float]


def parking_offset(aod: int) -> float:
    """Fractional parking offset of AOD *aod* (distinct per AOD, never 0/0.5)."""
    return 0.07 + 0.06 * aod


@dataclass(frozen=True)
class ConstraintToggles:
    """Which hardware constraints the router enforces (all on by default)."""

    no_unintended_interaction: bool = True  # constraint 1
    preserve_order: bool = True  # constraint 2
    no_overlap: bool = True  # constraint 3


def _snap(x: float) -> float:
    """Round to the comparison resolution."""
    return round(x / _EPS) * _EPS


def _snap_site(r: float, c: float) -> Site:
    """Snap both coordinates of a site to the comparison resolution.

    The single definition of the float-snapping discipline shared by
    :meth:`StagePlan.can_add`, :meth:`StagePlan.add`, and both
    :meth:`StagePlan.place_pair` paths, so occupancy keys cannot drift
    between them.
    """
    return (round(r / _EPS) * _EPS, round(c / _EPS) * _EPS)


def _overlaps(lines: list[tuple[list[float], int]], site: Site) -> bool:
    """True if *site* comes within ``_EPS`` of a committed target on any of
    *lines* (``(sorted targets, coord)`` pairs): a C3 equality."""
    for ts, coord in lines:
        t = site[coord]
        j = bisect_left(ts, t)
        if (j < len(ts) and ts[j] - t < _EPS) or (j and t - ts[j - 1] < _EPS):
            return True
    return False


class CandidateSet(NamedTuple):
    """Candidate interaction sites for one qubit pair, plus their
    coordinate extremes (over the snapped values) so the placement engine
    can reject a whole scan when a gate's feasibility window cannot touch
    any candidate."""

    sites: list[tuple[Site, Site]]  # (raw, snapped), best-first
    min_r: float
    max_r: float
    min_c: float
    max_c: float

    @classmethod
    def from_pairs(cls, pairs: list[tuple[Site, Site]]) -> "CandidateSet":
        """Build a set (with its extremes) from ``(raw, snapped)`` pairs —
        the one constructor both the router and direct list-of-pairs
        callers go through."""
        if not pairs:
            return cls(pairs, 0.0, 0.0, 0.0, 0.0)
        rs = [s[0] for _raw, s in pairs]
        cs = [s[1] for _raw, s in pairs]
        return cls(pairs, min(rs), max(rs), min(cs), max(cs))


class LocationIndex:
    """Static lookup tables for one ``(architecture, locations)`` pair.

    Everything here depends only on where atoms *live*, not on any stage
    plan, so the router builds one instance per :meth:`route` call and
    shares it across every speculative :class:`StagePlan` instead of
    rebuilding the dictionaries per stage.
    """

    __slots__ = ("slm_site_to_qubit", "aod_atoms", "line_atoms")

    def __init__(self, locations: dict[int, AtomLocation]) -> None:
        self.slm_site_to_qubit: dict[Site, int] = {
            (float(loc.row), float(loc.col)): q
            for q, loc in locations.items()
            if loc.is_slm
        }
        self.aod_atoms: dict[int, list[tuple[int, AtomLocation]]] = {}
        #: per axis, (aod, line) -> {other-axis index: qubit}: the atom at
        #: each crosspoint of that line.  A new line entry engages exactly
        #: the atoms at its crosspoints with the other axis's committed
        #: entries, so the engagement walk visits those entries (usually
        #: 1-3), not every atom on the line.
        self.line_atoms: tuple[
            dict[tuple[int, int], dict[int, int]],
            dict[tuple[int, int], dict[int, int]],
        ] = ({}, {})
        by_row, by_col = self.line_atoms
        for q, loc in locations.items():
            if loc.is_aod:
                self.aod_atoms.setdefault(loc.array, []).append((q, loc))
                by_row.setdefault((loc.array, loc.row), {})[loc.col] = q
                by_col.setdefault((loc.array, loc.col), {})[loc.row] = q


class _SortedLine:
    """Sorted mirror of one AOD line map for O(log n) constraint checks.

    ``idx``/``tgt`` are parallel arrays sorted by line index; ``tsorted``
    holds the same targets sorted by value (for the C3 equality probe).
    ``monotone`` stays True while the targets are weakly increasing in line
    index — guaranteed when C2 was enforced on every insertion — enabling
    the neighbour-only C2 check; it turns sticky-False otherwise and the
    check falls back to a linear scan.
    """

    __slots__ = ("idx", "tgt", "tsorted", "monotone")

    def __init__(self) -> None:
        self.idx: list[int] = []
        self.tgt: list[float] = []
        self.tsorted: list[float] = []
        self.monotone = True

    def insert(self, index: int, target: float) -> None:
        p = bisect_left(self.idx, index)
        self.idx.insert(p, index)
        self.tgt.insert(p, target)
        if p > 0 and self.tgt[p - 1] > target + _EPS:
            self.monotone = False
        if p + 1 < len(self.tgt) and self.tgt[p + 1] < target - _EPS:
            self.monotone = False
        insort(self.tsorted, target)

    def remove(self, index: int, target: float) -> None:
        p = bisect_left(self.idx, index)
        del self.idx[p]
        del self.tgt[p]
        del self.tsorted[bisect_left(self.tsorted, target)]


# journal record tags
_ROW, _COL, _SCHED, _BUSY = 0, 1, 2, 3


@dataclass
class StagePlan:
    """Mutable plan for one stage: per-AOD row/col maps + scheduled gates.

    ``row_maps[aod]`` maps AOD row index -> target coordinate (site units);
    likewise for columns.  ``scheduled`` maps an interaction point to the
    qubit pair gated there.

    ``index`` may be a precomputed :class:`LocationIndex` for these
    locations; passing one lets the router skip rebuilding the static
    lookup tables for every speculative plan.
    """

    architecture: RAAArchitecture
    locations: dict[int, AtomLocation]
    toggles: ConstraintToggles = field(default_factory=ConstraintToggles)
    row_maps: dict[int, dict[int, float]] = field(default_factory=dict)
    col_maps: dict[int, dict[int, float]] = field(default_factory=dict)
    scheduled: dict[Site, tuple[int, int]] = field(default_factory=dict)
    busy_qubits: set[int] = field(default_factory=set)
    index: LocationIndex | None = None

    def __post_init__(self) -> None:
        for a in range(1, self.architecture.num_arrays):
            self.row_maps.setdefault(a, {})
            self.col_maps.setdefault(a, {})
        if self.index is None:
            self.index = LocationIndex(self.locations)
        self._slm_site_to_qubit = self.index.slm_site_to_qubit
        self._aod_atoms = self.index.aod_atoms
        self._lines: tuple[dict[int, _SortedLine], dict[int, _SortedLine]] = ({}, {})
        #: per-pair requirement templates for :meth:`place_pair` — static
        #: for the plan's lifetime (locations and toggles are fixed, and
        #: :meth:`reset` clears maps/lines *in place* so the cached object
        #: references stay valid across the router's scratch-plan reuse)
        self._pair_templates: dict[tuple[int, int], tuple] = {}
        self._atom_halves: dict[int, tuple] = {}
        self._max_r: float = self.architecture.site_rows - 0.5
        self._max_c: float = self.architecture.site_cols - 0.5
        #: engaged AOD atoms per interaction point (incremental occupancy)
        self._occupancy: dict[Site, list[int]] = {}
        #: interaction points currently violating C1
        self._bad_sites: set[Site] = set()
        self._journal: list[tuple] = []
        self._num_line_entries = 0
        # Replay any prefilled maps through the incremental indexes: every
        # line entry first, then each engaged atom once (engaging per entry
        # would land an atom once from its row and again from its column).
        for axis, maps in ((_ROW, self.row_maps), (_COL, self.col_maps)):
            for aod, m in maps.items():
                for idx, target in m.items():
                    self._line(axis, aod).insert(idx, target)
                    self._num_line_entries += 1
        for q, site in self.engaged_atoms():
            self._occupancy.setdefault(site, []).append(q)
        for site in self._occupancy:
            self._refresh_site(site)

    def _line(self, axis: int, aod: int) -> _SortedLine:
        per_axis = self._lines[axis]
        line = per_axis.get(aod)
        if line is None:
            line = per_axis[aod] = _SortedLine()
        return line

    def _atom_half(self, qubit: int) -> tuple:
        """Cached per-atom contribution to pair templates.

        ``(loc, is_aod, reqs, home)`` — an SLM atom contributes its home
        coordinate, an AOD atom its two line requirements (map dict and
        sorted mirror resolved up front; (axis, aod) identity == line
        identity) with the line's crosspoint atoms pre-resolved.  Pair
        templates are assembled from two halves, so the per-line lookups
        happen once per *atom* instead of once per pair.
        """
        half = self._atom_halves.get(qubit)
        if half is not None:
            return half
        loc = self.locations[qubit]
        aod = loc.array
        if aod == 0:
            half = (loc, False, (), ((loc.row, loc.col),))
        else:
            row_map = self.row_maps[aod]
            col_map = self.col_maps[aod]
            by_row, by_col = self.index.line_atoms
            reqs = (
                (
                    row_map,
                    self._line(_ROW, aod),
                    loc.row,
                    0,
                    by_row[(aod, loc.row)],
                    col_map,
                    True,
                    aod,
                ),
                (
                    col_map,
                    self._line(_COL, aod),
                    loc.col,
                    1,
                    by_col[(aod, loc.col)],
                    row_map,
                    False,
                    aod,
                ),
            )
            half = (loc, True, reqs, ())
        self._atom_halves[qubit] = half
        return half

    def _pair_template(self, qubit_a: int, qubit_b: int) -> tuple:
        """Cached per-pair requirement template for :meth:`place_pair`.

        Everything about a pair that does not depend on the candidate site
        or the plan *state*: the line requirements, the SLM home
        coordinates, the first atom's location (for the same-array error),
        whether each atom sits in an AOD, and whether the empty-plan fast
        path is statically eligible (at least one AOD atom, not both in the
        same array).  Assembled from the per-atom halves: two atoms only ever
        share a line when they live in the same AOD array — the same
        row/col means the identical entries (kept once); two distinct
        atoms would put two distinct entries on one shared line, which no
        inter-array gate does, so ``reqs`` is None and :meth:`place_pair`
        rejects the pair.
        """
        key = (qubit_a, qubit_b)
        tmpl = self._pair_templates.get(key)
        if tmpl is not None:
            return tmpl
        loc_a, a_aod, a_reqs, a_home = self._atom_half(qubit_a)
        loc_b, b_aod, b_reqs, b_home = self._atom_half(qubit_b)
        same_array = a_aod and b_aod and loc_a.array == loc_b.array
        if not same_array:
            reqs = a_reqs + b_reqs
        elif loc_a.row == loc_b.row and loc_a.col == loc_b.col:
            reqs = a_reqs  # the same physical atom twice
        else:
            reqs = None
        tmpl = (
            reqs,
            a_home + b_home,
            loc_a,
            a_aod,
            b_aod,
            (a_aod or b_aod) and not same_array,
        )
        self._pair_templates[key] = tmpl
        return tmpl

    def reset(self) -> None:
        """Return the plan to the empty state in O(structures touched).

        Equivalent to ``restore(0)`` for plans built through
        :meth:`add`/:meth:`place_pair`, but clears wholesale instead of
        popping the journal entry by entry — the router uses this to reuse
        one scratch plan across stages.
        """
        for m in self.row_maps.values():
            m.clear()
        for m in self.col_maps.values():
            m.clear()
        self.scheduled.clear()
        self.busy_qubits.clear()
        for per_axis in self._lines:
            for line in per_axis.values():
                line.idx.clear()
                line.tgt.clear()
                line.tsorted.clear()
                line.monotone = True
        self._occupancy.clear()
        self._bad_sites.clear()
        self._journal.clear()
        self._num_line_entries = 0

    # -- incremental C1 occupancy -------------------------------------------------

    def _engage(
        self, axis: int, aod: int, idx: int, target: float, add: bool
    ) -> None:
        """Engage/disengage the atoms a map entry completes.

        A row entry ``idx -> target`` lands every AOD atom in that row whose
        column is also mapped; symmetrically for column entries.  The walk
        visits the other axis's committed entries and looks up the atom at
        each crosspoint.
        """
        atoms_on_line = self.index.line_atoms[axis].get((aod, idx))
        other_map = (self.col_maps if axis == _ROW else self.row_maps)[aod]
        if not atoms_on_line or not other_map:
            return
        snapped = round(target / _EPS) * _EPS
        occupancy = self._occupancy
        slm_lookup = self._slm_site_to_qubit
        for other_idx, other_t in other_map.items():
            q = atoms_on_line.get(other_idx)
            if q is None:
                continue
            other_snapped = round(other_t / _EPS) * _EPS
            if axis == _ROW:
                site = (snapped, other_snapped)
            else:
                site = (other_snapped, snapped)
            if add:
                atoms = occupancy.get(site)
                if atoms is None:
                    occupancy[site] = [q]
                    # a lone engaged atom only matters on an SLM trap
                    if site in slm_lookup:
                        self._refresh_site(site)
                else:
                    atoms.append(q)
                    self._refresh_site(site)
            else:
                atoms = occupancy[site]
                if len(atoms) == 1:
                    del occupancy[site]
                    # 0 engaged atoms can never violate C1
                    self._bad_sites.discard(site)
                else:
                    atoms.remove(q)
                    self._refresh_site(site)

    def _refresh_site(self, site: Site) -> None:
        """Recompute whether *site* violates C1 after an occupancy change."""
        atoms = self._occupancy.get(site, ())
        slm_q = self._slm_site_to_qubit.get(site)
        total = len(atoms) + (slm_q is not None)
        if total < 2:
            self._bad_sites.discard(site)
            return
        if total > 2:
            self._bad_sites.add(site)
            return
        pair = self.scheduled.get(site)
        if pair is None:
            self._bad_sites.add(site)
            return
        if slm_q is None:
            first, second = atoms
        else:
            first, second = atoms[0], slm_q
        pa, pb = pair
        if (first == pa and second == pb) or (first == pb and second == pa):
            self._bad_sites.discard(site)
        else:
            self._bad_sites.add(site)

    # -- journaled mutation -------------------------------------------------------

    def _map_set(self, axis: int, aod: int, idx: int, target: float) -> None:
        """Set one line-map entry, journaling the old value for undo."""
        m = (self.row_maps if axis == _ROW else self.col_maps)[aod]
        old = m.get(idx)
        if old is not None and old == target:
            return  # no-op: a second gate reusing an already-set line
        line = self._line(axis, aod)
        if old is not None:
            self._engage(axis, aod, idx, old, add=False)
            line.remove(idx, old)
        else:
            self._num_line_entries += 1
        m[idx] = target
        line.insert(idx, target)
        self._engage(axis, aod, idx, target, add=True)
        self._journal.append((axis, aod, idx, old))

    def _map_unset(self, axis: int, aod: int, idx: int, old: float | None) -> None:
        """Undo one :meth:`_map_set` (restore *old*, or delete if None)."""
        m = (self.row_maps if axis == _ROW else self.col_maps)[aod]
        current = m[idx]
        line = self._line(axis, aod)
        self._engage(axis, aod, idx, current, add=False)
        line.remove(idx, current)
        if old is None:
            del m[idx]
            self._num_line_entries -= 1
        else:
            m[idx] = old
            line.insert(idx, old)
            self._engage(axis, aod, idx, old, add=True)

    # -- map-extension feasibility ------------------------------------------------

    def _line_ok(self, existing: dict[int, float], index: int, target: float) -> bool:
        """Can line *index* map to *target* given the other entries?

        Order preservation (C2) forbids *inversions*; overlap (C3) forbids
        *equal* targets.  With both enforced the map is strictly monotone;
        relaxing C3 alone still requires a weakly monotone map.

        Reference (linear) implementation, kept for arbitrary dicts; the
        hot path uses :meth:`_line_ok_fast` over the sorted mirrors.
        """
        bound = existing.get(index)
        if bound is not None:
            return abs(bound - target) < _EPS
        for other_idx, other_t in existing.items():
            if self.toggles.no_overlap and abs(other_t - target) < _EPS:
                return False
            if self.toggles.preserve_order:
                if other_idx < index and other_t > target + _EPS:
                    return False
                if other_idx > index and other_t < target - _EPS:
                    return False
        return True

    def _line_ok_fast(
        self,
        axis: int,
        aod: int,
        idx: int,
        target: float,
        staged: list[tuple[int, int, int, float]],
    ) -> bool:
        """O(log n) version of :meth:`_line_ok` against the committed map
        plus the (tiny) *staged* requirement list of the current probe."""
        bound = (self.row_maps if axis == _ROW else self.col_maps)[aod].get(idx)
        if bound is None:
            for ax2, aod2, idx2, t2 in staged:
                if ax2 == axis and aod2 == aod and idx2 == idx:
                    bound = t2
        if bound is not None:
            return abs(bound - target) < _EPS
        line = self._lines[axis].get(aod)
        no_overlap = self.toggles.no_overlap
        preserve_order = self.toggles.preserve_order
        if line is not None and line.idx:
            if no_overlap:
                ts = line.tsorted
                j = bisect_left(ts, target)
                if j < len(ts) and ts[j] - target < _EPS:
                    return False
                if j > 0 and target - ts[j - 1] < _EPS:
                    return False
            if preserve_order:
                if line.monotone:
                    # weakly increasing => prefix max / suffix min are the
                    # immediate neighbours of the insertion point
                    p = bisect_left(line.idx, idx)
                    if p > 0 and line.tgt[p - 1] > target + _EPS:
                        return False
                    if p < len(line.idx) and line.tgt[p] < target - _EPS:
                        return False
                else:
                    for other_idx, other_t in zip(line.idx, line.tgt):
                        if other_idx < idx and other_t > target + _EPS:
                            return False
                        if other_idx > idx and other_t < target - _EPS:
                            return False
        for ax2, aod2, idx2, t2 in staged:
            if ax2 != axis or aod2 != aod:
                continue
            if no_overlap and abs(t2 - target) < _EPS:
                return False
            if preserve_order:
                if idx2 < idx and t2 > target + _EPS:
                    return False
                if idx2 > idx and t2 < target - _EPS:
                    return False
        return True

    def line_requirements(
        self, qubit: int, site: Site
    ) -> list[tuple[str, int, int, float]]:
        """Row/col map entries needed to bring *qubit* to *site*."""
        loc = self.locations[qubit]
        if loc.is_slm:
            if abs(loc.row - site[0]) > _EPS or abs(loc.col - site[1]) > _EPS:
                raise ValueError(
                    f"SLM qubit {qubit} at {(loc.row, loc.col)} cannot reach {site}"
                )
            return []
        return [
            ("row", loc.array, loc.row, site[0]),
            ("col", loc.array, loc.col, site[1]),
        ]

    def can_add(self, qubit_a: int, qubit_b: int, site: Site) -> bool:
        """Check constraints 2 & 3 for scheduling the pair at *site*.

        Constraint 1 needs the global occupancy view, so callers verify
        :meth:`is_legal` after a tentative :meth:`add` (undo via
        :meth:`snapshot`/:meth:`restore`).
        """
        busy = self.busy_qubits
        if qubit_a in busy or qubit_b in busy:
            return False
        site = _snap_site(site[0], site[1])
        if site in self.scheduled:
            return False
        if not (
            -0.5 <= site[0] <= self.architecture.site_rows - 0.5
            and -0.5 <= site[1] <= self.architecture.site_cols - 0.5
        ):
            return False
        slm_here = self._slm_site_to_qubit.get(site)
        if (
            slm_here is not None
            and slm_here not in (qubit_a, qubit_b)
            and self.toggles.no_unintended_interaction
        ):
            return False
        staged: list[tuple[int, int, int, float]] = []
        for q in (qubit_a, qubit_b):
            loc = self.locations[q]
            if loc.is_slm:
                if (
                    abs(loc.row - site[0]) > _EPS
                    or abs(loc.col - site[1]) > _EPS
                ):
                    return False
                continue
            for axis, idx, target in (
                (_ROW, loc.row, site[0]),
                (_COL, loc.col, site[1]),
            ):
                if not self._line_ok_fast(axis, loc.array, idx, target, staged):
                    return False
                staged.append((axis, loc.array, idx, target))
        return True

    def place_pair(
        self,
        qubit_a: int,
        qubit_b: int,
        candidates: CandidateSet | list[tuple[Site, Site]],
    ) -> tuple[Site | None, bool]:
        """Router hot path: try ``(raw, snapped)`` candidate sites best-first.

        Returns ``(raw_site, overlap_blocked)`` where ``raw_site`` is the
        first candidate that passed every enforced constraint (committed
        into the plan) or None, and ``overlap_blocked`` is True when C3 is
        enforced and at least one rejected candidate would have been
        feasible with C3 relaxed (the Fig. 24 statistic).  Equivalent to
        looping ``can_add`` + ``add`` + ``is_legal`` + ``restore`` per site,
        under every toggle setting, with the strict and C3-relaxed
        feasibility evaluated in one pass.

        The two atoms must sit in different arrays (every routed gate is
        inter-array): two distinct atoms of one AOD array raise
        ``ValueError``, as does a committed line that breaks C2 while C2
        is enforced (only direct map edits can make one).
        """
        if type(candidates) is not CandidateSet:
            # Direct list-of-pairs callers (tests, baselines) get extremes
            # computed once at entry, so they take the identical path as
            # router-built CandidateSets.
            candidates = CandidateSet.from_pairs(candidates)
        extremes = candidates
        candidates = candidates.sites
        tmpl = self._pair_templates.get((qubit_a, qubit_b))
        if tmpl is None:
            tmpl = self._pair_template(qubit_a, qubit_b)
        reqs, slm_homes, loc_a, a_aod, b_aod, empty_ok = tmpl
        if reqs is None:
            raise ValueError(
                f"qubits {qubit_a} and {qubit_b} are distinct atoms of AOD "
                f"array {loc_a.array}; place_pair takes inter-array pairs"
            )
        busy = self.busy_qubits
        if qubit_a in busy or qubit_b in busy:
            return None, False
        if (
            empty_ok
            and self._num_line_entries == 0
            and not self.scheduled
            and not busy
            and candidates
        ):
            # Empty plan, atoms in different arrays: nothing in the plan can
            # conflict, so the best-ranked *valid* candidate commits
            # immediately (the common case for the first gate of every
            # stage).  Router-built CandidateSets are pre-filtered, so the
            # validity check below only guards direct callers; on any
            # failure we fall through to the probe loop.  The only atoms
            # the new entries can engage are the pair itself, so the
            # occupancy update is a single direct write.
            raw, site = candidates[0]
            slm_here = self._slm_site_to_qubit.get(site)
            stray_slm = (
                slm_here is not None and slm_here != qubit_a and slm_here != qubit_b
            )
            site_ok = (
                -0.5 <= site[0] <= self._max_r
                and -0.5 <= site[1] <= self._max_c
                and not (stray_slm and self.toggles.no_unintended_interaction)
            )
            if site_ok:
                for hr, hc in slm_homes:
                    if abs(hr - site[0]) > _EPS or abs(hc - site[1]) > _EPS:
                        site_ok = False
                        break
            if site_ok:
                # Every line is empty, and the template's line objects are
                # already resolved: write each entry straight through them.
                journal_append = self._journal.append
                for m, line, idx, coord, _atoms, _other, is_row, aod in reqs:
                    target = site[coord]
                    m[idx] = target
                    line.insert(idx, target)
                    journal_append((_ROW if is_row else _COL, aod, idx, None))
                self._num_line_entries = len(reqs)
                engaged = [qubit_a] if a_aod else []
                if b_aod:
                    engaged.append(qubit_b)
                landing = _snap_site(site[0], site[1])
                self._occupancy[landing] = engaged
                self.scheduled[site] = (qubit_a, qubit_b)
                journal_append((_SCHED, site))
                if stray_slm:
                    # C1 relaxed let the pair meet on another atom's trap
                    self._refresh_site(landing)
                busy.add(qubit_a)
                busy.add(qubit_b)
                journal_append((_BUSY, qubit_a))
                journal_append((_BUSY, qubit_b))
                return raw, False
            # fall through: validate every candidate via the probe loop
        toggles = self.toggles
        check_c1 = toggles.no_unintended_interaction
        no_overlap = toggles.no_overlap
        preserve_order = toggles.preserve_order
        max_r = self._max_r
        max_c = self._max_c
        scheduled = self.scheduled
        slm_lookup = self._slm_site_to_qubit
        overlap_blocked = False

        # The plan is frozen for the whole probe loop, so each
        # requirement's committed bound and (with C2 enforced) its
        # idx-space neighbours are computed once and *combined per axis*:
        # committed bounds on an axis must all pin the same coordinate,
        # and C2 windows intersect to (max of predecessors, min of
        # successors).  With C2 and C3 both enforced, the committed value
        # nearest the target in value space is always one of those
        # extremes whenever the window admits it, so the C3 probe needs no
        # per-candidate bisect; with C2 relaxed there is no window, and C3
        # bisects the sorted targets of each unpinned committed line
        # instead.  Every candidate then costs a handful of float compares
        # against the two axis summaries.
        inf = float("inf")
        rbound: float | None = None  # per-axis pinned coord
        cbound: float | None = None
        rpred = cpred = -inf
        rsucc = csucc = inf
        #: (sorted targets, coord) per unpinned committed line — the C3
        #: probe when C2 is relaxed
        c3_lines: list[tuple[list[float], int]] = []
        for m, line, idx, coord, _atoms, _other, _is_row, _aod in reqs:
            # Untouched lines (the common case mid-sweep) contribute no
            # bound and an infinite window.
            if line.idx:
                bound = m.get(idx)
                if bound is not None:
                    if coord:
                        if cbound is not None and cbound != bound:
                            # two committed lines pinned to different
                            # coords: no site can satisfy both, with or
                            # without C3
                            return None, False
                        cbound = bound
                    else:
                        if rbound is not None and rbound != bound:
                            return None, False
                        rbound = bound
                    continue
                if preserve_order:
                    if not line.monotone:
                        raise ValueError(
                            "a committed line breaks C2 (order preservation)"
                        )
                    p = bisect_left(line.idx, idx)
                    tgt = line.tgt
                    if coord:
                        if p > 0 and tgt[p - 1] > cpred:
                            cpred = tgt[p - 1]
                        if p < len(tgt) and tgt[p] < csucc:
                            csucc = tgt[p]
                    else:
                        if p > 0 and tgt[p - 1] > rpred:
                            rpred = tgt[p - 1]
                        if p < len(tgt) and tgt[p] < rsucc:
                            rsucc = tgt[p]
                elif no_overlap:
                    c3_lines.append((line.tsorted, coord))
        # The window extremes a target must not equal (C3); out of reach
        # when C3 is relaxed, so the per-candidate test never fires.
        if no_overlap:
            nr_lo, nr_hi, nc_lo, nc_hi = rpred, rsucc, cpred, csucc
        else:
            nr_lo = nc_lo = -inf
            nr_hi = nc_hi = inf

        # Whole-gate shortcuts: if the combined C2 window on either axis is
        # empty, or contradicts a pinned coordinate, no candidate can pass
        # even with C3 relaxed — the entire scan (and the Fig. 24
        # statistic) is decided without probing.
        two_eps = _EPS + _EPS
        if (
            rpred > rsucc + two_eps
            or cpred > csucc + two_eps
            or (
                rbound is not None
                and (rpred > rbound + _EPS or rsucc < rbound - _EPS)
            )
            or (
                cbound is not None
                and (cpred > cbound + _EPS or csucc < cbound - _EPS)
            )
        ):
            return None, False
        if (
            rpred > extremes.max_r + _EPS
            or rsucc < extremes.min_r - _EPS
            or cpred > extremes.max_c + _EPS
            or csucc < extremes.min_c - _EPS
            or (
                rbound is not None
                and (
                    rbound < extremes.min_r - _EPS
                    or rbound > extremes.max_r + _EPS
                )
            )
            or (
                cbound is not None
                and (
                    cbound < extremes.min_c - _EPS
                    or cbound > extremes.max_c + _EPS
                )
            )
        ):
            # The feasibility window cannot touch any candidate: every
            # probe would fail C2 (or the pinned coordinate), strict and
            # relaxed alike.
            return None, False
        occupancy = self._occupancy
        eng_mates: list[tuple[bool, float]] | None = None
        for raw, site in candidates:
            # Silent rejects first, cheapest and most frequent first: the
            # pinned coordinate and the C2 window are float compares.
            r, c = site
            if rbound is not None and abs(rbound - r) >= _EPS:
                continue
            if cbound is not None and abs(cbound - c) >= _EPS:
                continue
            if (
                rpred > r + _EPS
                or rsucc < r - _EPS
                or cpred > c + _EPS
                or csucc < c - _EPS
            ):
                continue  # C2: fails relaxed too
            if site in scheduled or not (
                -0.5 <= r <= max_r and -0.5 <= c <= max_c
            ):
                continue
            slm_here = slm_lookup.get(site)
            if (
                slm_here is not None
                and check_c1
                and slm_here != qubit_a
                and slm_here != qubit_b
            ):
                continue
            feasible = True
            for hr, hc in slm_homes:
                if abs(hr - r) > _EPS or abs(hc - c) > _EPS:
                    feasible = False
                    break
            if not feasible:
                continue
            if (
                abs(r - nr_lo) < _EPS
                or abs(r - nr_hi) < _EPS
                or abs(c - nc_lo) < _EPS
                or abs(c - nc_hi) < _EPS
            ) or (c3_lines and _overlaps(c3_lines, site)):
                overlap_blocked = True  # C3 alone blocked this site
                continue
            if check_c1:
                # Exact C1 pre-check: committing would violate C1 iff a
                # stray atom already sits on this site, or an atom newly
                # engaged by the new line entries lands on the gate site,
                # an occupied point, an SLM trap, or the same point as
                # another newly engaged atom.  It reads only the occupancy
                # index, so it holds whatever C2/C3 allow, and a doomed
                # candidate is never committed and rolled back.
                eng_site = _snap_site(r, c)
                eng_r, eng_c = eng_site
                viol = False
                pre = occupancy.get(eng_site)
                if pre:
                    for x in pre:
                        if x != qubit_a and x != qubit_b:
                            viol = True
                            break
                if not viol:
                    if eng_mates is None:
                        # A new line entry engages the atoms at its
                        # crosspoints with the other axis's committed
                        # entries.  A mate's landing depends on the
                        # candidate only through eng_r/eng_c; its committed
                        # other-axis coordinate is frozen for the whole
                        # probe loop, so resolve and snap each engaged mate
                        # once per call instead of once per candidate.
                        eng_mates = []
                        for m, _ln, idx, _co, atoms, other_map, is_row, _aod in reqs:
                            if idx in m:
                                continue  # committed: engages nothing new
                            for other_idx, other_t in other_map.items():
                                q = atoms.get(other_idx)
                                if q is None or q == qubit_a or q == qubit_b:
                                    continue
                                eng_mates.append(
                                    (is_row, round(other_t / _EPS) * _EPS)
                                )
                    if eng_mates:
                        landings: list[Site] = []
                        for is_row, other_t in eng_mates:
                            landing = (
                                (eng_r, other_t) if is_row else (other_t, eng_c)
                            )
                            if (
                                landing == eng_site
                                or occupancy.get(landing)
                                or landing in slm_lookup
                                or landing in landings
                            ):
                                viol = True
                                break
                            landings.append(landing)
                if viol:
                    continue
            # Commit: :meth:`_map_set` + the ``add=True`` arm of
            # :meth:`_engage` inlined over the requirements (identical to
            # :meth:`add` — the only entries ``reqs`` drops are exact
            # duplicates, which ``_map_set`` would no-op without
            # journaling).
            journal = self._journal
            journal_append = journal.append
            token = len(journal)
            for m, line, idx, coord, line_atoms, other_map, is_row, aod in reqs:
                target = site[coord]
                old = m.get(idx)
                if old is not None and old == target:
                    continue
                axis = _ROW if is_row else _COL
                if old is not None:
                    self._engage(axis, aod, idx, old, add=False)
                    line.remove(idx, old)
                else:
                    self._num_line_entries += 1
                m[idx] = target
                line.insert(idx, target)
                if other_map:
                    snapped = round(target / _EPS) * _EPS
                    for other_idx, other_t in other_map.items():
                        q2 = line_atoms.get(other_idx)
                        if q2 is None:
                            continue
                        other_snapped = round(other_t / _EPS) * _EPS
                        if is_row:
                            esite = (snapped, other_snapped)
                        else:
                            esite = (other_snapped, snapped)
                        atoms = occupancy.get(esite)
                        if atoms is None:
                            occupancy[esite] = [q2]
                            # a lone engaged atom only matters on an SLM
                            # trap
                            if esite in slm_lookup:
                                self._refresh_site(esite)
                        else:
                            atoms.append(q2)
                            self._refresh_site(esite)
                journal_append((axis, aod, idx, old))
            pair = (qubit_a, qubit_b)
            scheduled[site] = pair
            journal_append((_SCHED, site))
            self._refresh_site(site)
            for q in pair:
                if q not in busy:
                    busy.add(q)
                    journal_append((_BUSY, q))
            if not (check_c1 and self._bad_sites):
                return raw, overlap_blocked
            # The pre-check is exact, so only a plan that was illegal before
            # this commit (direct map edits) is rolled back here.
            self.restore(token)
        return None, overlap_blocked

    def add(self, qubit_a: int, qubit_b: int, site: Site) -> None:
        """Commit the pair at *site* (must have passed :meth:`can_add`)."""
        site = _snap_site(site[0], site[1])
        for q in (qubit_a, qubit_b):
            for axis, aod, idx, target in self.line_requirements(q, site):
                self._map_set(_ROW if axis == "row" else _COL, aod, idx, target)
        self.scheduled[site] = (qubit_a, qubit_b)
        self._journal.append((_SCHED, site))
        self._refresh_site(site)
        for q in (qubit_a, qubit_b):
            if q not in self.busy_qubits:
                self.busy_qubits.add(q)
                self._journal.append((_BUSY, q))

    def snapshot(self) -> int:
        """O(1) undo token for speculative adds: the journal length."""
        return len(self._journal)

    def restore(self, token: int) -> None:
        """Pop the journal back to *token*, undoing every later mutation."""
        journal = self._journal
        while len(journal) > token:
            rec = journal.pop()
            tag = rec[0]
            if tag == _SCHED:
                site = rec[1]
                del self.scheduled[site]
                self._refresh_site(site)
            elif tag == _BUSY:
                self.busy_qubits.discard(rec[1])
            else:  # _ROW / _COL map entry
                _, aod, idx, old = rec
                self._map_unset(tag, aod, idx, old)

    # -- constraint 1 (global occupancy) ----------------------------------------

    def engaged_atoms(self) -> list[tuple[int, Site]]:
        """All engaged AOD atoms and their landing coordinates (full scan)."""
        out: list[tuple[int, Site]] = []
        for aod, atoms in self._aod_atoms.items():
            rmap = self.row_maps[aod]
            cmap = self.col_maps[aod]
            if not rmap or not cmap:
                continue
            for q, loc in atoms:
                r = rmap.get(loc.row)
                c = cmap.get(loc.col)
                if r is not None and c is not None:
                    out.append((q, _snap_site(r, c)))
        return out

    def violates_c1(self) -> bool:
        """True if any interaction point hosts a non-scheduled pair or >2 atoms.

        Authoritative full scan (sees even direct map edits); the router's
        hot path uses the incremental :meth:`is_legal` instead.
        """
        occupancy: dict[Site, list[int]] = {}
        for q, site in self.engaged_atoms():
            occupancy.setdefault(site, []).append(q)
        for site, aod_atoms in occupancy.items():
            atoms = list(aod_atoms)
            slm_q = self._slm_site_to_qubit.get(site)
            if slm_q is not None:
                atoms.append(slm_q)
            if len(atoms) == 1:
                continue
            if len(atoms) > 2:
                return True
            pair = self.scheduled.get(site)
            if pair is None or set(atoms) != set(pair):
                return True
        return False

    def is_legal(self) -> bool:
        """Full legality under the active toggles (C2/C3 hold by construction).

        O(1): reads the incrementally maintained violating-site set.
        """
        if self.toggles.no_unintended_interaction and self._bad_sites:
            return False
        return True
