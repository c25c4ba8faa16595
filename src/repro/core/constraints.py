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

A :class:`StagePlan` is filled one gate at a time by
:meth:`StagePlan.place_pair`, which probes a gate's candidate sites
best-first and commits the first one that every enforced constraint
admits; :meth:`StagePlan.reset` empties it for the next stage.  The plan
keeps a sorted mirror of each AOD line map for O(log n) C2/C3 checks and a
site-occupancy index of engaged AOD atoms, which the exact C1 pre-check
reads, so a candidate is committed only once it is known to be legal and
nothing is ever undone.  The from-scratch reference the tests compare the
plan against is ``tests/stage_plan_oracle.py``.
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


def _snap_site(r: float, c: float) -> Site:
    """Snap both coordinates of a site to the comparison resolution.

    The single definition of the float-snapping discipline shared by the
    router's candidate sets and both :meth:`StagePlan.place_pair` commit
    paths, so occupancy keys cannot drift between them.
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
        """Build a set (with its extremes) from ``(raw, snapped)`` pairs."""
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

    __slots__ = ("slm_site_to_qubit", "line_atoms")

    def __init__(self, locations: dict[int, AtomLocation]) -> None:
        self.slm_site_to_qubit: dict[Site, int] = {
            (float(loc.row), float(loc.col)): q
            for q, loc in locations.items()
            if loc.is_slm
        }
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
                by_row.setdefault((loc.array, loc.row), {})[loc.col] = q
                by_col.setdefault((loc.array, loc.col), {})[loc.row] = q


class _SortedLine:
    """Sorted mirror of one AOD line map for O(log n) constraint checks.

    ``idx``/``tgt`` are parallel arrays sorted by line index; ``tsorted``
    holds the same targets sorted by value (for the C3 equality probe).
    While C2 is enforced every commit keeps ``tgt`` weakly increasing, so
    a new entry's C2 window is bounded by its two neighbours in ``idx``.
    """

    __slots__ = ("idx", "tgt", "tsorted")

    def __init__(self) -> None:
        self.idx: list[int] = []
        self.tgt: list[float] = []
        self.tsorted: list[float] = []

    def insert(self, index: int, target: float) -> None:
        p = bisect_left(self.idx, index)
        self.idx.insert(p, index)
        self.tgt.insert(p, target)
        insort(self.tsorted, target)

    def remove(self, index: int, target: float) -> None:
        p = bisect_left(self.idx, index)
        del self.idx[p]
        del self.tgt[p]
        del self.tsorted[bisect_left(self.tsorted, target)]


# line axes
_ROW, _COL = 0, 1


@dataclass
class StagePlan:
    """Mutable plan for one stage: per-AOD row/col maps + scheduled gates.

    ``row_maps[aod]`` maps AOD row index -> target coordinate (site units);
    likewise for columns.  ``scheduled`` maps an interaction point to the
    qubit pair gated there.  A plan starts empty and is filled only by
    :meth:`place_pair`.

    ``index`` may be a precomputed :class:`LocationIndex` for these
    locations; passing one lets the router skip rebuilding the static
    lookup tables for every speculative plan.
    """

    architecture: RAAArchitecture
    locations: dict[int, AtomLocation]
    toggles: ConstraintToggles = field(default_factory=ConstraintToggles)
    row_maps: dict[int, dict[int, float]] = field(init=False, default_factory=dict)
    col_maps: dict[int, dict[int, float]] = field(init=False, default_factory=dict)
    scheduled: dict[Site, tuple[int, int]] = field(init=False, default_factory=dict)
    busy_qubits: set[int] = field(init=False, default_factory=set)
    index: LocationIndex | None = None

    def __post_init__(self) -> None:
        for a in range(1, self.architecture.num_arrays):
            self.row_maps[a] = {}
            self.col_maps[a] = {}
        if self.index is None:
            self.index = LocationIndex(self.locations)
        self._slm_site_to_qubit = self.index.slm_site_to_qubit
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

        Clears every structure in place, so the cached templates' map and
        line references stay valid; the router uses this to reuse one
        scratch plan across stages.
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
        self._occupancy.clear()

    def _disengage(self, axis: int, aod: int, idx: int, target: float) -> None:
        """Take the atoms that line entry ``idx -> target`` engaged out of
        the occupancy index, before :meth:`place_pair` re-sets the entry.

        An entry engages the AOD atom at each of its crosspoints with the
        other axis's committed entries; the walk visits those entries and
        looks up the atom at each crosspoint.
        """
        atoms_on_line = self.index.line_atoms[axis].get((aod, idx))
        if not atoms_on_line:
            return
        other_map = (self.col_maps if axis == _ROW else self.row_maps)[aod]
        snapped = round(target / _EPS) * _EPS
        occupancy = self._occupancy
        for other_idx, other_t in other_map.items():
            q = atoms_on_line.get(other_idx)
            if q is None:
                continue
            other_snapped = round(other_t / _EPS) * _EPS
            if axis == _ROW:
                site = (snapped, other_snapped)
            else:
                site = (other_snapped, snapped)
            atoms = occupancy[site]
            if len(atoms) == 1:
                del occupancy[site]
            else:
                atoms.remove(q)

    def place_pair(
        self,
        qubit_a: int,
        qubit_b: int,
        candidates: CandidateSet,
    ) -> tuple[Site | None, bool]:
        """Router hot path: try ``(raw, snapped)`` candidate sites best-first.

        Returns ``(raw_site, overlap_blocked)`` where ``raw_site`` is the
        first candidate that passed every enforced constraint (committed
        into the plan) or None, and ``overlap_blocked`` is True when C3 is
        enforced and at least one rejected candidate would have been
        feasible with C3 relaxed (the Fig. 24 statistic).  The strict and
        C3-relaxed feasibility are evaluated in one pass, under every
        toggle setting.

        The two atoms must sit in different arrays (every routed gate is
        inter-array): two distinct atoms of one AOD array raise
        ``ValueError``.
        """
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
        if empty_ok and not self.scheduled and candidates:
            # Empty plan (every commit schedules a gate, so no schedule
            # means no line entries either), atoms in different arrays:
            # nothing in the plan can conflict, so the best-ranked *valid*
            # candidate commits immediately (the common case for the first
            # gate of every stage).  Router-built CandidateSets are
            # pre-filtered, so the validity check below only guards direct
            # callers; on any failure we fall through to the probe loop.
            # The only atoms the new entries can engage are the pair
            # itself, so the occupancy update is a single direct write.
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
                for m, line, idx, coord, _atoms, _other, _is_row, _aod in reqs:
                    target = site[coord]
                    m[idx] = target
                    line.insert(idx, target)
                engaged = [qubit_a] if a_aod else []
                if b_aod:
                    engaged.append(qubit_b)
                self._occupancy[_snap_site(site[0], site[1])] = engaged
                self.scheduled[site] = (qubit_a, qubit_b)
                busy.add(qubit_a)
                busy.add(qubit_b)
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
            # Commit: every enforced constraint holds (with C1 enforced the
            # exact pre-check above passed), so nothing is ever rolled
            # back.  Each new line entry engages the atoms at its
            # crosspoints with the other axis's committed entries.  A
            # committed entry is pinned within _EPS, not exactly, so one
            # whose target differs by less than that is re-set: the atoms
            # it engaged leave the occupancy index first.
            for m, line, idx, coord, line_atoms, other_map, is_row, aod in reqs:
                target = site[coord]
                old = m.get(idx)
                if old is not None and old == target:
                    continue
                if old is not None:
                    self._disengage(_ROW if is_row else _COL, aod, idx, old)
                    line.remove(idx, old)
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
                        else:
                            atoms.append(q2)
            scheduled[site] = (qubit_a, qubit_b)
            busy.add(qubit_a)
            busy.add(qubit_b)
            return raw, overlap_blocked
        return None, overlap_blocked
