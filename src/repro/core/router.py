"""High-parallelism AOD router (Sec. III-C, Fig. 8).

Iterates over the circuit DAG:

1. flush every frontier 1Q gate via Raman pulses;
2. greedily grow a maximal set of frontier 2Q gates that satisfies the three
   hardware constraints, assigning each an interaction coordinate;
3. emit the stage: AOD row/col moves (through the movement tracker, which
   accumulates heating), one global Rydberg pulse executing the whole set,
   and any cooling swap the heating triggered.

Gates rejected by a constraint stay in the DAG for a later stage.  The
router records which rejections were caused by constraint 3 (overlap) — the
statistic Fig. 24 plots.

Site selection: an AOD-SLM gate's site is fixed (the SLM atom's trap).  An
AOD-AOD gate may meet anywhere on the half-integer lattice; the router
offers, best-first, half-offset points near the two atoms' homes (these are
always >= 3 Rydberg radii from every SLM trap) and SLM-free integer sites.
"""

from __future__ import annotations

import time
from bisect import bisect_left, insort
from dataclasses import dataclass, field

import numpy as np

from ..circuits.circuit import QuantumCircuit
from ..circuits.dag import DAGCircuit
from ..circuits.gates import Gate
from ..hardware.raa import AtomLocation, RAAArchitecture
from .constraints import (
    CandidateSet,
    ConstraintToggles,
    LocationIndex,
    Site,
    StagePlan,
    _snap_site,
)
from .movement import MovementTracker
from .program import ProgramStore, emission_store


class RoutingError(RuntimeError):
    """Raised when the router cannot make progress (a gate is unschedulable
    even alone, which cannot happen for inter-array circuits)."""


@dataclass
class RouterConfig:
    """Router knobs.

    ``serial`` schedules one 2Q gate per stage (Fig. 21 ablation baseline).
    ``max_candidate_sites`` bounds the AOD-AOD meeting-point search.
    ``cooling_threshold`` overrides the Table I default when set.
    """

    toggles: ConstraintToggles = field(default_factory=ConstraintToggles)
    serial: bool = False
    max_candidate_sites: int = 24
    cooling_threshold: float | None = None
    #: number of frontier orderings tried per stage; >1 keeps the largest
    #: legal gate set (used by the solver-proxy baselines).
    ordering_trials: int = 1
    seed: int = 11


#: ring offsets of the half-lattice diamond, shared across all calls
_DIAMOND_OFFSETS: dict[float, tuple[tuple[float, float], ...]] = {}


def _diamond_offsets(radius: float) -> tuple[tuple[float, float], ...]:
    offsets = _DIAMOND_OFFSETS.get(radius)
    if offsets is None:
        steps = int(radius * 2)
        if steps == 0:
            offsets = ((0.0, 0.0),)
        else:
            offsets = tuple(
                (-radius + i, dc_sign * (radius - abs(-radius + i)))
                for i in range(steps + 1)
                for dc_sign in (-1.0, 1.0)
            )
        _DIAMOND_OFFSETS[radius] = offsets
    return offsets


def candidate_sites(
    qubit_a: int,
    qubit_b: int,
    locations: dict[int, AtomLocation],
    architecture: RAAArchitecture,
    slm_sites: set[tuple[float, float]],
    limit: int,
    walk_cache: dict[Site, tuple[Site, ...]] | None = None,
) -> list[Site]:
    """Candidate interaction coordinates for a gate, best-first.

    *walk_cache*, when given, memoizes the diamond-walk collection phase
    per rounded base point (the walk depends only on the base, the fixed
    bounds/SLM sites, and *limit*); the exact-anchor distance sort still
    runs per call, so the returned order is unchanged.
    """
    la, lb = locations[qubit_a], locations[qubit_b]
    if la.is_slm:
        return [(float(la.row), float(la.col))]
    if lb.is_slm:
        return [(float(lb.row), float(lb.col))]
    # AOD-AOD: half-offset points near the two homes, then free integer sites.
    max_r = architecture.site_rows - 0.5
    max_c = architecture.site_cols - 0.5
    anchor_r = (la.row + lb.row) / 2.0
    anchor_c = (la.col + lb.col) / 2.0

    # Expanding half-lattice diamond around the anchor.
    base_r = round(anchor_r * 2) / 2.0
    base_c = round(anchor_c * 2) / 2.0
    cached = walk_cache.get((base_r, base_c)) if walk_cache is not None else None
    if cached is not None:
        points: list[Site] = list(cached)
    else:
        points = []
        seen: set[Site] = set()
        seen_add = seen.add
        points_append = points.append
        radius = 0.0
        max_radius = max(max_r, max_c) + 1.0
        while len(points) < limit and radius <= max_radius:
            offsets = _diamond_offsets(radius)
            for dr, dc in offsets:
                for r, c in (
                    (base_r + 0.5 + dr, base_c + 0.5 + dc),
                    (base_r + dr, base_c + dc),
                ):
                    if not (-0.5 <= r <= max_r and -0.5 <= c <= max_c):
                        continue
                    site = (r, c)
                    if site in seen or site in slm_sites:
                        continue
                    seen_add(site)
                    points_append(site)
            radius += 0.5
        if walk_cache is not None:
            walk_cache[(base_r, base_c)] = tuple(points)
    keyed = [
        ((p[0] - anchor_r) ** 2 + (p[1] - anchor_c) ** 2, p) for p in points
    ]
    keyed.sort()
    return [p for _d, p in keyed[:limit]]


class HighParallelismRouter:
    """Schedules a transpiled multipartite circuit onto RAA stages."""

    def __init__(
        self,
        architecture: RAAArchitecture,
        locations: dict[int, AtomLocation],
        config: RouterConfig | None = None,
    ) -> None:
        self.architecture = architecture
        self.locations = locations
        self.config = config or RouterConfig()
        self._slm_sites = {
            (float(loc.row), float(loc.col))
            for loc in locations.values()
            if loc.is_slm
        }
        # Location-epoch artifacts: ``locations`` is fixed for the lifetime
        # of the router, so the candidate interaction sites per qubit pair,
        # the static location index, and the scratch plan persist across
        # route() calls as well as across stages and trials.
        self._site_cache: dict[tuple, CandidateSet] = {}
        #: diamond-walk collection memo, keyed by rounded base point (the
        #: walk is a pure function of the base given the fixed bounds, SLM
        #: sites, and candidate limit — all router-lifetime constants).
        self._walk_cache: dict[Site, tuple[Site, ...]] = {}
        self._plan_index = LocationIndex(locations)
        self._scratch_plan: StagePlan | None = None

    def _candidate_sites(self, qubit_a: int, qubit_b: int) -> CandidateSet:
        """Cached candidate sites for one pair (locations are fixed for the
        duration of a route() call).

        The raw coordinate is what ends up on the emitted
        :class:`RydbergGate`; the snapped one is what the constraint
        engine compares against, pre-computed once instead of per probe,
        along with the coordinate extremes the engine's whole-scan
        shortcuts test against.
        """
        key = (qubit_a, qubit_b)
        sites = self._site_cache.get(key)
        if sites is None:
            la = self.locations[qubit_a]
            lb = self.locations[qubit_b]
            # Pairs that share their candidates share one (read-only) set:
            # an AOD-SLM pair's only candidate is the SLM atom's trap, and
            # AOD-AOD candidates depend only on the anchor midpoint.
            if la.is_slm or lb.is_slm:
                shared_key = ("slm", qubit_a if la.is_slm else qubit_b)
            else:
                shared_key = ("anchor", la.row + lb.row, la.col + lb.col)
            sites = self._site_cache.get(shared_key)
            if sites is None:
                pairs = [
                    (site, _snap_site(site[0], site[1]))
                    for site in candidate_sites(
                        qubit_a,
                        qubit_b,
                        self.locations,
                        self.architecture,
                        self._slm_sites,
                        self.config.max_candidate_sites,
                        self._walk_cache,
                    )
                ]
                sites = self._site_cache[shared_key] = CandidateSet.from_pairs(pairs)
            self._site_cache[key] = sites
        return sites

    def _select_gates(
        self, ordering: list[tuple[int, Gate]]
    ) -> tuple[StagePlan, list[tuple[int, Gate, Site]], int]:
        """Greedily build one stage's legal parallel gate set from *ordering*."""
        if self.config.ordering_trials <= 1:
            # Single-trial stages reuse one scratch plan via the wholesale
            # reset() — cheaper than rebuilding every per-stage structure.
            plan = self._scratch_plan
            if plan is None:
                plan = self._scratch_plan = StagePlan(
                    architecture=self.architecture,
                    locations=self.locations,
                    toggles=self.config.toggles,
                    index=self._plan_index,
                )
            else:
                plan.reset()
        else:
            plan = StagePlan(
                architecture=self.architecture,
                locations=self.locations,
                toggles=self.config.toggles,
                index=self._plan_index,
            )
        chosen: list[tuple[int, Gate, Site]] = []
        overlap_rejections = 0
        serial = self.config.serial
        place_pair = plan.place_pair
        site_cache = self._site_cache
        busy = plan.busy_qubits
        for idx, g in ordering:
            if serial and chosen:
                break
            a, b = g.qubits
            if a in busy or b in busy:
                # place_pair would return (None, False) without probing;
                # skipping the call keeps the result and the Fig. 24
                # statistic identical while saving the dispatch.
                continue
            candidates = site_cache.get((a, b))
            if candidates is None:
                candidates = self._candidate_sites(a, b)
            site, overlap_blocked = place_pair(a, b, candidates)
            if site is not None:
                chosen.append((idx, g, site))
            elif overlap_blocked:
                overlap_rejections += 1
        return plan, chosen, overlap_rejections

    def route(self, circuit: QuantumCircuit) -> ProgramStore:
        """Route *circuit* (CZ/1Q basis, all 2Q gates inter-array).

        Emission is columnar: every stage record — Raman pulses, AOD line
        moves, Rydberg gates, cooling events, per-atom displacements — is
        appended as scalars to the returned :class:`ProgramStore`'s flat
        columns, and a stage closes with one offset-table append.  No
        ``RamanPulse``/``Move``/``RydbergGate`` objects exist on this path;
        the store's lazy stage views build them on demand for consumers.

        ``emit_seconds`` on the result accumulates the wall-clock of the
        per-stage *record-keeping* blocks — Raman-pulse emission,
        movement/heating emission, gate emission, cooling records, and the
        stage close — excluding the constraint search and the DAG
        bookkeeping (``execute``), which are scheduling work, not
        representation work.  It travels in the v2/v3 program headers;
        ``perfbench/run.py --trace 1`` times the router end to end.
        """
        perf = time.perf_counter
        t0 = perf()
        dag = DAGCircuit(circuit)
        tracker = MovementTracker(
            architecture=self.architecture,
            locations=self.locations,
            params=self.architecture.params,
            cooling_threshold=self.config.cooling_threshold,
        )
        # spills closed stages to disk when REPRO_PROGRAM_SPILL is set, so
        # emission RSS stops scaling with circuit size
        store = emission_store(circuit.num_qubits)
        overlap_rejections = 0
        gates = dag.gates
        is_2q = dag.two_qubit
        is_1q = dag.one_qubit
        trials = max(1, self.config.ordering_trials)
        emit = 0.0

        raman_qubit_append = store.raman_qubit.append
        raman_name_append = store.raman_name.append
        raman_params_append = store.raman_params.append
        gate_a_append = store.gate_a.append
        gate_b_append = store.gate_b.append
        site_r_append = store.gate_site_r.append
        site_c_append = store.gate_site_c.append
        n_vib_append = store.gate_n_vib.append
        gate_name_append = store.gate_name.append
        gate_params_append = store.gate_params.append
        cool_aod_append = store.cool_aod.append
        cool_atoms_append = store.cool_atoms.append
        end_stage = store.end_stage
        emit_stage = tracker.bind_store(store)
        n_vib = tracker.n_vib
        array_of = tracker._array_of
        maybe_cool = tracker.maybe_cool
        dag_execute = dag.execute

        # Incremental frontiers: the initial front seeds a sorted 1Q
        # worklist and a sorted 2Q front list; afterwards both are fed by
        # the newly-unlocked indices ``dag.execute`` returns, never by a
        # per-sweep ``front_indices()`` rescan.  Each 1Q sweep executes
        # exactly the gates that were ready when it started (gates unlocked
        # mid-sweep wait for the next sweep, like a rescan snapshot), and
        # every worklist is kept sorted by gate index, so emitted-pulse
        # order matches the rescan reference loop index for index (the
        # worklist differential tests pin it).  Gates that are neither 1Q
        # nor 2Q never enter a worklist, so a stuck front still raises the
        # RoutingError below.
        ready_1q: list[int] = []
        #: sorted ``(idx, gate)`` 2Q frontier, maintained incrementally —
        #: index uniqueness means tuple comparisons never reach the gate
        front_2q: list[tuple[int, Gate]] = []
        for idx in dag.front_indices():
            if is_1q[idx]:
                ready_1q.append(idx)
            elif is_2q[idx]:
                front_2q.append((idx, gates[idx]))

        while not dag.done:
            # Step 1: flush frontier 1Q gates (Fig. 8 "Execute 1Q Gates").
            # Batching the pulse records before the DAG pops keeps the
            # historical pulse order.
            while ready_1q:
                todo = ready_1q
                t_emit = perf()
                for idx in todo:
                    g = gates[idx]
                    raman_qubit_append(g.qubits[0])
                    raman_name_append(g.name)
                    raman_params_append(g.params)
                emit += perf() - t_emit
                ready_1q = []
                next_1q_append = ready_1q.append
                for idx in todo:
                    for succ in dag_execute(idx):
                        if is_1q[succ]:
                            next_1q_append(succ)
                        elif is_2q[succ]:
                            insort(front_2q, (succ, gates[succ]))
                ready_1q.sort()

            if not front_2q:
                if store.open_raman_count:
                    store.end_stage()
                if dag.done:
                    break
                raise RoutingError("front layer stuck without 2Q gates")

            best: tuple[StagePlan, list[tuple[int, Gate, Site]], int] | None = None
            rng = (
                np.random.default_rng(self.config.seed + store.num_stages)
                if trials > 1
                else None
            )
            for trial in range(trials):
                # _select_gates only iterates, and the frontier lists are
                # never mutated while a trial runs, so the single-trial
                # stage skips the per-sweep copy.
                ordering = front_2q if trials == 1 else list(front_2q)
                if trial > 0:
                    rng.shuffle(ordering)
                plan, chosen, rejections = self._select_gates(ordering)
                if best is None or len(chosen) > len(best[1]):
                    best = (plan, chosen, rejections)
                if len(chosen) == len(front_2q):
                    break
            plan, chosen, stage_overlap_rejections = best
            overlap_rejections += stage_overlap_rejections

            if not chosen:
                raise RoutingError(
                    "router stalled: no frontier gate is schedulable even alone"
                )

            t_emit = perf()
            emit_stage(plan.row_maps, plan.col_maps)
            for _idx, g, site in chosen:
                qubits = g.qubits
                qa = qubits[0]
                qb = qubits[1]
                gate_a_append(qa)
                gate_b_append(qb)
                site_r_append(site[0])
                site_c_append(site[1])
                # Sec. IV, Eq. 2: AOD-touching endpoints contribute, in
                # (a, b) order
                n_vib_append(
                    (n_vib[qa] if array_of[qa] else 0.0)
                    + (n_vib[qb] if array_of[qb] else 0.0)
                )
                gate_name_append(g.name)
                gate_params_append(g.params)
            for ev in maybe_cool():
                cool_aod_append(ev.aod)
                cool_atoms_append(ev.num_atoms)
            end_stage()
            emit += perf() - t_emit
            for idx, _g, _site in chosen:
                # (idx,) sorts immediately before (idx, gate)
                del front_2q[bisect_left(front_2q, (idx,))]
                for succ in dag_execute(idx):
                    if is_1q[succ]:
                        ready_1q.append(succ)
                    elif is_2q[succ]:
                        insort(front_2q, (succ, gates[succ]))
            ready_1q.sort()

        store.qubit_locations = dict(self.locations)
        # n_vib is slot-indexed; key the final snapshot like the historical
        # dict (locations iteration order)
        store.n_vib_final = {q: n_vib[q] for q in self.locations}
        store.atom_loss_log = list(tracker.loss_samples)
        store.overlap_rejections = overlap_rejections
        store.emit_seconds = emit
        store.compile_seconds = perf() - t0
        return store
