"""Differential tests for place_pair's probe scan.

The scan contract: :meth:`StagePlan.place_pair` returns what the
reference can_add + add + is_legal + restore loop returns — the committed
site and the Fig. 24 ``overlap_blocked`` flag — and leaves the plan in
the same state, whichever whole-scan shortcut (pinned coordinate, empty
C2 window, window outside the candidate extremes) decides the call.
These tests check that contract two ways:

* plan-level: engineered scenarios that drive each shortcut and the
  scalar loop through :meth:`StagePlan.place_pair`, including the
  ``overlap_blocked`` flag when other candidates are rejected silently;
* property: hypothesis-generated plans and candidate lists where
  place_pair and the reference loop must agree on every probe, under
  each of the eight constraint-toggle settings, down to the occupancy
  index and the set of sites violating C1.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.constraints import (
    CandidateSet,
    ConstraintToggles,
    StagePlan,
    _snap_site,
)
from repro.hardware import AtomLocation, RAAArchitecture


def arch_2aod(side=5):
    return RAAArchitecture.default(side=side, num_aods=2)


def make_plan(locations, toggles=None, side=5):
    return StagePlan(
        architecture=arch_2aod(side),
        locations=locations,
        toggles=toggles or ConstraintToggles(),
    )


#: every constraint-toggle setting (C1, C2, C3 each on or off)
ALL_TOGGLES = [
    ConstraintToggles(*flags)
    for flags in itertools.product((True, False), repeat=3)
]


def pairs_for(sites):
    return [(s, _snap_site(s[0], s[1])) for s in sites]


def reference_place(plan, a, b, sites):
    """The reference probe loop: can_add + add + is_legal + restore."""
    overlap_blocked = False
    relaxed = ConstraintToggles(
        no_unintended_interaction=plan.toggles.no_unintended_interaction,
        preserve_order=plan.toggles.preserve_order,
        no_overlap=False,
    )
    for site in sites:
        if not plan.can_add(a, b, site):
            if plan.toggles.no_overlap:
                saved = plan.toggles
                plan.toggles = relaxed
                if plan.can_add(a, b, site):
                    overlap_blocked = True
                plan.toggles = saved
            continue
        token = plan.snapshot()
        plan.add(a, b, site)
        if plan.is_legal():
            return site, overlap_blocked
        plan.restore(token)
    return None, overlap_blocked


def occupancy_by_site(plan):
    """The plan's occupancy index with each site's atoms sorted: the list
    order follows the engagement walk, and nothing reads it."""
    return {site: sorted(atoms) for site, atoms in plan._occupancy.items()}


def assert_c1_view_matches_full_scan(plan):
    """The plan's incremental C1 view — occupancy index, violating sites,
    ``is_legal`` — agrees with the full ``engaged_atoms``/``violates_c1``
    scan."""
    toggles = plan.toggles
    rebuilt = {}
    for q, site in plan.engaged_atoms():
        rebuilt.setdefault(site, []).append(q)
    assert occupancy_by_site(plan) == {
        site: sorted(atoms) for site, atoms in rebuilt.items()
    }, toggles
    violates = plan.violates_c1()
    assert bool(plan._bad_sites) == violates, toggles
    assert plan.is_legal() == (
        not (toggles.no_unintended_interaction and violates)
    ), toggles


def assert_plans_agree(plan, ref):
    """*plan* and its reference replica *ref* hold the same state after a
    probe — maps, schedule, busy set, occupancy index and C1-violating
    sites — and each plan's incremental C1 view matches the full scan."""
    toggles = plan.toggles
    assert plan.row_maps == ref.row_maps, toggles
    assert plan.col_maps == ref.col_maps, toggles
    assert plan.scheduled == ref.scheduled, toggles
    assert plan.busy_qubits == ref.busy_qubits, toggles
    assert occupancy_by_site(plan) == occupancy_by_site(ref), toggles
    assert plan._bad_sites == ref._bad_sites, toggles
    assert_c1_view_matches_full_scan(plan)
    assert_c1_view_matches_full_scan(ref)


def lattice_sites(draw_halves=True):
    vals = [x / 2.0 for x in range(-1, 10)] if draw_halves else list(range(5))
    return st.tuples(st.sampled_from(vals), st.sampled_from(vals))


# ---------------------------------------------------------------------------
# plan-level: engineered scenarios through place_pair vs the reference loop
# ---------------------------------------------------------------------------


class TestPrunedScanDifferential:
    """Each shortcut and scan path, checked against the reference loop on
    a replica plan — results (committed site + overlap_blocked) must match
    even when the other candidates are rejected silently."""

    def _locations(self):
        # Two AOD atoms per array sharing a column, so committing one
        # gate pins lines the next gate's probe must respect.
        return {
            0: AtomLocation(1, 0, 0),
            1: AtomLocation(1, 1, 0),
            2: AtomLocation(2, 0, 0),
            3: AtomLocation(2, 1, 1),
            4: AtomLocation(0, 4, 4),  # SLM, keeps the maps non-trivial
            5: AtomLocation(2, 1, 0),  # shares AOD2 col 0 with qubit 2
            6: AtomLocation(1, 2, 2),  # off the first gate's lines ...
            7: AtomLocation(2, 2, 2),  # ... on both arrays
        }

    def _twin_plans(self):
        locs = self._locations()
        return make_plan(locs), make_plan(locs)

    def _check(self, plan, ref, a, b, sites):
        got = plan.place_pair(a, b, pairs_for(sites))
        want = reference_place(ref, a, b, sites)
        assert got == want
        return got

    def test_pinned_coordinate_prunes_but_counts_overlap(self):
        plan, ref = self._twin_plans()
        # Gate (0, 2) commits at (0.5, 0.5): pins AOD1 col 0 and AOD2
        # row 0 / col 0 to 0.5.
        first = [(0.5, 0.5)]
        assert self._check(plan, ref, 0, 2, first) == ((0.5, 0.5), False)
        # Gate (1, 3): AOD1 col 0 is pinned to 0.5, so the scan rejects
        # every off-pin candidate silently.  The col=0.5 candidate reaches
        # the C3 equality test on AOD2's col line (idx 1 would duplicate
        # idx 0's 0.5 target): overlap_blocked must be True even though
        # no other candidate gets that far.
        sites = [(1.5, 0.5), (2.5, 1.5), (1.5, 2.5), (3.5, 3.5)]
        assert self._check(plan, ref, 1, 3, sites) == (None, True)

    def test_pinned_coordinate_commits_identically(self):
        plan, ref = self._twin_plans()
        assert self._check(plan, ref, 0, 2, [(0.5, 0.5)]) == ((0.5, 0.5), False)
        # Gate (1, 5): both atoms share column 0 with the committed
        # gate, so both col pins agree at 0.5 and the pinned run
        # admits a committable candidate ((1.5, 0.5): row 1.5 clears
        # both row windows).  The off-pin candidates are rejected; both
        # paths must pick the same site.
        sites = [(0.5, 1.5), (1.5, 0.5), (2.5, 0.5), (3.5, 0.5)]
        got = self._check(plan, ref, 1, 5, sites)
        assert got == ((1.5, 0.5), False)

    def test_window_gap_prunes_whole_scan(self):
        plan, ref = self._twin_plans()
        assert self._check(plan, ref, 0, 2, [(2.0, 2.0)]) == ((2.0, 2.0), False)
        # Gate (1, 3): AOD1 row 1 needs a target > 2.0 (idx 0 sits at
        # 2.0) and AOD1 col 0 is pinned at 2.0; candidates whose rows
        # all sit below the window are rejected before any scan.
        sites = [(0.5, 2.0), (1.5, 2.0), (1.0, 2.0)]
        assert self._check(plan, ref, 1, 3, sites) == (None, False)

    def test_vectorized_batch_probe_matches(self):
        plan, ref = self._twin_plans()
        assert self._check(plan, ref, 0, 2, [(1.0, 1.0)]) == ((1.0, 1.0), False)
        # Gate (6, 7) shares no line with the committed gate, so nothing
        # is pinned; both axes carry a wide [1.0, inf) window over a long
        # candidate list, scanned candidate by candidate.  The best
        # survivor (1.5, 1.5) clears the C3 equality at 1.0; the equality
        # candidates before it set overlap_blocked.
        vals = [x / 2.0 for x in range(0, 10)]
        sites = [(r, c) for r in vals[:6] for c in vals[:4]]
        assert len(sites) >= 12
        got = self._check(plan, ref, 6, 7, sites)
        assert got == ((1.5, 1.5), True)

    def test_empty_plan_fast_path_matches(self):
        plan, ref = self._twin_plans()
        sites = [(0.5, 0.5), (1.5, 1.5)]
        assert self._check(plan, ref, 0, 2, sites) == ((0.5, 0.5), False)


# ---------------------------------------------------------------------------
# both place_pair call forms take the identical path
# ---------------------------------------------------------------------------


class TestCallFormEquivalence:
    """CandidateSet callers (the router) and list-of-pairs callers
    (tests, baselines) must get identical results and identical plan
    state — the list form builds the same extremes at entry."""

    def _scenario(self):
        locs = {
            0: AtomLocation(1, 0, 0),
            1: AtomLocation(1, 1, 0),
            2: AtomLocation(2, 0, 0),
            3: AtomLocation(2, 1, 1),
        }
        vals = [x / 2.0 for x in range(0, 9)]
        probes = [
            (0, 2, [(r, c) for r in vals[:4] for c in vals[:4]]),
            (1, 3, [(r, c) for r in vals[2:8] for c in vals[1:5]]),
        ]
        return locs, probes

    def test_both_forms_identical(self):
        locs, probes = self._scenario()
        plan_set = make_plan(locs)
        plan_list = make_plan(locs)
        for a, b, sites in probes:
            pairs = pairs_for(sites)
            got_set = plan_set.place_pair(a, b, CandidateSet.from_pairs(pairs))
            got_list = plan_list.place_pair(a, b, list(pairs))
            assert got_set == got_list
        assert plan_set.row_maps == plan_list.row_maps
        assert plan_set.col_maps == plan_list.col_maps
        assert plan_set.scheduled == plan_list.scheduled
        assert plan_set.busy_qubits == plan_list.busy_qubits

    def test_single_candidate_list_matches(self):
        locs, _ = self._scenario()
        plan_set = make_plan(locs)
        plan_list = make_plan(locs)
        pairs = pairs_for([(0.5, 0.5)])
        assert plan_set.place_pair(
            0, 2, CandidateSet.from_pairs(pairs)
        ) == plan_list.place_pair(0, 2, list(pairs))


def test_same_array_pair_raises():
    """Two distinct atoms of one AOD array would need two distinct entries
    on a shared line; every routed gate is inter-array, so place_pair
    rejects the pair instead of probing it."""
    locs = {0: AtomLocation(1, 0, 0), 1: AtomLocation(1, 1, 1)}
    for toggles in ALL_TOGGLES:
        plan = make_plan(locs, toggles)
        with pytest.raises(ValueError, match="inter-array"):
            plan.place_pair(0, 1, pairs_for([(0.5, 0.5), (1.5, 1.5)]))
        assert not plan.scheduled and not plan.busy_qubits


def test_empty_plan_commit_on_a_stray_trap_marks_the_site():
    """With C1 relaxed, the empty-plan commit may put an AOD-AOD pair on
    another atom's SLM trap; the site then hosts three atoms and must be
    in the C1-violating set, as the reference add leaves it."""
    locs = {
        0: AtomLocation(1, 0, 0),
        1: AtomLocation(2, 0, 0),
        2: AtomLocation(0, 1, 1),
    }
    toggles = ConstraintToggles(no_unintended_interaction=False)
    plan = make_plan(locs, toggles)
    ref = make_plan(locs, toggles)
    sites = [(1.0, 1.0)]
    assert plan.place_pair(0, 1, pairs_for(sites)) == ((1.0, 1.0), False)
    assert reference_place(ref, 0, 1, sites) == ((1.0, 1.0), False)
    assert plan._bad_sites == {(1.0, 1.0)}
    assert_plans_agree(plan, ref)


# ---------------------------------------------------------------------------
# property: place_pair agrees with the reference on hypothesis-generated plans
# ---------------------------------------------------------------------------


@st.composite
def probe_sequences(draw):
    """A cross-array atom layout plus a sequence of (pair, candidates)
    probes that grow a plan gate by gate."""
    locs = {}
    q = 0
    for arr in range(3):
        for r in range(3):
            for c in range(3):
                locs[q] = AtomLocation(arr, r, c)
                q += 1
    cross = [
        (a, b)
        for a in range(q)
        for b in range(q)
        if a < b and locs[a].array != locs[b].array
    ]
    steps = draw(
        st.lists(
            st.tuples(
                st.sampled_from(cross),
                st.lists(
                    lattice_sites(), min_size=1, max_size=16, unique=True
                ),
            ),
            min_size=1,
            max_size=10,
        )
    )
    return locs, steps


@given(probe_sequences())
@settings(max_examples=60, deadline=None)
def test_pruning_never_drops_reference_accepts(data):
    """The per-axis summaries never rule out a site the reference probe
    accepts, and the overlap_blocked flag matches, on random plans under
    every toggle setting; the plans stay identical probe by probe, down to
    the occupancy index and the C1-violating sites."""
    locs, steps = data
    for toggles in ALL_TOGGLES:
        plan = make_plan(locs, toggles)
        ref = make_plan(locs, toggles)
        for (a, b), sites in steps:
            got = plan.place_pair(a, b, pairs_for(sites))
            want = reference_place(ref, a, b, sites)
            assert got == want, (toggles, a, b, sites)
            assert_plans_agree(plan, ref)
