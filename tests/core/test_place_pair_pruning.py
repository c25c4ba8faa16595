"""Differential tests for place_pair's probe scan.

The scan contract: :meth:`StagePlan.place_pair` returns what the
from-scratch reference probe loop in ``tests/stage_plan_oracle.py``
returns — the committed site and the Fig. 24 ``overlap_blocked`` flag —
and leaves the plan in the same state, whichever whole-scan shortcut
(pinned coordinate, empty C2 window, window outside the candidate
extremes) decides the call.  These tests check that contract two ways:

* plan-level: engineered scenarios that drive each shortcut and the
  scalar loop through :meth:`StagePlan.place_pair`, including the
  ``overlap_blocked`` flag when other candidates are rejected silently;
* property: hypothesis-generated plans and candidate lists where
  place_pair and the oracle must agree on every probe, under each of the
  eight constraint-toggle settings, down to the occupancy index; with C1
  enforced, the oracle's full C1 scan must hold after every probe.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.constraints import ConstraintToggles, StagePlan
from repro.hardware import AtomLocation, RAAArchitecture
from tests.stage_plan_oracle import (
    Rules,
    candidates,
    empty_stage,
    occupancy,
    reference_place,
    stage_of,
    violates_c1,
)


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


def assert_matches_oracle(plan, rules, stage):
    """*plan* holds the oracle's *stage* after a probe — maps, schedule
    and busy set — its occupancy index matches the full engaged-atom scan
    (each site's atoms sorted: the list order follows the engagement walk,
    and nothing reads it), and with C1 enforced the full C1 scan holds."""
    toggles = rules.toggles
    assert plan.row_maps == stage.row_maps, toggles
    assert plan.col_maps == stage.col_maps, toggles
    assert plan.scheduled == stage.scheduled, toggles
    assert plan.busy_qubits == stage.busy, toggles
    assert {
        site: sorted(atoms) for site, atoms in plan._occupancy.items()
    } == occupancy(rules.locations, stage_of(plan)), toggles
    if toggles.no_unintended_interaction:
        assert not violates_c1(rules.locations, stage_of(plan)), toggles


class Twin:
    """A plan and the oracle's stage, fed the same probes."""

    def __init__(self, locations, toggles=None, side=5):
        self.plan = make_plan(locations, toggles, side)
        self.rules = Rules(self.plan.architecture, locations, self.plan.toggles)
        self.stage = empty_stage(self.plan.architecture)

    def probe(self, a, b, sites):
        """Offer the pair *sites* best-first through place_pair and the
        oracle; both must agree on the result and the stage after."""
        got = self.plan.place_pair(a, b, candidates(sites))
        want, self.stage = reference_place(self.rules, self.stage, a, b, sites)
        assert got == want, (self.rules.toggles, a, b, sites)
        assert_matches_oracle(self.plan, self.rules, self.stage)
        return got


def lattice_sites(draw_halves=True):
    vals = [x / 2.0 for x in range(-1, 10)] if draw_halves else list(range(5))
    return st.tuples(st.sampled_from(vals), st.sampled_from(vals))


# ---------------------------------------------------------------------------
# plan-level: engineered scenarios through place_pair vs the oracle
# ---------------------------------------------------------------------------


class TestPrunedScanDifferential:
    """Each shortcut and scan path, checked against the oracle's probe
    loop — results (committed site + overlap_blocked) must match even
    when the other candidates are rejected silently."""

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

    def _twin(self):
        return Twin(self._locations())

    def test_pinned_coordinate_prunes_but_counts_overlap(self):
        twin = self._twin()
        # Gate (0, 2) commits at (0.5, 0.5): pins AOD1 col 0 and AOD2
        # row 0 / col 0 to 0.5.
        first = [(0.5, 0.5)]
        assert twin.probe(0, 2, first) == ((0.5, 0.5), False)
        # Gate (1, 3): AOD1 col 0 is pinned to 0.5, so the scan rejects
        # every off-pin candidate silently.  The col=0.5 candidate reaches
        # the C3 equality test on AOD2's col line (idx 1 would duplicate
        # idx 0's 0.5 target): overlap_blocked must be True even though
        # no other candidate gets that far.
        sites = [(1.5, 0.5), (2.5, 1.5), (1.5, 2.5), (3.5, 3.5)]
        assert twin.probe(1, 3, sites) == (None, True)

    def test_pinned_coordinate_commits_identically(self):
        twin = self._twin()
        assert twin.probe(0, 2, [(0.5, 0.5)]) == ((0.5, 0.5), False)
        # Gate (1, 5): both atoms share column 0 with the committed
        # gate, so both col pins agree at 0.5 and the pinned run
        # admits a committable candidate ((1.5, 0.5): row 1.5 clears
        # both row windows).  The off-pin candidates are rejected; both
        # paths must pick the same site.
        sites = [(0.5, 1.5), (1.5, 0.5), (2.5, 0.5), (3.5, 0.5)]
        got = twin.probe(1, 5, sites)
        assert got == ((1.5, 0.5), False)

    def test_window_gap_prunes_whole_scan(self):
        twin = self._twin()
        assert twin.probe(0, 2, [(2.0, 2.0)]) == ((2.0, 2.0), False)
        # Gate (1, 3): AOD1 row 1 needs a target > 2.0 (idx 0 sits at
        # 2.0) and AOD1 col 0 is pinned at 2.0; candidates whose rows
        # all sit below the window are rejected before any scan.
        sites = [(0.5, 2.0), (1.5, 2.0), (1.0, 2.0)]
        assert twin.probe(1, 3, sites) == (None, False)

    def test_vectorized_batch_probe_matches(self):
        twin = self._twin()
        assert twin.probe(0, 2, [(1.0, 1.0)]) == ((1.0, 1.0), False)
        # Gate (6, 7) shares no line with the committed gate, so nothing
        # is pinned; both axes carry a wide [1.0, inf) window over a long
        # candidate list, scanned candidate by candidate.  The best
        # survivor (1.5, 1.5) clears the C3 equality at 1.0; the equality
        # candidates before it set overlap_blocked.
        vals = [x / 2.0 for x in range(0, 10)]
        sites = [(r, c) for r in vals[:6] for c in vals[:4]]
        assert len(sites) >= 12
        got = twin.probe(6, 7, sites)
        assert got == ((1.5, 1.5), True)

    def test_empty_plan_fast_path_matches(self):
        twin = self._twin()
        sites = [(0.5, 0.5), (1.5, 1.5)]
        assert twin.probe(0, 2, sites) == ((0.5, 0.5), False)


def test_same_array_pair_raises():
    """Two distinct atoms of one AOD array would need two distinct entries
    on a shared line; every routed gate is inter-array, so place_pair
    rejects the pair instead of probing it."""
    locs = {0: AtomLocation(1, 0, 0), 1: AtomLocation(1, 1, 1)}
    for toggles in ALL_TOGGLES:
        plan = make_plan(locs, toggles)
        with pytest.raises(ValueError, match="inter-array"):
            plan.place_pair(0, 1, candidates([(0.5, 0.5), (1.5, 1.5)]))
        assert not plan.scheduled and not plan.busy_qubits


def test_empty_plan_commit_on_a_stray_trap_marks_the_site():
    """With C1 relaxed, the empty-plan commit may put an AOD-AOD pair on
    another atom's SLM trap; the site then hosts three atoms, which the
    full C1 scan reports, and the occupancy index holds both movers."""
    locs = {
        0: AtomLocation(1, 0, 0),
        1: AtomLocation(2, 0, 0),
        2: AtomLocation(0, 1, 1),
    }
    twin = Twin(locs, ConstraintToggles(no_unintended_interaction=False))
    assert twin.probe(0, 1, [(1.0, 1.0)]) == ((1.0, 1.0), False)
    assert twin.plan._occupancy == {(1.0, 1.0): [0, 1]}
    assert violates_c1(locs, stage_of(twin.plan))


# ---------------------------------------------------------------------------
# property: place_pair agrees with the oracle on hypothesis-generated plans
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
    """The per-axis summaries never rule out a site the oracle's probe
    accepts, and the overlap_blocked flag matches, on random plans under
    every toggle setting; the plan holds the oracle's stage probe by
    probe, its occupancy index matches the full scan, and with C1
    enforced the full C1 scan holds after every probe."""
    locs, steps = data
    for toggles in ALL_TOGGLES:
        twin = Twin(locs, toggles)
        for (a, b), sites in steps:
            twin.probe(a, b, sites)
