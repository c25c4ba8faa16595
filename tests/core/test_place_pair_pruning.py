"""Differential tests for place_pair's index-side candidate pruning.

The pruning contract: selection (``_ProbeIndex.pin_run`` /
``window_run`` / ``vec_run``) may only skip candidates the scalar loop
rejects with a *silent* ``continue`` — never one that could reach the C3
equality test (the Fig. 24 ``overlap_blocked`` statistic) or a commit
attempt.  These tests check that contract three ways:

* digest-level: each probe's run against a brute-force scan of the same
  candidate list (``pin_run`` exact, ``window_run`` a sound superset,
  ``vec_run`` bit-identical to the scalar window mask);
* plan-level: engineered scenarios that drive each selection path
  (pinned coordinate, narrow window, gap prune, vectorized) through
  :meth:`StagePlan.place_pair` and compare against the reference
  can_add + add + is_legal + restore loop, including the
  ``overlap_blocked`` flag when the strict path prunes sibling
  candidates;
* property: hypothesis-generated plans and candidate lists where the
  pruned path and the reference loop must agree on every probe, under
  each of the eight constraint-toggle settings.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.constraints import (
    _EPS,
    _RUN_MAX,
    _VEC_MIN,
    CandidateSet,
    ConstraintToggles,
    StagePlan,
    _ProbeIndex,
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
    """The pre-pruning oracle: can_add + add + is_legal + restore."""
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


# ---------------------------------------------------------------------------
# digest-level: probe runs vs brute force over the same candidate list
# ---------------------------------------------------------------------------


def lattice_sites(draw_halves=True):
    vals = [x / 2.0 for x in range(-1, 10)] if draw_halves else list(range(5))
    return st.tuples(st.sampled_from(vals), st.sampled_from(vals))


@st.composite
def candidate_lists(draw, min_size=2, max_size=20):
    sites = draw(
        st.lists(
            lattice_sites(), min_size=min_size, max_size=max_size, unique=True
        )
    )
    return pairs_for(sites)


@given(candidate_lists(), st.sampled_from([x / 2.0 for x in range(-1, 10)]))
@settings(max_examples=200, deadline=None)
def test_pin_run_matches_scalar_reject(pairs, bound):
    """pin_run is the exact complement of the scalar pinned reject."""
    probe = _ProbeIndex(pairs)
    for coord in (0, 1):
        want = sorted(
            i
            for i, (_raw, s) in enumerate(pairs)
            if not abs(bound - s[coord]) >= _EPS
        )
        assert list(probe.pin_run(coord, bound)) == want


@given(
    candidate_lists(),
    st.sampled_from([x / 2.0 for x in range(-2, 11)]),
    st.sampled_from([x / 2.0 for x in range(-2, 11)]),
    st.sampled_from([x / 2.0 for x in range(-2, 11)]),
    st.sampled_from([x / 2.0 for x in range(-2, 11)]),
)
@settings(max_examples=200, deadline=None)
def test_window_run_is_sound_superset(pairs, rpred, rsucc, cpred, csucc):
    """window_run never drops a candidate the scalar window admits.

    The scalar loop's silent C2 reject is
    ``rpred > r + eps or rsucc < r - eps or cpred > c + eps or
    csucc < c - eps``; anything *not* rejected (including the C3-equality
    candidates Fig. 24 counts) must survive selection.
    """
    probe = _ProbeIndex(pairs)
    survivors = {
        i
        for i, (_raw, (r, c)) in enumerate(pairs)
        if not (
            rpred > r + _EPS
            or rsucc < r - _EPS
            or cpred > c + _EPS
            or csucc < c - _EPS
        )
    }
    run = probe.window_run(rpred, rsucc, cpred, csucc)
    if run is None:
        return  # wide: selection declined to prune, trivially sound
    assert survivors <= set(run)
    if len(run):
        assert len(run) <= _RUN_MAX


@given(
    candidate_lists(min_size=2, max_size=24),
    st.sampled_from([x / 2.0 for x in range(-2, 11)]),
    st.sampled_from([x / 2.0 for x in range(-2, 11)]),
    st.sampled_from([x / 2.0 for x in range(-2, 11)]),
    st.sampled_from([x / 2.0 for x in range(-2, 11)]),
)
@settings(max_examples=200, deadline=None)
def test_vec_run_matches_scalar_mask(pairs, rpred, rsucc, cpred, csucc):
    """The numpy batch probe reproduces the scalar compares bit for bit
    (bounds + C2 window — the same IEEE compares in columnar form)."""
    probe = _ProbeIndex(pairs)
    max_r = max_c = 4.5
    run = probe.vec_run(rpred, rsucc, cpred, csucc, max_r, max_c)
    want = [
        i
        for i, (_raw, (r, c)) in enumerate(pairs)
        if (-0.5 <= r <= max_r and -0.5 <= c <= max_c)
        and r + _EPS >= rpred
        and r - _EPS <= rsucc
        and c + _EPS >= cpred
        and c - _EPS <= csucc
    ]
    assert list(run) == want


def test_probe_memo_returns_identical_results():
    """Repeated quantized queries hit the memo and stay identical."""
    pairs = pairs_for([(0.5, 0.5), (1.0, 1.5), (2.5, 0.5), (3.0, 3.0)])
    probe = _ProbeIndex(pairs)
    first = probe.pin_run(0, 0.5)
    assert probe.pin_run(0, 0.5) is first
    w1 = probe.window_run(0.0, 2.0, 0.0, 2.0)
    assert probe.window_run(0.0, 2.0, 0.0, 2.0) == w1
    v1 = probe.vec_run(0.0, 2.0, 0.0, 2.0, 4.5, 4.5)
    assert probe.vec_run(0.0, 2.0, 0.0, 2.0, 4.5, 4.5) is v1


# ---------------------------------------------------------------------------
# plan-level: engineered scenarios through place_pair vs the reference loop
# ---------------------------------------------------------------------------


class TestPrunedScanDifferential:
    """Each selection path, checked against the reference loop on a
    replica plan — results (committed site + overlap_blocked) must match
    even when the strict path prunes sibling candidates."""

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
        # Gate (1, 3): AOD1 col 0 is pinned to 0.5, so selection runs
        # pin_run(col, 0.5).  The col=0.5 candidate survives selection
        # and reaches the C3 equality test on AOD2's col line
        # (idx 1 would duplicate idx 0's 0.5 target): overlap_blocked
        # must be True even though the other candidates are pruned.
        sites = [(1.5, 0.5), (2.5, 1.5), (1.5, 2.5), (3.5, 3.5)]
        assert self._check(plan, ref, 1, 3, sites) == (None, True)

    def test_pinned_coordinate_commits_identically(self):
        plan, ref = self._twin_plans()
        assert self._check(plan, ref, 0, 2, [(0.5, 0.5)]) == ((0.5, 0.5), False)
        # Gate (1, 5): both atoms share column 0 with the committed
        # gate, so both col pins agree at 0.5 and the pinned run
        # contains a committable candidate ((1.5, 0.5): row 1.5 clears
        # both row windows).  The off-pin candidates are pruned; both
        # paths must pick the same site.
        sites = [(0.5, 1.5), (1.5, 0.5), (2.5, 0.5), (3.5, 0.5)]
        got = self._check(plan, ref, 1, 5, sites)
        assert got == ((1.5, 0.5), False)

    def test_window_gap_prunes_whole_scan(self):
        plan, ref = self._twin_plans()
        assert self._check(plan, ref, 0, 2, [(2.0, 2.0)]) == ((2.0, 2.0), False)
        # Gate (1, 3): AOD1 row 1 needs a target > 2.0 (idx 0 sits at
        # 2.0) and AOD1 col 0 is pinned at 2.0; candidates whose rows
        # all sit below the window leave selection nothing to scan.
        sites = [(0.5, 2.0), (1.5, 2.0), (1.0, 2.0)]
        assert self._check(plan, ref, 1, 3, sites) == (None, False)

    def test_vectorized_batch_probe_matches(self):
        plan, ref = self._twin_plans()
        assert self._check(plan, ref, 0, 2, [(1.0, 1.0)]) == ((1.0, 1.0), False)
        # Gate (6, 7) shares no line with the committed gate, so nothing
        # is pinned; both axes carry a wide [1.0, inf) window whose runs
        # exceed _RUN_MAX, window_run declines, and with >= _VEC_MIN
        # candidates the numpy batch probe picks the survivors.  The
        # best survivor (1.5, 1.5) clears the C3 equality at 1.0; the
        # equality candidates before it set overlap_blocked.
        vals = [x / 2.0 for x in range(0, 10)]
        sites = [(r, c) for r in vals[:6] for c in vals[:4]]
        assert len(sites) >= _VEC_MIN
        got = self._check(plan, ref, 6, 7, sites)
        assert got == ((1.5, 1.5), True)

    def test_empty_plan_fast_path_matches(self):
        plan, ref = self._twin_plans()
        sites = [(0.5, 0.5), (1.5, 1.5)]
        assert self._check(plan, ref, 0, 2, sites) == ((0.5, 0.5), False)


# ---------------------------------------------------------------------------
# satellite: both place_pair call forms take the identical pruned path
# ---------------------------------------------------------------------------


class TestCallFormEquivalence:
    """CandidateSet callers (the router) and list-of-pairs callers
    (tests, baselines) must get identical results and identical plan
    state — the list form builds the same extremes + probe digest at
    entry."""

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


# ---------------------------------------------------------------------------
# property: no false prune on hypothesis-generated plans
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
    """The summary never rules out a site the reference probe accepts,
    and the overlap_blocked count survives pruning, on random plans under
    every toggle setting; the plans stay identical probe by probe."""
    locs, steps = data
    for toggles in ALL_TOGGLES:
        plan = make_plan(locs, toggles)
        ref = make_plan(locs, toggles)
        for (a, b), sites in steps:
            got = plan.place_pair(a, b, pairs_for(sites))
            want = reference_place(ref, a, b, sites)
            assert got == want, (toggles, a, b, sites)
            assert plan.row_maps == ref.row_maps, toggles
            assert plan.col_maps == ref.col_maps, toggles
            assert plan.scheduled == ref.scheduled, toggles
            assert plan.busy_qubits == ref.busy_qubits, toggles
