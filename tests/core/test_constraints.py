"""Tests for the three hardware constraints, including the paper's
Fig. 9-11 violation scenarios.

Every scenario runs through :meth:`StagePlan.place_pair` and the
from-scratch oracle in ``tests/stage_plan_oracle.py`` side by side
(:class:`Twin`), so each expected outcome is checked on both."""

import itertools

import numpy as np
import pytest

from repro.core.constraints import ConstraintToggles, parking_offset
from repro.core.router import candidate_sites
from repro.hardware import AtomLocation
from tests.core.test_place_pair_pruning import ALL_TOGGLES, Twin, arch_2aod
from tests.stage_plan_oracle import empty_stage, stage_of, violates_c1


def twin(locations, toggles=None):
    return Twin(locations, toggles, side=4)


class TestParkingOffsets:
    def test_distinct_per_aod(self):
        offs = [parking_offset(a) for a in range(1, 8)]
        assert len(set(offs)) == 7

    def test_never_on_lattice(self):
        for a in range(1, 8):
            frac = parking_offset(a) % 1.0
            assert abs(frac) > 1e-6 and abs(frac - 0.5) > 1e-6


class TestBasicScheduling:
    def test_single_aod_slm_gate(self):
        locs = {0: AtomLocation(0, 1, 1), 1: AtomLocation(1, 0, 0)}
        t = twin(locs)
        assert t.probe(0, 1, [(1.0, 1.0)]) == ((1.0, 1.0), False)
        assert t.plan.row_maps[1] == {0: 1.0}
        assert t.plan.col_maps[1] == {0: 1.0}

    def test_slm_qubit_cannot_move(self):
        locs = {0: AtomLocation(0, 1, 1), 1: AtomLocation(1, 0, 0)}
        t = twin(locs)
        # not qubit 0's site
        assert t.probe(0, 1, [(2.0, 2.0)]) == (None, False)

    def test_busy_qubit_rejected(self):
        locs = {
            0: AtomLocation(0, 1, 1),
            1: AtomLocation(1, 0, 0),
            2: AtomLocation(2, 0, 0),
        }
        t = twin(locs)
        t.probe(0, 1, [(1.0, 1.0)])
        assert t.probe(0, 2, [(1.0, 1.0)]) == (None, False)

    def test_site_reuse_rejected(self):
        locs = {
            0: AtomLocation(0, 1, 1),
            1: AtomLocation(1, 0, 0),
            2: AtomLocation(1, 2, 2),
            3: AtomLocation(2, 0, 0),
        }
        for toggles in ALL_TOGGLES:
            t = twin(locs, toggles)
            t.probe(0, 1, [(1.0, 1.0)])
            assert t.probe(2, 3, [(1.0, 1.0)])[0] is None, toggles

    def test_out_of_bounds_rejected(self):
        locs = {0: AtomLocation(1, 0, 0), 1: AtomLocation(2, 0, 0)}
        for toggles in ALL_TOGGLES:
            t = twin(locs, toggles)
            assert t.probe(0, 1, [(10.0, 0.0)]) == (None, False), toggles

    def test_reset_empties_the_plan(self):
        locs = {
            0: AtomLocation(0, 1, 1),
            1: AtomLocation(1, 0, 0),
            2: AtomLocation(2, 1, 1),
            3: AtomLocation(2, 2, 2),
        }
        t = twin(locs)
        t.probe(0, 1, [(1.0, 1.0)])
        t.plan.reset()
        assert not t.plan.scheduled and not t.plan.busy_qubits
        assert not any(t.plan.row_maps.values())
        assert not any(t.plan.col_maps.values())
        assert not t.plan._occupancy
        # the emptied plan fills like a fresh one
        t.stage = empty_stage(t.plan.architecture)
        assert t.probe(1, 2, [(0.5, 0.5)]) == ((0.5, 0.5), False)
        assert t.probe(0, 3, [(1.0, 1.0)]) == ((1.0, 1.0), False)


class TestConstraint1:
    """Fig. 9: all pairs within Rydberg range must be intended gates."""

    def _fig9(self):
        return {
            0: AtomLocation(0, 0, 0),  # SLM
            1: AtomLocation(0, 1, 1),  # SLM
            2: AtomLocation(0, 1, 0),  # SLM (victim site)
            3: AtomLocation(1, 0, 0),  # AOD gate atom
            4: AtomLocation(1, 1, 1),  # AOD gate atom
            5: AtomLocation(1, 1, 0),  # AOD atom engaged incidentally
        }

    def test_unintended_slm_partner_rejected(self):
        # AOD atoms at (0,0) and (0,1) in the same row; SLM qubits at
        # (0,0) and (0,1).  Gating q2-(0,0) and also mapping col 1 makes
        # atom q3 land on SLM qubit q1: fine when that pair is the one
        # scheduled there (paper Fig. 9).
        locs = {
            0: AtomLocation(0, 0, 0),
            1: AtomLocation(0, 0, 1),
            2: AtomLocation(1, 0, 0),
            3: AtomLocation(1, 0, 1),
            4: AtomLocation(0, 2, 2),
        }
        t = twin(locs)
        t.probe(2, 0, [(0.0, 0.0)])
        # both pairs intended -> fine
        assert t.probe(3, 1, [(0.0, 1.0)]) == ((0.0, 1.0), False)

    def test_incidental_engagement_collision(self):
        # Two gates whose row/col maps accidentally land a third AOD atom
        # on an occupied SLM site.
        t = twin(self._fig9())
        t.probe(3, 0, [(0.0, 0.0)])  # maps row0->0, col0->0
        # row1->1, col1->1 would land atom 5 (row1, col0) at (1, 0),
        # SLM qubit 2's site
        assert t.probe(4, 1, [(1.0, 1.0)]) == (None, False)
        assert len(t.plan.scheduled) == 1

    def test_relaxed_c1_accepts(self):
        locs = self._fig9()
        t = twin(locs, ConstraintToggles(no_unintended_interaction=False))
        t.probe(3, 0, [(0.0, 0.0)])
        assert t.probe(4, 1, [(1.0, 1.0)]) == ((1.0, 1.0), False)  # allowed
        assert violates_c1(locs, stage_of(t.plan))  # but still *detected*

    def test_three_atoms_on_site_rejected(self):
        locs = {
            0: AtomLocation(0, 0, 0),  # SLM
            1: AtomLocation(1, 0, 0),  # AOD1
            2: AtomLocation(2, 0, 0),  # AOD2
        }
        # the two AOD atoms cannot meet on SLM qubit 0's trap
        assert twin(locs).probe(1, 2, [(0.0, 0.0)]) == (None, False)
        relaxed = twin(locs, ConstraintToggles(no_unintended_interaction=False))
        assert relaxed.probe(1, 2, [(0.0, 0.0)]) == ((0.0, 0.0), False)
        assert violates_c1(locs, stage_of(relaxed.plan))


class TestConstraint2:
    """Fig. 10: row/column order must be preserved."""

    def _locs(self):
        return {
            0: AtomLocation(0, 0, 0),
            1: AtomLocation(0, 1, 1),
            2: AtomLocation(1, 0, 0),
            3: AtomLocation(1, 1, 1),
        }

    def test_row_order_violation_rejected(self):
        # AOD rows 0 and 1 must keep row0 above row1
        t = twin(self._locs())
        t.probe(2, 1, [(1.0, 1.0)])  # row0 -> 1
        # row1 would need to go to 0 < 1: order swap, illegal
        assert t.probe(3, 0, [(0.0, 0.0)]) == (None, False)

    def test_col_order_violation_rejected(self):
        locs = {
            0: AtomLocation(0, 0, 1),
            1: AtomLocation(0, 1, 0),
            2: AtomLocation(1, 0, 0),
            3: AtomLocation(1, 1, 1),
        }
        t = twin(locs)
        t.probe(2, 0, [(0.0, 1.0)])  # row0 -> 0, col0 -> 1
        # row1 -> 1 keeps the row order; col1 -> 0 swaps the columns
        assert t.probe(3, 1, [(1.0, 0.0)]) == (None, False)
        relaxed = twin(locs, ConstraintToggles(preserve_order=False))
        relaxed.probe(2, 0, [(0.0, 1.0)])
        assert relaxed.probe(3, 1, [(1.0, 0.0)]) == ((1.0, 0.0), False)

    def test_order_preserving_parallel_gates_allowed(self):
        locs = {
            0: AtomLocation(0, 0, 0),
            1: AtomLocation(0, 2, 2),
            2: AtomLocation(1, 0, 0),
            3: AtomLocation(1, 1, 1),
        }
        t = twin(locs)
        t.probe(2, 0, [(0.0, 0.0)])
        # row1->2 > row0->0: fine
        assert t.probe(3, 1, [(2.0, 2.0)]) == ((2.0, 2.0), False)

    def test_relaxed_c2_allows_swap(self):
        t = twin(self._locs(), ConstraintToggles(preserve_order=False))
        t.probe(2, 1, [(1.0, 1.0)])
        assert t.probe(3, 0, [(0.0, 0.0)]) == ((0.0, 0.0), False)


class TestConstraint3:
    """Fig. 11: two rows/columns cannot overlap."""

    def _locs(self):
        # two gates demanding AOD rows 0 and 1 at the same site row
        return {
            0: AtomLocation(0, 2, 0),
            1: AtomLocation(0, 2, 3),
            2: AtomLocation(1, 0, 0),
            3: AtomLocation(1, 1, 3),
        }

    def test_row_overlap_rejected(self):
        t = twin(self._locs())
        t.probe(2, 0, [(2.0, 0.0)])  # row0 -> 2
        # row1 -> 2 overlaps: feasible with C3 relaxed (Fig. 24 statistic)
        assert t.probe(3, 1, [(2.0, 3.0)]) == (None, True)

    def test_relaxed_c3_allows_overlap(self):
        t = twin(self._locs(), ConstraintToggles(no_overlap=False))
        t.probe(2, 0, [(2.0, 0.0)])
        assert t.probe(3, 1, [(2.0, 3.0)]) == ((2.0, 3.0), False)

    def test_same_line_two_targets_impossible_even_relaxed(self):
        """One physical line cannot be in two places regardless of toggles."""
        locs = {
            0: AtomLocation(0, 0, 0),
            1: AtomLocation(0, 3, 3),
            2: AtomLocation(1, 0, 0),
            3: AtomLocation(1, 0, 3),  # same AOD row as qubit 2
        }
        for toggles in ALL_TOGGLES:
            t = twin(locs, toggles)
            t.probe(2, 0, [(0.0, 0.0)])  # row0 -> 0
            # row0 -> 3: contradiction
            assert t.probe(3, 1, [(3.0, 3.0)]) == (None, False), toggles


class TestAodAodGates:
    def test_meeting_at_half_offset(self):
        locs = {
            0: AtomLocation(1, 0, 0),
            1: AtomLocation(2, 1, 1),
            2: AtomLocation(0, 1, 1),  # SLM bystander
        }
        assert twin(locs).probe(0, 1, [(0.5, 0.5)]) == ((0.5, 0.5), False)

    def test_meeting_on_occupied_slm_site_rejected(self):
        locs = {
            0: AtomLocation(1, 0, 0),
            1: AtomLocation(2, 1, 1),
            2: AtomLocation(0, 1, 1),
        }
        # SLM qubit 2 lives there
        assert twin(locs).probe(0, 1, [(1.0, 1.0)]) == (None, False)

    def test_meeting_on_free_integer_site_allowed(self):
        locs = {
            0: AtomLocation(1, 0, 0),
            1: AtomLocation(2, 1, 1),
        }
        assert twin(locs).probe(0, 1, [(2.0, 2.0)]) == ((2.0, 2.0), False)


class TestPlacePairEquivalence:
    """place_pair must behave exactly like the oracle's probe loop on
    router-built candidate lists, under every one of the eight
    constraint-toggle settings (Fig. 22's ablation)."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_reference_on_random_programs(self, seed):
        arch = arch_2aod(side=5)
        locations = {}
        q = 0
        for arr in range(3):
            for r in range(3):
                for c in range(3):
                    locations[q] = AtomLocation(arr, r, c)
                    q += 1
        slm_sites = {
            (float(l.row), float(l.col))
            for l in locations.values()
            if l.is_slm
        }
        for flags in itertools.product((True, False), repeat=3):
            toggles = ConstraintToggles(*flags)
            rng = np.random.default_rng(seed)
            t = Twin(locations, toggles, side=5)
            for _ in range(25):
                a, b = rng.choice(q, size=2, replace=False)
                a, b = int(a), int(b)
                if locations[a].array == locations[b].array:
                    continue
                sites = candidate_sites(a, b, locations, arch, slm_sites, 12)
                t.probe(a, b, sites)
