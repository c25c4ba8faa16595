"""Tests for the three hardware constraints, including the paper's
Fig. 9-11 violation scenarios."""

import pytest

from repro.core.constraints import ConstraintToggles, StagePlan, parking_offset
from repro.hardware import ArrayShape, AtomLocation, RAAArchitecture


def arch_2aod(side=4):
    return RAAArchitecture.default(side=side, num_aods=2)


def make_plan(locations, toggles=None, side=4):
    return StagePlan(
        architecture=arch_2aod(side),
        locations=locations,
        toggles=toggles or ConstraintToggles(),
    )


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
        plan = make_plan(locs)
        assert plan.can_add(0, 1, (1.0, 1.0))
        plan.add(0, 1, (1.0, 1.0))
        assert plan.is_legal()
        assert plan.row_maps[1] == {0: 1.0}
        assert plan.col_maps[1] == {0: 1.0}

    def test_slm_qubit_cannot_move(self):
        locs = {0: AtomLocation(0, 1, 1), 1: AtomLocation(1, 0, 0)}
        plan = make_plan(locs)
        assert not plan.can_add(0, 1, (2.0, 2.0))  # not qubit 0's site

    def test_busy_qubit_rejected(self):
        locs = {
            0: AtomLocation(0, 1, 1),
            1: AtomLocation(1, 0, 0),
            2: AtomLocation(2, 0, 0),
        }
        plan = make_plan(locs)
        plan.add(0, 1, (1.0, 1.0))
        assert not plan.can_add(0, 2, (1.0, 1.0))

    def test_site_reuse_rejected(self):
        locs = {
            0: AtomLocation(0, 1, 1),
            1: AtomLocation(1, 0, 0),
            2: AtomLocation(1, 2, 2),
            3: AtomLocation(2, 0, 0),
        }
        plan = make_plan(locs)
        plan.add(0, 1, (1.0, 1.0))
        assert not plan.can_add(2, 3, (1.0, 1.0))

    def test_out_of_bounds_rejected(self):
        locs = {0: AtomLocation(1, 0, 0), 1: AtomLocation(2, 0, 0)}
        plan = make_plan(locs)
        assert not plan.can_add(0, 1, (10.0, 0.0))

    def test_snapshot_restore(self):
        locs = {0: AtomLocation(0, 1, 1), 1: AtomLocation(1, 0, 0)}
        plan = make_plan(locs)
        token = plan.snapshot()
        plan.add(0, 1, (1.0, 1.0))
        plan.restore(token)
        assert not plan.scheduled
        assert not plan.row_maps[1]


class TestConstraint1:
    """Fig. 9: all pairs within Rydberg range must be intended gates."""

    def test_unintended_slm_partner_rejected(self):
        # AOD atoms at (0,0) and (0,1) in the same row; SLM qubits at
        # (0,0) and (0,1).  Gating q2-(0,0) and also mapping col 1 makes
        # atom q3 land on SLM qubit q1 -> unwanted gate (paper Fig. 9).
        locs = {
            0: AtomLocation(0, 0, 0),
            1: AtomLocation(0, 0, 1),
            2: AtomLocation(1, 0, 0),
            3: AtomLocation(1, 0, 1),
            4: AtomLocation(0, 2, 2),
        }
        plan = make_plan(locs)
        plan.add(2, 0, (0.0, 0.0))
        # scheduling q3 with the *wrong* partner at q1's site is caught by
        # can_add (site hosts a third SLM qubit) or by C1 afterwards
        assert plan.can_add(3, 1, (0.0, 1.0))
        plan.add(3, 1, (0.0, 1.0))
        assert plan.is_legal()  # both pairs intended -> fine

    def test_incidental_engagement_collision(self):
        # Two gates whose row/col maps accidentally land a third AOD atom
        # on an occupied SLM site.
        locs = {
            0: AtomLocation(0, 0, 0),  # SLM
            1: AtomLocation(0, 1, 1),  # SLM
            2: AtomLocation(0, 1, 0),  # SLM (victim site)
            3: AtomLocation(1, 0, 0),  # AOD gate atom
            4: AtomLocation(1, 1, 1),  # AOD gate atom
            5: AtomLocation(1, 1, 0),  # AOD atom engaged incidentally
        }
        plan = make_plan(locs)
        plan.add(3, 0, (0.0, 0.0))  # maps row0->0, col0->0
        token = plan.snapshot()
        plan.add(4, 1, (1.0, 1.0))  # maps row1->1, col1->1
        # atom 5 (row1, col0) now lands at (1, 0) = SLM qubit 2's site
        assert plan.violates_c1()
        assert not plan.is_legal()
        plan.restore(token)
        assert plan.is_legal()

    def test_relaxed_c1_accepts(self):
        locs = {
            0: AtomLocation(0, 0, 0),
            1: AtomLocation(0, 1, 1),
            2: AtomLocation(0, 1, 0),
            3: AtomLocation(1, 0, 0),
            4: AtomLocation(1, 1, 1),
            5: AtomLocation(1, 1, 0),
        }
        plan = make_plan(
            locs, ConstraintToggles(no_unintended_interaction=False)
        )
        plan.add(3, 0, (0.0, 0.0))
        plan.add(4, 1, (1.0, 1.0))
        assert plan.violates_c1()  # still *detected*
        assert plan.is_legal()  # but allowed

    def test_three_atoms_on_site_rejected(self):
        locs = {
            0: AtomLocation(0, 0, 0),  # SLM
            1: AtomLocation(1, 0, 0),  # AOD1
            2: AtomLocation(2, 0, 0),  # AOD2
        }
        plan = make_plan(locs)
        plan.add(0, 1, (0.0, 0.0))
        # q2 cannot meet anyone at the same site
        assert not plan.can_add(2, 0, (0.0, 0.0))  # busy anyway
        # force engagement via direct map manipulation
        plan.row_maps[2][0] = 0.0
        plan.col_maps[2][0] = 0.0
        assert plan.violates_c1()


class TestConstraint2:
    """Fig. 10: row/column order must be preserved."""

    def test_row_order_violation_rejected(self):
        # AOD rows 0 and 1 must keep row0 above row1
        locs = {
            0: AtomLocation(0, 0, 0),
            1: AtomLocation(0, 1, 1),
            2: AtomLocation(1, 0, 0),
            3: AtomLocation(1, 1, 1),
        }
        plan = make_plan(locs)
        plan.add(2, 1, (1.0, 1.0))  # row0 -> 1
        # row1 would need to go to 0 < 1: order swap, illegal
        assert not plan.can_add(3, 0, (0.0, 0.0))

    def test_col_order_violation_rejected(self):
        locs = {
            0: AtomLocation(0, 0, 0),
            1: AtomLocation(0, 1, 1),
            2: AtomLocation(1, 0, 0),
            3: AtomLocation(1, 1, 1),
        }
        plan = make_plan(locs)
        plan.add(2, 1, (1.0, 1.0))  # col0 -> 1
        assert not plan.can_add(3, 0, (0.0, 0.0))  # col1 -> 0 violates

    def test_order_preserving_parallel_gates_allowed(self):
        locs = {
            0: AtomLocation(0, 0, 0),
            1: AtomLocation(0, 2, 2),
            2: AtomLocation(1, 0, 0),
            3: AtomLocation(1, 1, 1),
        }
        plan = make_plan(locs)
        plan.add(2, 0, (0.0, 0.0))
        assert plan.can_add(3, 1, (2.0, 2.0))  # row1->2 > row0->0: fine
        plan.add(3, 1, (2.0, 2.0))
        assert plan.is_legal()

    def test_relaxed_c2_allows_swap(self):
        locs = {
            0: AtomLocation(0, 0, 0),
            1: AtomLocation(0, 1, 1),
            2: AtomLocation(1, 0, 0),
            3: AtomLocation(1, 1, 1),
        }
        plan = make_plan(locs, ConstraintToggles(preserve_order=False))
        plan.add(2, 1, (1.0, 1.0))
        assert plan.can_add(3, 0, (0.0, 0.0))


class TestConstraint3:
    """Fig. 11: two rows/columns cannot overlap."""

    def test_row_overlap_rejected(self):
        # two gates demanding AOD rows 0 and 1 at the same site row
        locs = {
            0: AtomLocation(0, 2, 0),
            1: AtomLocation(0, 2, 3),
            2: AtomLocation(1, 0, 0),
            3: AtomLocation(1, 1, 3),
        }
        plan = make_plan(locs)
        plan.add(2, 0, (2.0, 0.0))  # row0 -> 2
        assert not plan.can_add(3, 1, (2.0, 3.0))  # row1 -> 2 overlaps

    def test_relaxed_c3_allows_overlap(self):
        locs = {
            0: AtomLocation(0, 2, 0),
            1: AtomLocation(0, 2, 3),
            2: AtomLocation(1, 0, 0),
            3: AtomLocation(1, 1, 3),
        }
        plan = make_plan(locs, ConstraintToggles(no_overlap=False))
        plan.add(2, 0, (2.0, 0.0))
        assert plan.can_add(3, 1, (2.0, 3.0))

    def test_same_line_two_targets_impossible_even_relaxed(self):
        """One physical line cannot be in two places regardless of toggles."""
        locs = {
            0: AtomLocation(0, 0, 0),
            1: AtomLocation(0, 3, 3),
            2: AtomLocation(1, 0, 0),
            3: AtomLocation(1, 0, 3),  # same AOD row as qubit 2
        }
        plan = make_plan(
            locs,
            ConstraintToggles(
                no_unintended_interaction=False,
                preserve_order=False,
                no_overlap=False,
            ),
        )
        plan.add(2, 0, (0.0, 0.0))  # row0 -> 0
        assert not plan.can_add(3, 1, (3.0, 3.0))  # row0 -> 3: contradiction


class TestAodAodGates:
    def test_meeting_at_half_offset(self):
        locs = {
            0: AtomLocation(1, 0, 0),
            1: AtomLocation(2, 1, 1),
            2: AtomLocation(0, 1, 1),  # SLM bystander
        }
        plan = make_plan(locs)
        assert plan.can_add(0, 1, (0.5, 0.5))
        plan.add(0, 1, (0.5, 0.5))
        assert plan.is_legal()

    def test_meeting_on_occupied_slm_site_rejected(self):
        locs = {
            0: AtomLocation(1, 0, 0),
            1: AtomLocation(2, 1, 1),
            2: AtomLocation(0, 1, 1),
        }
        plan = make_plan(locs)
        assert not plan.can_add(0, 1, (1.0, 1.0))  # SLM qubit 2 lives there

    def test_meeting_on_free_integer_site_allowed(self):
        locs = {
            0: AtomLocation(1, 0, 0),
            1: AtomLocation(2, 1, 1),
        }
        plan = make_plan(locs)
        assert plan.can_add(0, 1, (2.0, 2.0))


class TestJournaledRestore:
    """Regression tests pinning snapshot/restore semantics after the move
    from full-dict deep copies to the journaled undo log (the old restore
    also performed a redundant second deep copy of its token)."""

    def locs(self):
        return {
            0: AtomLocation(0, 1, 1),
            1: AtomLocation(1, 0, 0),
            2: AtomLocation(0, 2, 2),
            3: AtomLocation(1, 1, 1),
            4: AtomLocation(2, 0, 0),
            5: AtomLocation(2, 1, 1),
        }

    def snapshot_state(self, plan):
        return (
            {a: dict(m) for a, m in plan.row_maps.items()},
            {a: dict(m) for a, m in plan.col_maps.items()},
            dict(plan.scheduled),
            set(plan.busy_qubits),
            sorted(plan.engaged_atoms()),
        )

    def test_restore_exact_state(self):
        plan = make_plan(self.locs())
        plan.add(0, 1, (1.0, 1.0))
        before = self.snapshot_state(plan)
        token = plan.snapshot()
        plan.add(2, 3, (2.0, 2.0))
        plan.add(4, 5, (0.5, 0.5))
        plan.restore(token)
        assert self.snapshot_state(plan) == before
        assert plan.is_legal()

    def test_nested_tokens_unwind_in_order(self):
        plan = make_plan(self.locs())
        t0 = plan.snapshot()
        plan.add(0, 1, (1.0, 1.0))
        t1 = plan.snapshot()
        plan.add(2, 3, (2.0, 2.0))
        plan.restore(t1)
        assert set(plan.busy_qubits) == {0, 1}
        plan.restore(t0)
        assert not plan.busy_qubits
        assert not plan.scheduled
        assert all(not m for m in plan.row_maps.values())

    def test_restore_preserves_shared_line_entry(self):
        """A second gate reusing an already-set line must not lose the
        entry when the second gate is undone."""
        locs = {
            0: AtomLocation(0, 1, 0),
            1: AtomLocation(1, 0, 0),
            2: AtomLocation(0, 1, 2),
            3: AtomLocation(1, 0, 2),  # same AOD row as qubit 1
        }
        plan = make_plan(locs)
        plan.add(0, 1, (1.0, 0.0))  # row 0 -> 1
        token = plan.snapshot()
        assert plan.can_add(2, 3, (1.0, 2.0))  # reuses row 0 -> 1
        plan.add(2, 3, (1.0, 2.0))
        plan.restore(token)
        assert plan.row_maps[1] == {0: 1.0}  # survives the undo
        assert plan.scheduled == {(1.0, 0.0): (0, 1)}

    def test_snapshot_is_constant_size(self):
        plan = make_plan(self.locs())
        t0 = plan.snapshot()
        plan.add(0, 1, (1.0, 1.0))
        t1 = plan.snapshot()
        assert isinstance(t0, int) and isinstance(t1, int)
        assert t1 > t0

    def test_is_legal_tracks_violates_c1_through_undo(self):
        """The incremental C1 view must agree with the authoritative full
        scan across add/restore sequences (Fig. 9 scenario)."""
        locs = {
            0: AtomLocation(0, 0, 0),
            1: AtomLocation(0, 1, 1),
            2: AtomLocation(0, 1, 0),
            3: AtomLocation(1, 0, 0),
            4: AtomLocation(1, 1, 1),
            5: AtomLocation(1, 1, 0),
        }
        plan = make_plan(locs)
        plan.add(3, 0, (0.0, 0.0))
        assert plan.is_legal() and not plan.violates_c1()
        token = plan.snapshot()
        plan.add(4, 1, (1.0, 1.0))  # drags q5 onto q2's trap
        assert plan.violates_c1()
        assert not plan.is_legal()
        plan.restore(token)
        assert not plan.violates_c1()
        assert plan.is_legal()


class TestPlacePairEquivalence:
    """place_pair must behave exactly like the reference probe loop
    (can_add + add + is_legal + restore per candidate), under every one
    of the eight constraint-toggle settings (Fig. 22's ablation)."""

    def reference_place(self, plan, a, b, sites):
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

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_reference_on_random_programs(self, seed):
        import itertools

        import numpy as np

        from repro.core.constraints import _snap
        from repro.core.router import candidate_sites

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
            plan_fast = make_plan(locations, toggles, side=5)
            plan_ref = make_plan(locations, toggles, side=5)
            for _ in range(25):
                a, b = rng.choice(q, size=2, replace=False)
                a, b = int(a), int(b)
                if locations[a].array == locations[b].array:
                    continue
                sites = candidate_sites(a, b, locations, arch, slm_sites, 12)
                pairs = [(s, (_snap(s[0]), _snap(s[1]))) for s in sites]
                got = plan_fast.place_pair(a, b, pairs)
                want = self.reference_place(plan_ref, a, b, sites)
                assert got == want, (toggles, a, b)
                assert plan_fast.row_maps == plan_ref.row_maps, toggles
                assert plan_fast.col_maps == plan_ref.col_maps, toggles
                assert plan_fast.scheduled == plan_ref.scheduled, toggles
                assert plan_fast.busy_qubits == plan_ref.busy_qubits, toggles
