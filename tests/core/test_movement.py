"""Tests for movement tracking, heating accumulation, and cooling."""

import pytest

from repro.circuits import QuantumCircuit
from repro.core.constraints import parking_offset
from repro.core.instructions import Move
from repro.core.movement import MovementTracker
from repro.core.program import ProgramStore
from repro.core.router import HighParallelismRouter, RouterConfig
from repro.hardware import AtomLocation, RAAArchitecture


def tracker_with(locations, threshold=None):
    arch = RAAArchitecture.default(side=4, num_aods=2)
    return MovementTracker(
        architecture=arch,
        locations=locations,
        params=arch.params,
        cooling_threshold=threshold,
    )


def run_stage(tracker, row_maps, col_maps):
    """Emit one stage into a fresh store; return its ``move_*`` columns as
    :class:`Move` records and its ``amd_*`` columns as a qubit -> metres map."""
    store = ProgramStore()
    tracker.bind_store(store)(row_maps, col_maps)
    moves = [
        Move(*record)
        for record in zip(
            store.move_aod,
            store.move_axis,
            store.move_index,
            store.move_start,
            store.move_end,
        )
    ]
    return moves, dict(zip(store.amd_qubit, store.amd_dist))


class TestPositions:
    def test_initial_parked_positions(self):
        t = tracker_with({0: AtomLocation(1, 2, 3)})
        assert t.row_pos[1][2] == pytest.approx(2 + parking_offset(1))
        assert t.col_pos[1][3] == pytest.approx(3 + parking_offset(1))

    def test_stage_moves_and_retreats(self):
        t = tracker_with({0: AtomLocation(1, 0, 0)})
        moves, dist = run_stage(t, {1: {0: 2.0}}, {1: {0: 1.0}})
        assert len(moves) == 2
        assert t.row_pos[1][0] == pytest.approx(2.0 + parking_offset(1))
        assert t.col_pos[1][0] == pytest.approx(1.0 + parking_offset(1))
        assert 0 in dist and dist[0] > 0

    def test_move_records_start_end(self):
        t = tracker_with({0: AtomLocation(1, 0, 0)})
        moves, _ = run_stage(t, {1: {0: 3.0}}, {})
        (move,) = moves
        assert move.axis == "row" and move.index == 0
        assert move.end == 3.0
        assert move.distance_sites == pytest.approx(
            abs(3.0 - parking_offset(1))
        )


class TestHeating:
    def test_nvib_accumulates(self):
        t = tracker_with({0: AtomLocation(1, 0, 0)})
        run_stage(t, {1: {0: 3.0}}, {1: {0: 3.0}})
        first = t.n_vib[0]
        assert first > 0
        run_stage(t, {1: {0: 0.0}}, {1: {0: 0.0}})
        assert t.n_vib[0] > first

    def test_unmoved_atom_stays_cold(self):
        locs = {0: AtomLocation(1, 0, 0), 1: AtomLocation(1, 3, 3)}
        t = tracker_with(locs)
        run_stage(t, {1: {0: 2.0}}, {1: {0: 2.0}})
        assert t.n_vib[0] > 0
        assert t.n_vib[1] == 0.0

    def test_whole_row_heats_together(self):
        locs = {0: AtomLocation(1, 0, 0), 1: AtomLocation(1, 0, 3)}
        t = tracker_with(locs)
        run_stage(t, {1: {0: 2.0}}, {})
        assert t.n_vib[0] > 0 and t.n_vib[1] > 0

    def test_loss_samples_recorded(self):
        t = tracker_with({0: AtomLocation(1, 0, 0)})
        run_stage(t, {1: {0: 2.0}}, {})
        assert len(t.loss_samples) == 1
        assert t.loss_samples[0] == pytest.approx(t.n_vib[0])

    def test_slm_atoms_never_heat(self):
        locs = {0: AtomLocation(0, 0, 0), 1: AtomLocation(1, 0, 0)}
        t = tracker_with(locs)
        run_stage(t, {1: {0: 2.0}}, {1: {0: 2.0}})
        assert t.n_vib[0] == 0.0


class TestCooling:
    def test_cooling_triggers_at_threshold(self):
        t = tracker_with({0: AtomLocation(1, 0, 0)}, threshold=0.001)
        run_stage(t, {1: {0: 3.0}}, {1: {0: 3.0}})
        events = t.maybe_cool()
        assert len(events) == 1
        assert events[0].aod == 1
        assert events[0].num_cz == 2
        assert t.n_vib[0] == 0.0
        assert t.num_cooling_events == 1

    def test_no_cooling_below_threshold(self):
        t = tracker_with({0: AtomLocation(1, 0, 0)}, threshold=1e9)
        run_stage(t, {1: {0: 3.0}}, {1: {0: 3.0}})
        assert t.maybe_cool() == []

    def test_cooling_whole_array(self):
        locs = {
            0: AtomLocation(1, 0, 0),
            1: AtomLocation(1, 1, 1),
            2: AtomLocation(2, 0, 0),
        }
        t = tracker_with(locs, threshold=0.0001)
        run_stage(t, {1: {0: 3.0}}, {1: {0: 3.0}})
        events = t.maybe_cool()
        assert len(events) == 1
        assert events[0].num_atoms == 2  # both AOD-1 atoms swapped
        assert t.n_vib[1] == 0.0  # even the unmoved one resets


class TestPairNvib:
    """The router records each gate's n_vib by the Sec. IV, Eq. 2
    convention: AOD-SLM pairs use the AOD atom's value, AOD-AOD pairs sum
    both.  One gate, one stage, no cooling: the gate reads the final n_vib."""

    @staticmethod
    def route_one_gate(locations, a, b):
        arch = RAAArchitecture.default(side=4, num_aods=2)
        router = HighParallelismRouter(
            arch, locations, RouterConfig(cooling_threshold=1e9)
        )
        program = router.route(QuantumCircuit(2).cz(a, b))
        (n_vib,) = program.gate_n_vib
        return n_vib, program.n_vib_final

    def test_aod_slm_uses_aod_value(self):
        locs = {0: AtomLocation(0, 0, 0), 1: AtomLocation(1, 0, 0)}
        for a, b in ((0, 1), (1, 0)):
            n_vib, final = self.route_one_gate(locs, a, b)
            assert final[0] == 0.0
            assert final[1] > 0.0
            assert n_vib == final[1]

    def test_aod_aod_sums(self):
        locs = {0: AtomLocation(1, 0, 0), 1: AtomLocation(2, 0, 0)}
        n_vib, final = self.route_one_gate(locs, 0, 1)
        assert final[0] > 0.0 and final[1] > 0.0
        assert n_vib == pytest.approx(final[0] + final[1])
