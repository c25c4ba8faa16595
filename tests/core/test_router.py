"""Tests for the high-parallelism router."""

import pytest

from repro.circuits import DAGCircuit, QuantumCircuit
from repro.core.atom_mapper import map_qubits_to_atoms
from repro.core.constraints import ConstraintToggles
from repro.core.router import HighParallelismRouter, RouterConfig, RoutingError
from repro.hardware import AtomLocation, RAAArchitecture


def route(circuit, assignment, config=None, side=4, num_aods=2):
    arch = RAAArchitecture.default(side=side, num_aods=num_aods)
    locs = map_qubits_to_atoms(circuit, assignment, arch)
    router = HighParallelismRouter(arch, locs, config)
    return router.route(circuit)


def assert_program_faithful(program, circuit):
    """Stages must execute exactly the circuit's 2Q gates in a DAG-legal
    order, with stage-internal qubit-disjointness."""
    dag = DAGCircuit(circuit)
    for stage in program.stages:
        used: set[int] = set()
        for pulse in stage.one_qubit_gates:
            match = None
            for idx, g in dag.front_gates():
                if g.is_one_qubit and g.qubits == (pulse.qubit,) and g.name == pulse.name:
                    match = idx
                    break
            assert match is not None, f"unmatched 1Q pulse {pulse}"
            dag.execute(match)
        for gate in stage.gates:
            assert gate.qubit_a not in used and gate.qubit_b not in used
            used.update((gate.qubit_a, gate.qubit_b))
            match = None
            for idx, g in dag.front_gates():
                if g.is_two_qubit and set(g.qubits) == {gate.qubit_a, gate.qubit_b}:
                    match = idx
                    break
            assert match is not None, f"unmatched 2Q gate {gate}"
            dag.execute(match)
    assert dag.done, "router dropped gates"


class TestBasicRouting:
    def test_single_gate(self):
        c = QuantumCircuit(2).cz(0, 1)
        program = route(c, [0, 1])
        assert program.num_2q_gates == 1
        assert program.two_qubit_depth == 1
        assert_program_faithful(program, c)

    def test_one_qubit_gates_flushed(self):
        c = QuantumCircuit(2).h(0).h(1).cz(0, 1).h(0)
        program = route(c, [0, 1])
        assert program.num_1q_gates == 3
        assert_program_faithful(program, c)

    def test_parallel_gates_share_stage(self):
        # two independent gates between SLM and AOD1 at aligned positions
        c = QuantumCircuit(4).cz(0, 2).cz(1, 3)
        program = route(c, [0, 0, 1, 1])
        assert program.num_2q_gates == 2
        assert program.two_qubit_depth <= 2
        assert_program_faithful(program, c)

    def test_dependent_gates_serialize(self):
        c = QuantumCircuit(3).cz(0, 2).cz(1, 2)
        program = route(c, [0, 0, 1])
        assert program.two_qubit_depth == 2
        assert_program_faithful(program, c)

    def test_aod_aod_gate(self):
        c = QuantumCircuit(2).cz(0, 1)
        program = route(c, [1, 2])
        assert program.num_2q_gates == 1
        assert_program_faithful(program, c)

    def test_slm_slm_gate_unroutable(self):
        c = QuantumCircuit(2).cz(0, 1)
        with pytest.raises(RoutingError):
            route(c, [0, 0])

    def test_only_1q_circuit(self):
        c = QuantumCircuit(3).h(0).h(1).h(2)
        program = route(c, [0, 1, 2])
        assert program.num_2q_gates == 0
        assert program.num_1q_gates == 3


class TestCandidateSetSharing:
    def test_aod_slm_pairs_share_the_slm_atoms_set(self):
        """An AOD-SLM pair's only candidate is the SLM atom's trap, so
        every pair on one SLM atom, in either order, gets the same set."""
        arch = RAAArchitecture.default(side=4, num_aods=2)
        locs = {
            0: AtomLocation(0, 1, 2),
            1: AtomLocation(0, 3, 0),
            2: AtomLocation(1, 0, 0),
            3: AtomLocation(2, 2, 1),
        }
        router = HighParallelismRouter(arch, locs)
        shared = router._candidate_sites(2, 0)
        assert [raw for raw, _snapped in shared.sites] == [(1.0, 2.0)]
        assert router._candidate_sites(0, 3) is shared
        assert router._candidate_sites(3, 0) is shared
        assert router._candidate_sites(2, 1) is not shared


class TestSerialMode:
    def test_one_gate_per_stage(self):
        c = QuantumCircuit(4).cz(0, 2).cz(1, 3)
        program = route(c, [0, 0, 1, 1], RouterConfig(serial=True))
        assert program.two_qubit_depth == 2
        assert all(len(s.gates) <= 1 for s in program.stages)

    def test_serial_never_shallower(self):
        c = QuantumCircuit(6)
        for i in range(3):
            c.cz(i, i + 3)
        parallel = route(c, [0, 0, 0, 1, 1, 1])
        serial = route(c, [0, 0, 0, 1, 1, 1], RouterConfig(serial=True))
        assert serial.two_qubit_depth >= parallel.two_qubit_depth


class TestConstraintsInRouting:
    def test_constraint_relaxation_reduces_depth(self):
        import numpy as np

        rng = np.random.default_rng(0)
        assignment = [i % 3 for i in range(12)]
        c = QuantumCircuit(12)
        count = 0
        while count < 40:
            a, b = rng.choice(12, size=2, replace=False)
            if assignment[int(a)] != assignment[int(b)]:
                c.cz(int(a), int(b))
                count += 1
        strict = route(c, assignment)
        relaxed = route(
            c,
            assignment,
            RouterConfig(toggles=ConstraintToggles(no_overlap=False)),
        )
        assert relaxed.two_qubit_depth <= strict.two_qubit_depth
        assert relaxed.num_2q_gates == strict.num_2q_gates

    def test_movement_recorded(self):
        c = QuantumCircuit(2).cz(0, 1)
        program = route(c, [0, 1])
        assert program.num_moves >= 2  # one row + one col at least
        assert program.total_move_distance(
            RAAArchitecture.default().params
        ) > 0

    def test_gate_nvib_recorded(self):
        c = QuantumCircuit(2).cz(0, 1).cz(0, 1).cz(0, 1)
        program = route(c, [0, 1])
        n_vibs = [g.n_vib for s in program.stages for g in s.gates]
        assert len(n_vibs) == 3
        assert n_vibs[-1] >= n_vibs[0]  # heating accumulates


class TestLargerCircuits:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_inter_array_circuit(self, seed):
        import numpy as np

        rng = np.random.default_rng(seed)
        n = 16
        assignment = [i % 3 for i in range(n)]
        c = QuantumCircuit(n)
        count = 0
        while count < 60:
            a, b = rng.choice(n, size=2, replace=False)
            if assignment[int(a)] != assignment[int(b)]:
                c.cz(int(a), int(b))
                count += 1
            if rng.random() < 0.3:
                c.h(int(rng.integers(0, n)))
        program = route(c, assignment, side=6)
        assert program.num_2q_gates == 60
        assert_program_faithful(program, c)

    def test_ordering_trials_no_worse(self):
        import numpy as np

        rng = np.random.default_rng(3)
        n = 12
        assignment = [i % 3 for i in range(n)]
        c = QuantumCircuit(n)
        count = 0
        while count < 40:
            a, b = rng.choice(n, size=2, replace=False)
            if assignment[int(a)] != assignment[int(b)]:
                c.cz(int(a), int(b))
                count += 1
        base = route(c, assignment)
        searched = route(c, assignment, RouterConfig(ordering_trials=8))
        assert searched.two_qubit_depth <= base.two_qubit_depth + 2
