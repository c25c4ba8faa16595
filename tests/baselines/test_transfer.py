"""Tests for the transfer-based compilation variant."""

import pytest

from repro.baselines import (
    compile_on_atomique,
    compile_with_transfers,
    segment_circuit,
)
from repro.circuits import QuantumCircuit
from repro.circuits.decompose import lower_to_two_qubit
from repro.core.program import SPILL_ENV, SPILL_STAGES_ENV
from repro.generators import qaoa_random, qaoa_regular, qsim_random
from repro.hardware import RAAArchitecture


class TestSegmentation:
    def test_single_segment_when_cut_is_perfect(self):
        # bipartite interaction graph: one assignment covers everything
        c = QuantumCircuit(4).cz(0, 2).cz(1, 3).cz(0, 3).cz(1, 2)
        arch = RAAArchitecture.default(side=4)
        segments, transfers = segment_circuit(c, arch)
        assert len(segments) == 1
        assert transfers == 0

    def test_segments_cover_all_gates(self):
        c = qsim_random(16, seed=2)
        native = lower_to_two_qubit(c.without_directives())
        arch = RAAArchitecture.default(side=4)
        segments, _ = segment_circuit(native, arch)
        total = sum(len(seg) for seg, _ in segments)
        assert total == len(native)

    def test_every_segment_gate_is_inter_array(self):
        c = qsim_random(16, seed=5)
        native = lower_to_two_qubit(c.without_directives())
        arch = RAAArchitecture.default(side=4)
        segments, _ = segment_circuit(native, arch)
        for seg, assignment in segments:
            for g in seg.gates:
                if g.is_two_qubit:
                    a, b = g.qubits
                    assert assignment[a] != assignment[b]

    def test_transfers_counted(self):
        c = qsim_random(16, seed=5)
        native = lower_to_two_qubit(c.without_directives())
        arch = RAAArchitecture.default(side=4)
        segments, transfers = segment_circuit(native, arch)
        if len(segments) > 1:
            assert transfers > 0


class TestTransferCompilation:
    def test_no_swap_gates(self):
        m = compile_with_transfers(qsim_random(16, seed=1))
        logical = lower_to_two_qubit(qsim_random(16, seed=1)).num_2q_gates
        assert m.num_2q_gates == logical  # no SWAP overhead at all

    def test_transfer_loss_penalizes_fidelity(self):
        """The paper's claim: transfers hurt on iterative workloads."""
        circ = qsim_random(20, seed=20)
        transfer = compile_with_transfers(circ)
        swap = compile_on_atomique(circ)
        assert transfer.extras["num_transfers"] > 0
        assert transfer.fidelity.f_transfer < 1.0
        assert transfer.total_fidelity < swap.total_fidelity * 1.05

    def test_metrics_label(self):
        m = compile_with_transfers(qaoa_regular(10, 3, seed=0))
        assert m.architecture == "Atomique-Transfer"

    def test_transfer_free_circuit_matches_atomique_gates(self):
        c = QuantumCircuit(4).cz(0, 2).cz(1, 3)
        m = compile_with_transfers(c)
        assert m.extras["num_transfers"] == 0
        assert m.num_2q_gates == 2

    def test_spilled_routing_keeps_every_stage(self, tmp_path, monkeypatch):
        """Regression: with spilling on, each routed segment's flushed
        stages must reach the combined program, and every segment file is
        deleted once its stages are copied."""
        circ = qaoa_random(30, seed=3)
        arch = RAAArchitecture.default(side=4)
        dense = compile_with_transfers(circ, arch)
        monkeypatch.setenv(SPILL_ENV, str(tmp_path))
        monkeypatch.setenv(SPILL_STAGES_ENV, "8")
        spilled = compile_with_transfers(circ, arch)
        assert spilled.num_2q_gates == dense.num_2q_gates
        assert spilled.depth == dense.depth
        assert spilled.execution_seconds == dense.execution_seconds
        assert spilled.fidelity == dense.fidelity
        assert list(tmp_path.iterdir()) == []
