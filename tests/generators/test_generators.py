"""Tests for the benchmark circuit generators against Table II structure."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.generators import (
    bernstein_vazirani,
    ghz,
    h2_circuit,
    hhl_like,
    lih_circuit,
    main_suite,
    mermin_bell,
    phase_code,
    qaoa_interaction_graph,
    qaoa_random,
    qaoa_regular,
    qft,
    qsim_random,
    qsim_random_strings,
    ripple_carry_adder,
    small_suite,
    vqe_ansatz,
)
from repro.generators.suite import find


class TestQAOA:
    def test_regular_edge_count(self):
        c = qaoa_regular(40, 5, seed=0)
        # d-regular graph has n*d/2 edges, one rzz per edge per layer
        assert sum(1 for g in c.gates if g.name == "rzz") == 100

    def test_regular_rejects_odd_product(self):
        with pytest.raises(ValueError):
            qaoa_regular(5, 3)

    def test_regular_rejects_high_degree(self):
        with pytest.raises(ValueError):
            qaoa_regular(4, 4)

    def test_random_probability_scaling(self):
        dense = qaoa_random(20, edge_prob=0.9, seed=1)
        sparse = qaoa_random(20, edge_prob=0.1, seed=1)
        assert dense.num_2q_gates > sparse.num_2q_gates

    def test_layers_multiply_gates(self):
        one = qaoa_regular(10, 3, p_layers=1, seed=0)
        two = qaoa_regular(10, 3, p_layers=2, seed=0)
        assert two.num_2q_gates == 2 * one.num_2q_gates

    def test_interaction_graph_recovery(self):
        c = qaoa_regular(12, 3, seed=2)
        g = qaoa_interaction_graph(c)
        assert all(d == 3 for _, d in g.degree())

    def test_hadamard_initialization(self):
        c = qaoa_random(8, seed=0)
        assert [g.name for g in c.gates[:8]] == ["h"] * 8


class TestQAOARandomStream:
    @pytest.mark.parametrize("seed", [0, 1, 7, 1009])
    def test_edge_mask_matches_one_scalar_draw_per_pair(self, seed):
        rng = np.random.default_rng(seed)
        expected = [
            (i, j) for i in range(30) for j in range(i + 1, 30) if rng.random() < 0.5
        ]
        circ = qaoa_random(30, seed=seed)
        assert [g.qubits for g in circ.gates if g.name == "rzz"] == expected


class TestImportBudget:
    def test_library_path_leaves_networkx_unloaded(self):
        """networkx loads only for the regular-graph helpers that use it."""
        code = (
            "import sys\n"
            "import repro.experiments.common\n"
            "from repro.generators.qaoa import qaoa_random\n"
            "qaoa_random(24)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'networkx'))\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, path]))}
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        assert out.stdout.strip() == "[]"


class TestQSim:
    def test_string_count(self):
        c = qsim_random(20, num_strings=10, seed=0)
        assert sum(1 for g in c.gates if g.name == "rz") == 10

    def test_nonidentity_probability_scales_weight(self):
        heavy = qsim_random(20, non_identity_prob=0.9, seed=1)
        light = qsim_random(20, non_identity_prob=0.2, seed=1)
        assert heavy.num_2q_gates > light.num_2q_gates

    def test_strings_match_circuit_seed(self):
        strings = qsim_random_strings(10, seed=3)
        c = qsim_random(10, seed=3)
        # each string of weight w contributes 2(w-1) CX
        expected_2q = sum(2 * (sum(1 for ch in s if ch != "I") - 1) for s in strings)
        assert c.num_2q_gates == expected_2q

    def test_h2_structure(self):
        c = h2_circuit()
        assert c.num_qubits == 4
        assert c.num_2q_gates > 20  # Table II: 40

    def test_lih_scale(self):
        c = lih_circuit()
        assert c.num_qubits == 6
        assert 800 <= c.num_2q_gates <= 1500  # Table II: 1134

    def test_ladder_symmetry(self):
        """CX ladder must uncompute: equal counts of each directed CX."""
        from collections import Counter

        c = qsim_random(8, num_strings=3, seed=5)
        cx_dirs = Counter(g.qubits for g in c.gates if g.name == "cx")
        assert all(v % 2 == 0 for v in cx_dirs.values())


class TestAlgorithms:
    def test_bv_gate_count(self):
        c = bernstein_vazirani(50)
        assert c.num_qubits == 50
        # alternating secret: 25 set bits among 49 data qubits
        assert c.num_2q_gates == 25

    def test_bv_custom_secret(self):
        c = bernstein_vazirani(10, secret=0b101)
        assert c.num_2q_gates == 2

    def test_ghz(self):
        c = ghz(8)
        assert c.num_2q_gates == 7

    def test_qft_gate_count(self):
        c = qft(5)
        assert sum(1 for g in c.gates if g.name == "cp") == 10
        assert sum(1 for g in c.gates if g.name == "swap") == 2

    def test_adder_even_required(self):
        with pytest.raises(ValueError):
            ripple_carry_adder(7)

    def test_adder_structure(self):
        from repro.circuits.decompose import lower_to_two_qubit

        c = ripple_carry_adder(10)
        assert c.num_qubits == 10
        # Table II counts 65 2Q gates after Toffoli decomposition:
        # 17 native CX + 8 CCX x 6 CX each
        assert lower_to_two_qubit(c).num_2q_gates == 65

    def test_mermin_bell_structure(self):
        c = mermin_bell(10)
        assert 55 <= c.num_2q_gates <= 75  # Table II: 67
        assert c.degree_per_qubit() >= 7  # Table II: 7.6

    def test_vqe_chain(self):
        c = vqe_ansatz(10)
        assert c.num_2q_gates == 9  # Table II: 9

    def test_hhl_scale(self):
        c = hhl_like(7)
        assert 100 <= c.num_2q_gates <= 250  # Table II: 196

    def test_phase_code_structure(self):
        c = phase_code(9, rounds=1)
        # 4 ancillas x 2 CX each
        assert c.num_2q_gates == 8

    def test_phase_code_rounds_scale(self):
        assert phase_code(9, rounds=2).num_2q_gates == 16


class TestSuites:
    def test_main_suite_names_unique(self):
        names = [s.name for s in main_suite()]
        assert len(set(names)) == len(names) == 17

    def test_small_suite_solver_feasible(self):
        for spec in small_suite():
            assert spec.build().num_qubits <= 20

    def test_build_sets_name(self):
        spec = main_suite()[0]
        assert spec.build().name == spec.name

    def test_find(self):
        assert find("bv-50").name == "BV-50"
        with pytest.raises(KeyError):
            find("nonexistent")

    def test_categories_valid(self):
        for spec in main_suite() + small_suite():
            assert spec.category in ("Generic", "QSim", "QAOA")

    def test_all_buildable(self):
        for spec in main_suite() + small_suite():
            c = spec.build()
            assert c.num_qubits >= 2
            assert len(c) > 0
