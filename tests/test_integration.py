"""Cross-module integration tests: full pipelines on real benchmark circuits,
with assertions on the paper's who-wins structure."""

import pytest

from repro.baselines import (
    compile_on_atomique,
    compile_on_faa,
    compile_on_superconducting,
)
from repro.circuits import DAGCircuit, QuantumCircuit, emit_qasm, parse_qasm
from repro.core import AtomiqueCompiler, AtomiqueConfig
from repro.experiments import raa_for
from repro.generators import (
    bernstein_vazirani,
    h2_circuit,
    qaoa_regular,
    qsim_random,
)
from repro.hardware import RAAArchitecture
from repro.noise import estimate_raa_fidelity


class TestWhoWins:
    """Paper's headline ordering on representative workloads."""

    @pytest.fixture(scope="class")
    def qaoa_results(self):
        circ = qaoa_regular(40, 5, seed=40)
        return {
            "atomique": compile_on_atomique(circ, raa_for(circ)),
            "rect": compile_on_faa(circ, "rectangular"),
            "tri": compile_on_faa(circ, "triangular"),
            "sc": compile_on_superconducting(circ),
        }

    def test_atomique_fewest_2q_gates(self, qaoa_results):
        r = qaoa_results
        assert r["atomique"].num_2q_gates < r["rect"].num_2q_gates
        assert r["atomique"].num_2q_gates < r["tri"].num_2q_gates
        assert r["atomique"].num_2q_gates < r["sc"].num_2q_gates

    def test_atomique_best_fidelity(self, qaoa_results):
        r = qaoa_results
        best_baseline = max(
            r["rect"].total_fidelity,
            r["tri"].total_fidelity,
            r["sc"].total_fidelity,
        )
        assert r["atomique"].total_fidelity > best_baseline

    def test_superconducting_worst_fidelity(self, qaoa_results):
        r = qaoa_results
        assert r["sc"].total_fidelity == min(
            m.total_fidelity for m in r.values()
        )

    def test_triangular_beats_rectangular(self, qaoa_results):
        r = qaoa_results
        assert r["tri"].num_2q_gates <= r["rect"].num_2q_gates

    def test_small_local_circuit_near_parity(self):
        """Paper: 'In simpler circuits, such as H2 simulations, different
        architectures perform comparably.'"""
        circ = h2_circuit()
        atom = compile_on_atomique(circ, RAAArchitecture.default(side=4))
        tri = compile_on_faa(circ, "triangular")
        assert atom.total_fidelity > 0.5 * tri.total_fidelity


class TestEndToEndArtifacts:
    def test_qasm_in_program_out(self):
        qasm = emit_qasm(qaoa_regular(12, 3, seed=9))
        circ = parse_qasm(qasm)
        res = AtomiqueCompiler(RAAArchitecture.default(side=4)).compile(circ)
        assert res.program.num_2q_gates >= 18

    def test_bv_near_zero_swaps(self):
        """BV's star interaction graph cuts perfectly across arrays."""
        circ = bernstein_vazirani(50)
        res = AtomiqueCompiler(RAAArchitecture.default()).compile(circ)
        assert res.num_swaps <= 2

    def test_every_stage_obeys_toggles(self):
        """Replay every compiled stage through the from-scratch oracle, with
        all constraints enforced and with each one relaxed in turn."""
        from repro.core.constraints import ConstraintToggles
        from repro.core.router import RouterConfig
        from tests.stage_plan_oracle import Rules, stage_violation

        circ = qsim_random(20, seed=20)
        arch = RAAArchitecture.default()
        for toggles in (
            ConstraintToggles(),
            ConstraintToggles(no_unintended_interaction=False),
            ConstraintToggles(preserve_order=False),
            ConstraintToggles(no_overlap=False),
        ):
            cfg = AtomiqueConfig(router=RouterConfig(toggles=toggles))
            res = AtomiqueCompiler(arch, cfg).compile(circ)
            rules = Rules(arch, res.locations, toggles)
            for stage in res.program.stages:
                gates = [(g.qubit_a, g.qubit_b, g.site) for g in stage.gates]
                assert stage_violation(rules, gates) is None, (toggles, gates)

    def test_fidelity_model_consistent_with_metrics(self):
        circ = qaoa_regular(16, 4, seed=4)
        arch = RAAArchitecture.default(side=5)
        res = AtomiqueCompiler(arch).compile(circ)
        rep = estimate_raa_fidelity(res.program, arch.params)
        # more 2Q gates than f_2q alone would survive is impossible
        assert rep.f_2q <= arch.params.f_2q ** res.num_2q_gates * 1.0001

    def test_multi_aod_reduces_swaps(self):
        circ = qsim_random(30, seed=30)
        one = AtomiqueCompiler(RAAArchitecture.default(num_aods=1)).compile(circ)
        three = AtomiqueCompiler(RAAArchitecture.default(num_aods=3)).compile(circ)
        assert three.num_swaps <= one.num_swaps

    def test_compile_scales_to_100_qubits(self):
        circ = qaoa_regular(100, 4, seed=100)
        res = AtomiqueCompiler(RAAArchitecture.default()).compile(circ)
        assert res.num_2q_gates >= 200
        assert res.compile_seconds < 30.0


class TestProgramReplayFaithfulness:
    """The compiled stage program is a legal execution of the transpiled
    circuit: per-stage disjointness + DAG order, checked end to end."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_qaoa(self, seed):
        circ = qaoa_regular(20, 4, seed=seed)
        res = AtomiqueCompiler(RAAArchitecture.default(side=5)).compile(circ)
        dag = DAGCircuit(res.transpiled)
        for stage in res.program.stages:
            busy: set[int] = set()
            for pulse in stage.one_qubit_gates:
                match = next(
                    (
                        i
                        for i, g in dag.front_gates()
                        if g.is_one_qubit and g.qubits == (pulse.qubit,)
                    ),
                    None,
                )
                assert match is not None
                dag.execute(match)
            for gate in stage.gates:
                assert not {gate.qubit_a, gate.qubit_b} & busy
                busy |= {gate.qubit_a, gate.qubit_b}
                match = next(
                    (
                        i
                        for i, g in dag.front_gates()
                        if g.is_two_qubit
                        and set(g.qubits) == {gate.qubit_a, gate.qubit_b}
                    ),
                    None,
                )
                assert match is not None
                dag.execute(match)
        assert dag.done
