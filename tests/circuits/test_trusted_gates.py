"""Pins :meth:`Gate.trusted` to ``Gate(...)``: every gate the compiler
builds without validation must be the gate validation would have built,
field types included (``str`` name, ``int`` qubits, ``float`` params)."""

import sys

import pytest

from repro.circuits.decompose import lower_to_basis
from repro.circuits.gates import Gate
from repro.core import AtomiqueCompiler, AtomiqueConfig
from repro.core.atom_mapper import map_qubits_to_atoms
from repro.core.router import HighParallelismRouter
from repro.generators import qaoa_random, qsim_random
from repro.hardware import RAAArchitecture
from repro.sim import program_to_circuit
from tests.core.test_router_golden import random_inter_array


@pytest.fixture()
def trusted_gates(monkeypatch):
    """Every gate built through ``Gate.trusted`` while the test runs,
    including through module-level aliases of it."""
    built = []
    real = Gate.trusted

    def spy(name, qubits, params=()):
        gate = real(name, qubits, params)
        built.append(gate)
        return gate

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro."):
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, spy)
    monkeypatch.setattr(Gate, "trusted", staticmethod(spy))
    return built


def assert_as_validated(built):
    assert built
    for g in built:
        assert g == Gate(g.name, g.qubits, g.params)
        assert type(g.name) is str
        assert type(g.qubits) is tuple and type(g.params) is tuple
        assert all(type(q) is int for q in g.qubits), g
        assert all(type(p) is float for p in g.params), g


@pytest.mark.parametrize(
    "factory",
    [lambda: qaoa_random(10, seed=10), lambda: qsim_random(10, seed=10)],
    ids=["qaoa10", "qsim10"],
)
def test_golden_corpus_compiles_build_validated_gates(trusted_gates, factory):
    circuit = factory()
    arch = RAAArchitecture.default(side=4, num_aods=2)
    res = AtomiqueCompiler(arch, AtomiqueConfig(seed=7)).compile(circuit)
    program_to_circuit(res.program)
    lower_to_basis(circuit, basis_2q="cz")
    assert_as_validated(trusted_gates)


def test_direct_routing_corpus_replays_validated_gates(trusted_gates):
    circ, assignment = random_inter_array()
    arch = RAAArchitecture.default(side=6, num_aods=2)
    locs = map_qubits_to_atoms(circ, assignment, arch)
    program_to_circuit(HighParallelismRouter(arch, locs).route(circ))
    assert_as_validated(trusted_gates)
