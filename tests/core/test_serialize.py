"""Round-trip tests for RAA program serialization."""

import pytest

from repro.core import AtomiqueCompiler
from repro.core.serialize import dumps, loads, program_from_dict, program_to_dict
from repro.generators import qaoa_regular
from repro.hardware import RAAArchitecture
from repro.noise import estimate_raa_fidelity


@pytest.fixture(scope="module")
def compiled():
    circ = qaoa_regular(12, 3, seed=4)
    arch = RAAArchitecture.default(side=4)
    return AtomiqueCompiler(arch).compile(circ), arch


class TestRoundTrip:
    def test_json_roundtrip_preserves_counts(self, compiled):
        res, _ = compiled
        restored = loads(dumps(res.program))
        assert restored.num_2q_gates == res.program.num_2q_gates
        assert restored.num_1q_gates == res.program.num_1q_gates
        assert restored.two_qubit_depth == res.program.two_qubit_depth
        assert restored.num_moves == res.program.num_moves

    def test_roundtrip_preserves_fidelity(self, compiled):
        res, arch = compiled
        original = estimate_raa_fidelity(res.program, arch.params)
        restored = estimate_raa_fidelity(loads(dumps(res.program)), arch.params)
        assert restored.total == pytest.approx(original.total)
        assert restored.breakdown() == pytest.approx(original.breakdown())

    def test_roundtrip_preserves_locations(self, compiled):
        res, _ = compiled
        restored = loads(dumps(res.program))
        assert restored.qubit_locations == res.program.qubit_locations

    def test_roundtrip_preserves_gate_semantics(self, compiled):
        res, _ = compiled
        from repro.sim import program_to_circuit

        a = program_to_circuit(res.program)
        b = program_to_circuit(loads(dumps(res.program)))
        assert a == b

    def test_version_checked(self, compiled):
        res, _ = compiled
        doc = program_to_dict(res.program)
        # 1 is the retired stage-list format: rejected like any unknown one
        for version in (1, 99):
            doc["format_version"] = version
            with pytest.raises(ValueError, match="unsupported program format"):
                program_from_dict(doc)

    def test_dumps_is_valid_json(self, compiled):
        import json

        res, _ = compiled
        json.loads(dumps(res.program, indent=2))
