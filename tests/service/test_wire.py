"""Wire-codec round trips: a job or result crossing the JSON boundary must
come back bit-identical (the service's differential guarantees build on
this)."""

import json

import pytest
from hypothesis import given, settings

from repro.baselines.registry import CompileOptions
from repro.core.compiler import AtomiqueConfig
from repro.core.constraints import ConstraintToggles
from repro.core.router import RouterConfig
from repro.experiments.batch import CompileJob
from repro.experiments import compile_on
from repro.generators import qaoa_regular
from repro.hardware import ArrayShape, RAAArchitecture
from repro.hardware.parameters import scaled_neutral_atom_params
from repro.service import wire
from repro.service.wire import WireError
from tests.strategies import circuits


def json_round_trip(payload):
    """Force the payload through real JSON text, as the socket does."""
    return json.loads(json.dumps(payload))


class TestCircuitCodec:
    @settings(max_examples=25, deadline=None)
    @given(circuits())
    def test_round_trip_bit_identical(self, circ):
        decoded = wire.decode_circuit(json_round_trip(wire.encode_circuit(circ)))
        assert decoded == circ  # Gate tuples compare exactly, floats included
        assert decoded.name == circ.name

    def test_bad_payload_raises(self):
        with pytest.raises(WireError):
            wire.decode_circuit({"gates": []})

    @pytest.mark.parametrize(
        "gate",
        [[1, [0], []], ["cz", [0, "2"], []], ["h", [1.5], []]],
        ids=["int-name", "str-qubit", "float-qubit"],
    )
    def test_malformed_gate_raises(self, gate):
        with pytest.raises(WireError, match="bad circuit payload"):
            wire.decode_circuit({"num_qubits": 3, "gates": [gate]})
        with pytest.raises(WireError, match="bad circuit payload"):
            wire.decode_job(
                {"backend": "Atomique", "circuit": {"num_qubits": 3, "gates": [gate]}}
            )


class TestOptionsCodec:
    def full_options(self):
        return CompileOptions(
            raa=RAAArchitecture(
                slm_shape=ArrayShape(4, 6),
                aod_shapes=[ArrayShape(4, 6), ArrayShape(3, 3)],
                params=scaled_neutral_atom_params().with_overrides(t1=3.5),
            ),
            config=AtomiqueConfig(
                gamma=0.9,
                array_mapper="dense",
                atom_mapper="random",
                router=RouterConfig(
                    toggles=ConstraintToggles(no_overlap=False),
                    serial=True,
                    cooling_threshold=12.0,
                ),
                seed=3,
            ),
            seed=3,
            label="Relax C3",
            extra=(("solver_qubit_limit", 12), ("qsim_strings", ("XXI", "IZZ"))),
        )

    def test_round_trip_is_lossless(self):
        options = self.full_options()
        decoded = wire.decode_options(json_round_trip(wire.encode_options(options)))
        assert decoded == options  # frozen dataclass equality, field by field

    def test_defaults_round_trip(self):
        options = CompileOptions()
        assert wire.decode_options(json_round_trip(wire.encode_options(options))) == options

    def test_extra_tuples_stay_hashable(self):
        decoded = wire.decode_options(
            json_round_trip(wire.encode_options(self.full_options()))
        )
        hash(decoded.extra)  # lists would raise


class TestJobCodec:
    def test_round_trip(self):
        circ = qaoa_regular(8, 3, seed=1)
        job = CompileJob("Atomique", circ, CompileOptions(seed=9))
        decoded = wire.decode_job(json_round_trip(wire.encode_job(job)))
        assert decoded == job
        assert decoded.cache_key() == job.cache_key()

    def test_missing_backend_raises(self):
        with pytest.raises(WireError):
            wire.decode_job({"circuit": {"num_qubits": 2, "gates": []}})

    def test_non_dict_raises(self):
        with pytest.raises(WireError):
            wire.decode_job(["not", "a", "job"])


class TestMetricsCodec:
    def test_round_trip_bit_identical(self):
        metrics = compile_on("Atomique", qaoa_regular(8, 3, seed=1))
        decoded = wire.decode_metrics(json_round_trip(wire.encode_metrics(metrics)))
        assert decoded == metrics  # dataclass equality: every float exact

    def test_container_extras_come_back_frozen(self):
        # Regression: decode_metrics used to copy extras values straight
        # from the JSON payload, so a tuple-valued extra came back as a
        # mutable (unhashable) list and broke downstream cache keys.
        metrics = compile_on("Atomique", qaoa_regular(8, 3, seed=1))
        metrics.extras["shape"] = (4, 6)
        metrics.extras["depths"] = ((1, 2), (3, 4))
        decoded = wire.decode_metrics(json_round_trip(wire.encode_metrics(metrics)))
        assert decoded.extras["shape"] == (4, 6)
        assert isinstance(decoded.extras["shape"], tuple)
        hash(decoded.extras["shape"])  # a list would raise
        assert decoded.extras["depths"] == ((1, 2), (3, 4))
        assert isinstance(decoded.extras["depths"][0], tuple)


class TestConfigCodec:
    def test_integer_cooling_threshold_comes_back_float(self):
        # Regression: a JSON round trip preserves int-ness, so a config
        # built with cooling_threshold=12 used to decode with an int in a
        # float field — breaking frozen-dataclass equality against the
        # original and any cache key derived from it.
        config = AtomiqueConfig(
            router=RouterConfig(cooling_threshold=12), seed=3
        )
        decoded = wire.decode_config(json_round_trip(wire.encode_config(config)))
        assert isinstance(decoded.router.cooling_threshold, float)
        assert decoded.router.cooling_threshold == 12.0

    def test_none_cooling_threshold_survives(self):
        config = AtomiqueConfig(
            router=RouterConfig(cooling_threshold=None), seed=3
        )
        decoded = wire.decode_config(json_round_trip(wire.encode_config(config)))
        assert decoded.router.cooling_threshold is None
