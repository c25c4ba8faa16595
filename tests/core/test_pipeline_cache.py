"""Tests for the pipeline prefix-reuse cache (:class:`PipelineCache`).

The headline property: a Fig. 22-style sweep that varies only router
toggles compiles SABRE *once* per circuit, and every cached compile is
bit-identical to an uncached one.
"""

import pickle

import pytest

import repro.core.pipeline as pipeline_mod
from repro.core import (
    AtomiqueCompiler,
    AtomiqueConfig,
    DiskPipelineCache,
    PipelineCache,
)
from repro.core.constraints import ConstraintToggles
from repro.core.router import RouterConfig
from repro.experiments import raa_for
from repro.generators import qaoa_random


def _program_fingerprint(result):
    return (
        result.num_swaps,
        result.final_layout,
        len(result.program.stages),
        [len(s.gates) for s in result.program.stages],
        [
            (g.qubit_a, g.qubit_b, g.site)
            for s in result.program.stages
            for g in s.gates
        ],
        result.program.atom_loss_log,
    )


@pytest.fixture()
def circuit():
    return qaoa_random(12, seed=12)


@pytest.fixture()
def sabre_counter(monkeypatch):
    calls = {"count": 0}
    real = pipeline_mod.sabre_route

    def counting(*args, **kwargs):
        calls["count"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline_mod, "sabre_route", counting)
    return calls


class TestPrefixReuse:
    def test_two_router_configs_compile_sabre_once(self, circuit, sabre_counter):
        """The acceptance-criterion scenario: a two-config relaxation sweep."""
        arch = raa_for(circuit)
        cache = PipelineCache()
        configs = [
            AtomiqueConfig(seed=7),
            AtomiqueConfig(
                seed=7,
                router=RouterConfig(
                    toggles=ConstraintToggles(no_overlap=False)
                ),
            ),
        ]
        results = [
            AtomiqueCompiler(arch, cfg, cache=cache).compile(circuit)
            for cfg in configs
        ]
        assert sabre_counter["count"] == 1
        assert cache.hits.get("sabre_swap") == 1
        assert cache.misses.get("sabre_swap") == 1
        # The relaxed config still routed differently downstream.
        assert results[0].num_swaps == results[1].num_swaps

    def test_fig22_sweep_compiles_sabre_once_per_circuit(self, sabre_counter):
        from repro.experiments import run_constraint_relaxation

        circ = qaoa_random(10, seed=10)
        points = run_constraint_relaxation(benchmarks=[circ])
        assert len(points) == 4
        assert sabre_counter["count"] == 1

    def test_cached_result_bit_identical(self, circuit):
        arch = raa_for(circuit)
        cache = PipelineCache()
        cfg = AtomiqueConfig(seed=7)
        uncached = AtomiqueCompiler(arch, cfg).compile(circuit)
        first = AtomiqueCompiler(arch, cfg, cache=cache).compile(circuit)
        second = AtomiqueCompiler(arch, cfg, cache=cache).compile(circuit)
        assert _program_fingerprint(first) == _program_fingerprint(uncached)
        assert _program_fingerprint(second) == _program_fingerprint(uncached)
        assert cache.hits.get("sabre_swap") == 1

    def test_different_seed_misses(self, circuit, sabre_counter):
        arch = raa_for(circuit)
        cache = PipelineCache()
        for seed in (7, 8):
            AtomiqueCompiler(
                arch, AtomiqueConfig(seed=seed), cache=cache
            ).compile(circuit)
        assert sabre_counter["count"] == 2
        assert cache.hits.get("sabre_swap") is None

    def test_different_circuit_misses(self, sabre_counter):
        cache = PipelineCache()
        a = qaoa_random(10, seed=10)
        b = qaoa_random(10, seed=11)
        arch = raa_for(a)
        for circ in (a, b):
            AtomiqueCompiler(arch, AtomiqueConfig(seed=7), cache=cache).compile(
                circ
            )
        assert sabre_counter["count"] == 2

    def test_array_mapper_strategy_in_key(self, circuit, sabre_counter):
        """A different array mapping invalidates the SABRE prefix."""
        arch = raa_for(circuit)
        cache = PipelineCache()
        for strategy in ("maxkcut", "dense"):
            AtomiqueCompiler(
                arch,
                AtomiqueConfig(seed=7, array_mapper=strategy),
                cache=cache,
            ).compile(circuit)
        assert sabre_counter["count"] == 2
        assert cache.hits.get("lower") == 1  # circuit-only prefix still shared


class TestDiskPipelineCache:
    """The disk-backed variant: cross-run reuse, corruption recovery, and
    version gating (stale entries recompile, never deserialize)."""

    def compile_with(self, circuit, directory):
        """One compile through a *fresh* DiskPipelineCache over *directory*
        (fresh instance = empty in-memory layer, like a new process)."""
        cache = DiskPipelineCache(directory)
        result = AtomiqueCompiler(
            raa_for(circuit), AtomiqueConfig(seed=7), cache=cache
        ).compile(circuit)
        return result, cache

    def test_fresh_instance_restores_from_disk(self, circuit, sabre_counter, tmp_path):
        first, cache1 = self.compile_with(circuit, tmp_path)
        assert sabre_counter["count"] == 1
        assert cache1.disk_misses.get("sabre_swap") == 1

        second, cache2 = self.compile_with(circuit, tmp_path)
        assert sabre_counter["count"] == 1  # no recompute
        assert cache2.disk_hits.get("sabre_swap") == 1
        assert _program_fingerprint(second) == _program_fingerprint(first)

    def test_in_memory_layer_still_works(self, circuit, tmp_path):
        cache = DiskPipelineCache(tmp_path)
        compiler = AtomiqueCompiler(
            raa_for(circuit), AtomiqueConfig(seed=7), cache=cache
        )
        compiler.compile(circuit)
        compiler.compile(circuit)
        # Second compile hit memory, not disk.
        assert cache.hits.get("sabre_swap") == 1
        assert cache.disk_hits.get("sabre_swap") is None

    def test_corrupt_entries_recompile(self, circuit, sabre_counter, tmp_path):
        first, _ = self.compile_with(circuit, tmp_path)
        for entry in tmp_path.glob("*.pkl"):
            entry.write_bytes(b"garbage, not a pickle")
        second, cache = self.compile_with(circuit, tmp_path)
        assert sabre_counter["count"] == 2  # recompiled after corruption
        assert _program_fingerprint(second) == _program_fingerprint(first)

    def test_unsupported_pickle_protocol_recompiles(
        self, circuit, sabre_counter, tmp_path
    ):
        # pickle.load raises ValueError (not UnpicklingError) on these bytes
        first, _ = self.compile_with(circuit, tmp_path)
        for entry in tmp_path.glob("*.pkl"):
            entry.write_bytes(b"\x80\x09abc")
        second, _ = self.compile_with(circuit, tmp_path)
        assert sabre_counter["count"] == 2
        assert _program_fingerprint(second) == _program_fingerprint(first)

    def test_version_bump_recompiles(self, circuit, sabre_counter, tmp_path, monkeypatch):
        first, _ = self.compile_with(circuit, tmp_path)
        assert sabre_counter["count"] == 1
        monkeypatch.setattr(
            pipeline_mod,
            "PIPELINE_CACHE_VERSION",
            pipeline_mod.PIPELINE_CACHE_VERSION + 1,
        )
        second, cache = self.compile_with(circuit, tmp_path)
        # Old entries are keyed away: every pass missed and recompiled.
        assert sabre_counter["count"] == 2
        assert cache.disk_hits.get("sabre_swap") is None
        assert _program_fingerprint(second) == _program_fingerprint(first)

    def test_version_1_entries_are_misses(
        self, circuit, sabre_counter, tmp_path, monkeypatch
    ):
        """Entries written before gates pickled in the slotted layout
        recompile instead of raising."""
        with monkeypatch.context() as patch:
            patch.setattr(pipeline_mod, "PIPELINE_CACHE_VERSION", 1)
            first, _ = self.compile_with(circuit, tmp_path)
        second, cache = self.compile_with(circuit, tmp_path)
        assert sabre_counter["count"] == 2
        assert cache.disk_hits.get("sabre_swap") is None
        assert _program_fingerprint(second) == _program_fingerprint(first)

    def test_version_1_gate_layout_is_a_miss(self, circuit, sabre_counter, tmp_path):
        """A gate pickled as the version-1 frozen dataclass (NEWOBJ plus a
        state dict) no longer loads; an entry holding one is a miss."""
        v1_gate = (
            b"\x8c\x14repro.circuits.gates\x94\x8c\x04Gate\x94\x93\x94)\x81\x94}"
            b"\x94(\x8c\x04name\x94\x8c\x01h\x94\x8c\x06qubits\x94K\x00\x85"
            b"\x94\x8c\x06params\x94)ub"
        )
        self.compile_with(circuit, tmp_path)
        version = pipeline_mod.PIPELINE_CACHE_VERSION
        entry = b"\x80\x04K" + bytes((version,)) + v1_gate + b"\x86."
        with pytest.raises(AttributeError):
            pickle.loads(entry)
        for path in tmp_path.glob("*.pkl"):
            path.write_bytes(entry)
        _, cache = self.compile_with(circuit, tmp_path)
        assert sabre_counter["count"] == 2
        assert cache.disk_hits.get("sabre_swap") is None

    def test_stale_payload_header_is_rejected(self, circuit, sabre_counter, tmp_path):
        """Defense in depth: even an entry sitting at the *current* path
        is refused if its embedded version header disagrees."""
        self.compile_with(circuit, tmp_path)
        for entry in tmp_path.glob("*.pkl"):
            entry.write_bytes(
                pickle.dumps((pipeline_mod.PIPELINE_CACHE_VERSION + 1, "junk"))
            )
        _, cache = self.compile_with(circuit, tmp_path)
        assert sabre_counter["count"] == 2
        assert cache.disk_hits.get("sabre_swap") is None


class TestAblationSharing:
    def test_run_ablation_shares_trailing_prefix(self, sabre_counter):
        """The three maxkcut configs share one SABRE run → 2 runs, not 4."""
        from repro.baselines import run_ablation

        circ = qaoa_random(10, seed=10)
        results = run_ablation(circ, raa_for(circ))
        assert len(results) == 4
        # SABRE's key is (circuit, arch, gamma, array_mapper, seed): the
        # dense baseline gets one run, the three maxkcut configs another.
        assert sabre_counter["count"] == 2
