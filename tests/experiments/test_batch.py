"""Tests for the parallel batch compilation driver."""

import pytest

import repro.experiments.batch as batch_mod
from repro.baselines.registry import CompileOptions
from repro.experiments import run_main_comparison
from repro.experiments.batch import CompileJob, ResultCache, compile_many
from repro.generators import qaoa_regular, qsim_random
from repro.generators.suite import BenchmarkSpec


def fig13_style_jobs(seed=7):
    """A small (benchmark x architecture) job list like fig13 builds."""
    circuits = [qaoa_regular(8, 3, seed=1), qsim_random(8, seed=2)]
    return [
        CompileJob(arch, circ, CompileOptions(seed=seed))
        for circ in circuits
        for arch in ["FAA-Rectangular", "Superconducting", "Atomique"]
    ]


def stable_row(m):
    """The deterministic part of a metrics record (drop wall-clock)."""
    row = m.row()
    row.pop("compile_s")
    return row


class TestDeterminism:
    def test_serial_matches_parallel(self):
        jobs = fig13_style_jobs()
        serial = compile_many(jobs, workers=1)
        parallel = compile_many(jobs, workers=4)
        assert [stable_row(m) for m in serial] == [
            stable_row(m) for m in parallel
        ]

    def test_results_in_job_order(self):
        jobs = fig13_style_jobs()
        results = compile_many(jobs, workers=4)
        assert [m.architecture for m in results] == [j.backend for j in jobs]
        assert [m.benchmark for m in results] == [j.circuit.name for j in jobs]

    def test_run_main_comparison_workers_identical(self):
        specs = [
            BenchmarkSpec(
                "QAOA-regu3-8", "QAOA", lambda: qaoa_regular(8, 3, seed=1)
            )
        ]
        serial = run_main_comparison(specs, workers=1)
        parallel = run_main_comparison(specs, workers=2)
        for arch in serial:
            assert [stable_row(m) for m in serial[arch]] == [
                stable_row(m) for m in parallel[arch]
            ]


class TestNewOptionFields:
    def test_key_varies_with_label_and_extra(self):
        circ = qaoa_regular(8, 3, seed=1)
        base = CompileJob("Atomique", circ, CompileOptions())
        labeled = CompileJob("Atomique", circ, CompileOptions(label="Relax C3"))
        extra = CompileJob(
            "Atomique", circ, CompileOptions(extra=(("knob", 3),))
        )
        assert base.cache_key() != labeled.cache_key()
        assert base.cache_key() != extra.cache_key()
        assert labeled.cache_key() != extra.cache_key()

    def test_pipeline_cache_excluded_from_key_and_eq(self):
        from repro.core import PipelineCache

        circ = qaoa_regular(8, 3, seed=1)
        bare = CompileJob("Atomique", circ, CompileOptions())
        cached = CompileJob(
            "Atomique", circ, CompileOptions(pipeline_cache=PipelineCache())
        )
        assert bare.cache_key() == cached.cache_key()
        assert bare.options == cached.options

    def test_workers_strip_pipeline_cache(self):
        """Jobs carrying an in-process cache still run on a process pool."""
        from repro.core import PipelineCache

        shared = PipelineCache()
        circuits = [qaoa_regular(8, 3, seed=1), qsim_random(8, seed=2)]
        jobs = [
            CompileJob("Atomique", c, CompileOptions(pipeline_cache=shared))
            for c in circuits
        ]
        serial = compile_many(jobs, workers=1)
        parallel = compile_many(jobs, workers=2)
        assert [stable_row(m) for m in serial] == [
            stable_row(m) for m in parallel
        ]


class TestCacheKeys:
    def test_key_is_stable(self):
        a, b = fig13_style_jobs()[0], fig13_style_jobs()[0]
        assert a.cache_key() == b.cache_key()

    def test_key_varies_with_seed_and_backend(self):
        circ = qaoa_regular(8, 3, seed=1)
        base = CompileJob("Atomique", circ, CompileOptions(seed=7))
        other_seed = CompileJob("Atomique", circ, CompileOptions(seed=8))
        other_backend = CompileJob("FAA-Rectangular", circ, CompileOptions(seed=7))
        assert base.cache_key() != other_seed.cache_key()
        assert base.cache_key() != other_backend.cache_key()

    def test_key_varies_with_circuit(self):
        opts = CompileOptions(seed=7)
        a = CompileJob("Atomique", qaoa_regular(8, 3, seed=1), opts)
        b = CompileJob("Atomique", qaoa_regular(8, 3, seed=2), opts)
        assert a.cache_key() != b.cache_key()


class TestDiskCache:
    def test_second_run_hits_cache(self, tmp_path, monkeypatch):
        jobs = fig13_style_jobs()
        cache = ResultCache(tmp_path / "cache")
        first = compile_many(jobs, cache=cache)

        def boom(job):
            raise AssertionError("cache miss: job was recompiled")

        monkeypatch.setattr("repro.experiments.batch._run_job", boom)
        second = compile_many(jobs, cache=cache)
        assert [stable_row(m) for m in first] == [stable_row(m) for m in second]

    def test_cache_accepts_path_string(self, tmp_path):
        jobs = fig13_style_jobs()[:1]
        first = compile_many(jobs, cache=str(tmp_path / "c"))
        second = compile_many(jobs, cache=str(tmp_path / "c"))
        assert stable_row(first[0]) == stable_row(second[0])

    def test_corrupt_entry_recompiles(self, tmp_path):
        jobs = fig13_style_jobs()[:1]
        cache = ResultCache(tmp_path)
        compile_many(jobs, cache=cache)
        for entry in tmp_path.glob("*.pkl"):
            entry.write_bytes(b"not a pickle")
        results = compile_many(jobs, cache=cache)
        assert results[0].num_2q_gates > 0

    def test_unsupported_pickle_protocol_recompiles(self, tmp_path):
        # pickle.load raises ValueError (not UnpicklingError) on these bytes
        jobs = fig13_style_jobs()[:1]
        cache = ResultCache(tmp_path)
        first = compile_many(jobs, cache=cache)
        for entry in tmp_path.glob("*.pkl"):
            entry.write_bytes(b"\x80\x09abc")
        results = compile_many(jobs, cache=cache)
        assert stable_row(results[0]) == stable_row(first[0])

    def test_stale_cache_version_recompiles(self, tmp_path, monkeypatch):
        """Entries written under an older CACHE_VERSION must recompile —
        they are keyed away, never loaded."""
        jobs = fig13_style_jobs()[:1]
        cache = ResultCache(tmp_path)
        first = compile_many(jobs, cache=cache)

        calls = {"count": 0}
        real = batch_mod._run_job

        def counting(job):
            calls["count"] += 1
            return real(job)

        monkeypatch.setattr(batch_mod, "_run_job", counting)
        # Same version: served from disk, no recompile.
        compile_many(jobs, cache=cache)
        assert calls["count"] == 0

        monkeypatch.setattr(
            batch_mod, "CACHE_VERSION", batch_mod.CACHE_VERSION + 1
        )
        bumped = compile_many(jobs, cache=cache)
        assert calls["count"] == 1  # stale entry was not deserialized
        assert stable_row(bumped[0]) == stable_row(first[0])


class TestPrefixCacheParam:
    def relaxation_jobs(self):
        """One circuit, two router-toggle configs sharing a SABRE prefix."""
        from repro.core import AtomiqueConfig
        from repro.core.constraints import ConstraintToggles
        from repro.core.router import RouterConfig
        from repro.experiments import raa_for

        circ = qaoa_regular(10, 3, seed=3)
        arch = raa_for(circ)
        configs = [
            AtomiqueConfig(seed=7),
            AtomiqueConfig(
                seed=7,
                router=RouterConfig(toggles=ConstraintToggles(no_overlap=False)),
            ),
        ]
        return [
            CompileJob("Atomique", circ, CompileOptions(raa=arch, config=cfg))
            for cfg in configs
        ]

    @pytest.fixture()
    def sabre_counter(self, monkeypatch):
        import repro.core.pipeline as pipeline_mod

        calls = {"count": 0}
        real = pipeline_mod.sabre_route

        def counting(*args, **kwargs):
            calls["count"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(pipeline_mod, "sabre_route", counting)
        return calls

    def test_serial_in_memory_prefix_cache(self, sabre_counter):
        from repro.core import PipelineCache

        compile_many(self.relaxation_jobs(), prefix_cache=PipelineCache())
        assert sabre_counter["count"] == 1

    def test_directory_prefix_cache_spans_calls(self, tmp_path, sabre_counter):
        """A directory prefix cache shares SABRE across separate
        compile_many invocations (fresh DiskPipelineCache each time)."""
        first = compile_many(
            self.relaxation_jobs(), prefix_cache=tmp_path / "prefix"
        )
        assert sabre_counter["count"] == 1
        second = compile_many(
            self.relaxation_jobs(), prefix_cache=tmp_path / "prefix"
        )
        assert sabre_counter["count"] == 1  # restored from disk
        assert [stable_row(m) for m in first] == [stable_row(m) for m in second]

    def test_workers_share_directory_prefix_cache(self, tmp_path):
        serial = compile_many(self.relaxation_jobs())
        parallel = compile_many(
            self.relaxation_jobs(),
            workers=2,
            prefix_cache=tmp_path / "prefix",
        )
        assert [stable_row(m) for m in serial] == [
            stable_row(m) for m in parallel
        ]
        assert list((tmp_path / "prefix").glob("*.pkl"))  # workers persisted
