"""Spill-to-disk ProgramStore: a compile that flushes closed stage
ranges to a segment file must be observationally identical — bit-exact
aggregates, serialization, and chunk streams — to the dense in-memory
store the router builds by default."""

import dataclasses
import json

import pytest

from repro.circuits.random_circuits import random_circuit
from repro.core import AtomiqueCompiler, AtomiqueConfig
from repro.core.program import (
    DEFAULT_SEGMENT_STAGES,
    SPILL_ENV,
    SPILL_STAGES_ENV,
    ProgramStore,
    SpillingProgramStore,
    emission_store,
)
from repro.core.serialize import program_to_dict, store_from_header
from repro.hardware import RAAArchitecture
from repro.noise import estimate_raa_fidelity
from repro.sim import program_to_circuit
from repro.sim.noisy import _stage_events
from tests.program_doc_oracle import (
    iter_program_doc_chunks,
    program_doc_header,
    program_doc_stages,
)

#: wall-clock fields: naturally different between two separate compiles
TIMING_FIELDS = {"compile_seconds", "emit_seconds", "probe_seconds"}
#: the column and offset-table fields (everything stage-segmented)
_COLUMN_ATTRS = [
    f.name for f in dataclasses.fields(ProgramStore)
    if f.name.startswith(("raman_", "move_", "gate_", "cool_", "amd_", "off_"))
]


def compile_store(circuit):
    arch = RAAArchitecture.default(side=4)
    return AtomiqueCompiler(arch, AtomiqueConfig(seed=7)).compile(
        circuit
    ).program


@pytest.fixture(scope="module")
def circuit():
    return random_circuit(14, 12, 3, seed=11)


@pytest.fixture(scope="module")
def dense(circuit):
    return compile_store(circuit)


@pytest.fixture()
def spilled(circuit, tmp_path, monkeypatch):
    monkeypatch.setenv(SPILL_ENV, str(tmp_path))
    monkeypatch.setenv(SPILL_STAGES_ENV, "8")
    store = compile_store(circuit)
    assert isinstance(store, SpillingProgramStore)
    assert store.num_stages > len(store.off_gate) - 1, (
        "test circuit too small to spill"
    )
    return store


class TestEmissionStoreFactory:
    def test_default_is_the_dense_store(self, monkeypatch):
        monkeypatch.delenv(SPILL_ENV, raising=False)
        store = emission_store(4)
        assert type(store) is ProgramStore

    def test_env_opts_into_spilling(self, tmp_path, monkeypatch):
        monkeypatch.setenv(SPILL_ENV, str(tmp_path))
        store = emission_store(4)
        assert isinstance(store, SpillingProgramStore)
        assert store.segment_stages == DEFAULT_SEGMENT_STAGES
        monkeypatch.setenv(SPILL_STAGES_ENV, "32")
        assert emission_store(4).segment_stages == 32


class TestSpillBitIdentity:
    def test_every_field_matches_the_dense_store(self, dense, spilled):
        collected = spilled.collect()
        for field in dataclasses.fields(ProgramStore):
            if field.name in TIMING_FIELDS:
                continue
            assert getattr(collected, field.name) == getattr(
                dense, field.name
            ), f"field {field.name} differs after spill round trip"

    def test_aggregates_match_without_collecting(self, dense, spilled,
                                                 monkeypatch):
        # The spilling store answers every aggregate the analysis layer
        # reads by folding over its segments: flush-time counts and
        # seek-read columns, never a densified copy.
        def no_collect():
            raise AssertionError("aggregate densified the spilled store")

        monkeypatch.setattr(spilled, "collect", no_collect)
        for name in (
            "num_stages",
            "num_2q_gates",
            "num_1q_gates",
            "num_cooling_cz",
            "num_cooling_events",
            "num_moves",
            "num_moving_stages",
            "num_1q_stages",
            "two_qubit_depth",
        ):
            assert getattr(spilled, name) == getattr(dense, name), name
        # float reductions replay segments in dense accumulation order,
        # so they are bit-exact, not merely close
        params = RAAArchitecture.default(side=4).params
        assert spilled.execution_time(params) == dense.execution_time(params)
        assert spilled.total_move_distance(params) == dense.total_move_distance(
            params
        )
        assert spilled.avg_move_distance(params) == dense.avg_move_distance(
            params
        )
        assert spilled.gate_pairs() == dense.gate_pairs()
        # what fidelity reads: one array per segment, in gate order
        chunks = list(spilled.gate_n_vib_arrays())
        assert len(chunks) > 1
        assert [v for c in chunks for v in c.tolist()] == dense.gate_n_vib

    def test_consumers_match_the_dense_store(self, dense, spilled):
        # noisy simulation, replay and fidelity read every segment, not
        # just the in-memory tail
        params = RAAArchitecture.default(side=4).params
        assert _stage_events(spilled, params) == _stage_events(dense, params)
        assert program_to_circuit(spilled) == program_to_circuit(dense)
        assert estimate_raa_fidelity(spilled, params) == estimate_raa_fidelity(
            dense, params
        )

    def test_serialized_docs_identical(self, dense, spilled):
        doc_a = program_to_dict(dense)
        doc_b = program_to_dict(spilled)
        for doc in (doc_a, doc_b):
            for field in TIMING_FIELDS:
                doc.pop(field, None)
        assert json.dumps(doc_a, sort_keys=True) == json.dumps(
            doc_b, sort_keys=True
        )

    def test_segment_file_holds_the_flushed_stages(self, spilled):
        docs = list(spilled.iter_segment_docs())
        assert len(docs) > 1
        assert sum(d["stages"] for d in docs) == spilled.num_stages
        # in-memory tail stays bounded by the segment size
        assert len(spilled.off_gate) - 1 <= spilled.segment_stages

    def test_discard_removes_the_segment_file(self, circuit, tmp_path,
                                              monkeypatch):
        monkeypatch.setenv(SPILL_ENV, str(tmp_path))
        monkeypatch.setenv(SPILL_STAGES_ENV, "8")
        from pathlib import Path

        store = compile_store(circuit)
        assert store.segment_path is not None
        path = Path(store.segment_path)
        assert path.exists()
        store.discard()
        assert not path.exists()


class TestExtend:
    def test_extend_consumes_flushed_segments(self, dense, spilled):
        # Regression: extend used to copy only the in-memory tail of a
        # spilling store, silently dropping every flushed stage.
        combined = ProgramStore(num_qubits=spilled.num_qubits)
        combined.extend(spilled)
        for name in _COLUMN_ATTRS:
            assert getattr(combined, name) == getattr(dense, name), name
        assert combined.num_stages == dense.num_stages

    def test_collect_is_identity_for_a_dense_store(self, dense):
        assert dense.collect() is dense


class TestChunkStream:
    def test_chunks_reassemble_bit_exact(self, dense):
        doc = program_to_dict(dense)
        header = program_doc_header(doc)
        rebuilt = store_from_header(header)
        for chunk in iter_program_doc_chunks(doc, 7):
            rebuilt.extend_from_chunk(chunk)
        for field in dataclasses.fields(ProgramStore):
            if field.name in TIMING_FIELDS:
                continue
            assert getattr(rebuilt, field.name) == getattr(
                dense, field.name
            ), f"field {field.name} differs after chunk reassembly"

    def test_chunk_stage_counts_cover_the_program(self, dense):
        doc = program_to_dict(dense)
        total = program_doc_stages(doc)
        chunks = list(iter_program_doc_chunks(doc, 7))
        assert sum(c["stages"] for c in chunks) == total
        assert all(1 <= c["stages"] <= 7 for c in chunks)

    def test_store_chunk_doc_bounds_checked(self, dense):
        with pytest.raises(ValueError):
            dense.chunk_doc(-1, 2)
        with pytest.raises(ValueError):
            dense.chunk_doc(5, 2)
        with pytest.raises(ValueError):
            dense.chunk_doc(0, dense.num_stages + 1)

    def test_spilled_segments_equal_dense_chunks(self, dense, spilled):
        # iter_segment_docs streams the same stage ranges the dense store
        # would produce for the same segmentation.
        segment_stages = spilled.segment_stages
        dense_doc = program_to_dict(dense)
        expected = list(iter_program_doc_chunks(dense_doc, segment_stages))
        got = list(spilled.iter_segment_docs())
        assert json.dumps(got, sort_keys=True) == json.dumps(
            expected, sort_keys=True
        )
