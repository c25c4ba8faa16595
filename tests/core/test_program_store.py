"""Columnar ProgramStore: lazy views and column folds against references.

The router emits a :class:`~repro.core.program.ProgramStore`; these tests
pin its lazy views field by field against records rebuilt straight from
its v2 document, pin its column folds against a walk over those views,
round-trip the store through the v2 document, and check the builder API
(``extend``).
"""

import pytest

from repro.core import AtomiqueCompiler, AtomiqueConfig
from repro.core.atom_mapper import map_qubits_to_atoms
from repro.core.program import ProgramStore
from repro.core.router import HighParallelismRouter, RouterConfig
from repro.core.serialize import (
    COLUMNAR_FORMAT_VERSION,
    dumps,
    loads,
    program_to_dict,
)
from repro.generators import qaoa_random, qaoa_regular, qsim_random
from repro.hardware import RAAArchitecture
from tests.program_doc_oracle import doc_stage_records
from tests.program_walk_oracle import (
    store_aggregates,
    walk_aggregates,
    walk_duration,
)


def compiled_store(circuit, side=4):
    arch = RAAArchitecture.default(side=side, num_aods=2)
    result = AtomiqueCompiler(arch, AtomiqueConfig(seed=7)).compile(circuit)
    return result.program, arch


CORPUS = [
    ("qaoa10", lambda: qaoa_random(10, seed=10)),
    ("qaoa-regu12", lambda: qaoa_regular(12, 3, seed=4)),
    ("qsim10", lambda: qsim_random(10, seed=10)),
]


def assert_stage_equal(view, stage):
    assert view.one_qubit_gates == stage.one_qubit_gates
    assert view.moves == stage.moves
    assert view.gates == stage.gates
    assert view.cooling == stage.cooling
    assert view.atom_move_distance == stage.atom_move_distance
    # dict/iteration order is pinned, not just the mapping
    assert list(view.atom_move_distance) == list(stage.atom_move_distance)


def assert_views_match_document(store):
    records = doc_stage_records(program_to_dict(store))
    assert len(store.stages) == len(records)
    for view, record in zip(store.stages, records):
        assert_stage_equal(view, record)


class TestViewEquality:
    @pytest.mark.parametrize("name,factory", CORPUS)
    def test_views_match_materialized_program(self, name, factory):
        store, _arch = compiled_store(factory())
        assert isinstance(store, ProgramStore)
        assert_views_match_document(store)

    @pytest.mark.parametrize("name,factory", CORPUS)
    def test_headline_metrics_match(self, name, factory):
        store, arch = compiled_store(factory())
        # float folds are bit-identical to the walk (same accumulation
        # order), so plain equality is the right comparison
        assert store_aggregates(store, arch.params) == walk_aggregates(
            store, arch.params
        )

    def test_stage_view_derived_fields(self):
        store, arch = compiled_store(qaoa_random(10, seed=10))
        for view in store.stages:
            assert view.has_movement == bool(view.moves)
            assert view.max_move_distance_sites == max(
                (m.distance_sites for m in view.moves), default=0.0
            )
            assert view.duration(arch.params) == walk_duration(
                view, arch.params
            )

    def test_stage_indexing(self):
        store, _ = compiled_store(qaoa_random(10, seed=10))
        n = len(store.stages)
        assert store.stages[0].one_qubit_gates == store.stages[-n].one_qubit_gates
        assert len(store.stages[1:3]) == 2
        with pytest.raises(IndexError):
            store.stages[n]


class TestRoundTrip:
    def test_columnar_json_roundtrip_is_exact(self):
        store, _ = compiled_store(qaoa_random(10, seed=10))
        doc = program_to_dict(store)
        assert doc["format_version"] == COLUMNAR_FORMAT_VERSION
        restored = loads(dumps(store))
        assert isinstance(restored, ProgramStore)
        assert restored.gate_n_vib == store.gate_n_vib
        assert restored.atom_loss_log == store.atom_loss_log
        assert restored.move_start == store.move_start
        assert restored.off_gate == store.off_gate
        for view, orig in zip(restored.stages, store.stages):
            assert_stage_equal(view, orig)


class TestBuilder:
    def test_extend_concatenates_stages(self):
        a, _ = compiled_store(qaoa_random(10, seed=10))
        b, _ = compiled_store(qsim_random(10, seed=10))
        combined = ProgramStore(num_qubits=max(a.num_qubits, b.num_qubits))
        combined.extend(a)
        combined.extend(b)
        assert len(combined.stages) == len(a.stages) + len(b.stages)
        assert combined.num_2q_gates == a.num_2q_gates + b.num_2q_gates
        assert combined.num_moves == a.num_moves + b.num_moves
        joined = [*a.stages, *b.stages]
        for view, orig in zip(combined.stages, joined):
            assert_stage_equal(view, orig)

    def test_emit_seconds_recorded(self):
        store, _ = compiled_store(qaoa_random(10, seed=10))
        assert store.emit_seconds > 0.0
        assert store.emit_seconds <= store.compile_seconds


class TestDirectRouting:
    def test_router_emits_store_directly(self):
        # direct routing (no pipeline) also returns the columnar store
        from tests.core.test_router_golden import random_inter_array

        circ, assignment = random_inter_array()
        arch = RAAArchitecture.default(side=6, num_aods=2)
        locs = map_qubits_to_atoms(circ, assignment, arch)
        program = HighParallelismRouter(arch, locs, RouterConfig()).route(circ)
        assert isinstance(program, ProgramStore)
        assert program.num_2q_gates == len(program.gate_pairs())
        assert_views_match_document(program)
