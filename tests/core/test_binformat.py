"""v3 binary columnar codec: typed column packing must round trip type-
and bit-exactly, agree with the JSON v2 codec document for document, and
hold across empty columns, ragged params, non-finite floats, narrow int
widths, and spill-collected stores."""

import dataclasses
import json
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.random_circuits import random_circuit
from repro.core import AtomiqueCompiler, AtomiqueConfig, binformat
from repro.core.program import (
    SPILL_ENV,
    SPILL_STAGES_ENV,
    ProgramStore,
    SpillingProgramStore,
)
from repro.core.serialize import (
    program_from_dict,
    program_to_dict,
    store_from_header,
    store_header_doc,
)
from repro.hardware import RAAArchitecture
from repro.hardware.raa import AtomLocation
from tests.program_doc_oracle import program_doc_header

#: wall-clock fields: naturally different between two separate compiles
TIMING_FIELDS = {"compile_seconds", "emit_seconds", "probe_seconds"}


def compile_store(circuit):
    arch = RAAArchitecture.default(side=4)
    return AtomiqueCompiler(arch, AtomiqueConfig(seed=7)).compile(
        circuit
    ).program


def scalar_key(v):
    """Type- and bit-exact identity of one column scalar.

    Floats compare by their IEEE bit pattern (NaN payloads and signed
    zeros included), everything else by type + value — stricter than
    ``==`` in exactly the ways a codec can silently cheat."""
    if type(v) is float:
        return ("float", struct.pack("<d", v))
    return (type(v).__name__, v)


def column_key(values):
    return [scalar_key(v) for v in values]


def assert_stores_bit_identical(a, b):
    for field in dataclasses.fields(ProgramStore):
        name = field.name
        if name in TIMING_FIELDS:
            continue
        ca, cb = getattr(a, name), getattr(b, name)
        if isinstance(ca, list):
            if ca and isinstance(ca[0], tuple):  # ragged params
                assert [len(t) for t in ca] == [len(t) for t in cb], name
                assert all(type(t) is tuple for t in cb), name
                ca = [v for t in ca for v in t]
                cb = [v for t in cb for v in t]
            assert column_key(ca) == column_key(cb), name
        else:
            assert ca == cb, name


def canon(store):
    """The serialized v2 columnar document, NaN-tolerant and key-sorted."""
    doc = program_to_dict(store)
    for field in TIMING_FIELDS:
        doc.pop(field, None)
    return json.dumps(doc, sort_keys=True)


# -- hypothesis store generator ------------------------------------------------

f64 = st.floats(allow_nan=True, allow_infinity=True, width=64)
#: spans i8 through i64 so every narrow width gets exercised
any_int = st.one_of(
    st.integers(-5, 5),
    st.integers(-(2**15), 2**15 - 1),
    st.integers(-(2**31), 2**31 - 1),
    st.integers(-(2**60), 2**60),
)
names = st.sampled_from(["rx", "rz", "h", "cz", "u", ""])


@st.composite
def stores(draw):
    store = ProgramStore(num_qubits=draw(st.integers(0, 8)))
    for _ in range(draw(st.integers(0, 5))):
        for _ in range(draw(st.integers(0, 3))):
            store.raman_qubit.append(draw(st.integers(0, 63)))
            store.raman_name.append(draw(names))
            store.raman_params.append(
                tuple(draw(st.lists(f64, max_size=3)))
            )
        for _ in range(draw(st.integers(0, 3))):
            store.move_aod.append(draw(st.integers(0, 3)))
            store.move_axis.append(draw(st.sampled_from(["row", "col"])))
            store.move_index.append(draw(any_int))
            store.move_start.append(draw(f64))
            store.move_end.append(draw(f64))
        for _ in range(draw(st.integers(0, 3))):
            store.gate_a.append(draw(any_int))
            store.gate_b.append(draw(st.integers(0, 63)))
            store.gate_site_r.append(draw(f64))
            store.gate_site_c.append(draw(f64))
            store.gate_n_vib.append(draw(f64))
            store.gate_name.append(draw(names))
            store.gate_params.append(
                tuple(draw(st.lists(f64, max_size=2)))
            )
        for _ in range(draw(st.integers(0, 2))):
            store.cool_aod.append(draw(st.integers(0, 3)))
            store.cool_atoms.append(draw(st.integers(0, 10)))
        for _ in range(draw(st.integers(0, 2))):
            store.amd_qubit.append(draw(st.integers(0, 63)))
            store.amd_dist.append(draw(f64))
        store.end_stage()
    store.atom_loss_log = draw(st.lists(f64, max_size=5))
    store.qubit_locations = {
        q: AtomLocation(
            draw(st.integers(0, 2)),
            draw(st.integers(0, 7)),
            draw(st.integers(0, 7)),
        )
        for q in range(draw(st.integers(0, 3)))
    }
    store.n_vib_final = {
        q: draw(st.floats(0.0, 50.0, allow_nan=False))
        for q in range(draw(st.integers(0, 3)))
    }
    store.num_transfers = draw(st.integers(0, 9))
    store.overlap_rejections = draw(st.integers(0, 9))
    store.compile_seconds = draw(st.floats(0.0, 10.0, allow_nan=False))
    return store


# -- differentials -------------------------------------------------------------


class TestRoundTripDifferential:
    @settings(max_examples=50, deadline=None)
    @given(stores())
    def test_v3_roundtrip_bit_exact(self, store):
        data = binformat.encode_program(store)
        assert binformat.is_binary_record(data)
        assert binformat.record_kind(data) == "program"
        assert_stores_bit_identical(binformat.decode_program(data), store)

    @settings(max_examples=50, deadline=None)
    @given(stores())
    def test_v3_agrees_with_v2_document_for_document(self, store):
        # the ISSUE's differential: a store decoded from v3 bytes and a
        # store decoded from the v2 JSON text must serialize to the
        # byte-identical v2 document
        via_v3 = binformat.decode_program(binformat.encode_program(store))
        via_v2 = program_from_dict(
            json.loads(json.dumps(program_to_dict(store)))
        )
        assert canon(via_v3) == canon(via_v2) == canon(store)

    @settings(max_examples=25, deadline=None)
    @given(stores())
    def test_chunk_roundtrip_is_exact(self, store):
        total = store.num_stages
        if total == 0:
            return
        chunk = store.chunk_doc(0, total)
        back = binformat.decode_chunk(binformat.encode_chunk(chunk))
        assert json.dumps(back, sort_keys=True) == json.dumps(
            chunk, sort_keys=True
        )

    def test_empty_store_roundtrip(self):
        store = ProgramStore()
        assert_stores_bit_identical(
            binformat.decode_program(binformat.encode_program(store)), store
        )


class TestCompiledProgram:
    @pytest.fixture(scope="class")
    def dense(self):
        return compile_store(random_circuit(14, 12, 3, seed=11))

    def test_v2_doc_byte_identical_after_v3_roundtrip(self, dense):
        decoded = binformat.decode_program(binformat.encode_program(dense))
        assert canon(decoded) == canon(dense)
        assert decoded.emit_seconds == dense.emit_seconds

    def test_store_header_doc_matches_the_v2_header(self, dense):
        # the streaming server builds the header from the store; it must
        # equal the v2 document's header key for key, in order
        header = program_doc_header(program_to_dict(dense))
        assert json.dumps(store_header_doc(dense)) == json.dumps(header)

    def test_chunk_records_reassemble_the_program(self, dense):
        doc = program_to_dict(dense)
        rebuilt = store_from_header(program_doc_header(doc))
        for record in binformat.iter_chunk_records(dense, 7):
            assert binformat.record_kind(record) == "chunk"
            rebuilt.extend_from_chunk(binformat.decode_chunk(record))
        assert_stores_bit_identical(rebuilt, dense)

    def test_spilled_store_encodes_the_same_program(self, tmp_path,
                                                    monkeypatch):
        circuit = random_circuit(14, 12, 3, seed=11)
        dense = compile_store(circuit)
        monkeypatch.setenv(SPILL_ENV, str(tmp_path))
        monkeypatch.setenv(SPILL_STAGES_ENV, "8")
        spilled = compile_store(circuit)
        assert isinstance(spilled, SpillingProgramStore)
        assert spilled.num_stages > len(spilled.off_gate) - 1, (
            "circuit too small to spill"
        )
        decoded = binformat.decode_program(
            binformat.encode_program(spilled)
        )
        assert canon(decoded) == canon(dense)

    def test_narrow_int_widths_are_chosen(self, dense):
        meta, payload_off = binformat.parse_record(
            binformat.encode_program(dense)
        )
        codes = {sec["n"]: sec["c"] for sec in meta["sections"]}
        # qubit indices fit a byte on a 14-qubit program
        assert codes["gates.a"] == "i8"
        assert codes["gates.b"] == "i8"
        # every declared byte length matches its width * count
        widths = {"empty": 0, "i8": 1, "i16": 2, "i32": 4, "i64": 8,
                  "f64": 8, "s8": 1, "s16": 2, "s32": 4}
        for sec in meta["sections"]:
            if sec["c"] == "json":
                continue
            assert sec["nb"] == widths[sec["c"]] * sec["len"], sec

    def test_width_escalation_by_value_range(self):
        store = ProgramStore()
        for value in (5, 300, 70_000, 2**40):
            store.gate_a.append(value)
            store.gate_b.append(0)
            store.gate_site_r.append(0.0)
            store.gate_site_c.append(0.0)
            store.gate_n_vib.append(0.0)
            store.gate_name.append("cz")
            store.gate_params.append(())
        store.end_stage()
        meta, _ = binformat.parse_record(binformat.encode_program(store))
        codes = {sec["n"]: sec["c"] for sec in meta["sections"]}
        assert codes["gates.a"] == "i64"  # the max escalates the column
        assert codes["gates.b"] == "i8"
        decoded = binformat.decode_program(binformat.encode_program(store))
        assert decoded.gate_a == [5, 300, 70_000, 2**40]
        assert all(type(v) is int for v in decoded.gate_a)


class TestMalformedRecords:
    def test_bad_magic_rejected(self):
        with pytest.raises(binformat.BinformatError, match="magic"):
            binformat.parse_record(b"{\"not\": \"binary\"}")

    def test_truncated_preamble_rejected(self):
        with pytest.raises(binformat.BinformatError, match="truncated"):
            binformat.parse_record(binformat.MAGIC)

    def test_unknown_codec_revision_rejected(self):
        data = binformat.encode_program(ProgramStore())
        bad = binformat.MAGIC + b"\x63" + data[len(binformat.MAGIC) + 1:]
        with pytest.raises(binformat.BinformatError, match="revision"):
            binformat.parse_record(bad)

    def test_truncated_meta_rejected(self):
        data = binformat.encode_program(ProgramStore())
        with pytest.raises(binformat.BinformatError, match="meta"):
            binformat.parse_record(data[: len(binformat.MAGIC) + 5 + 2])

    def test_truncated_section_blob_rejected(self):
        store = ProgramStore()
        store.gate_a.append(1)
        store.gate_b.append(2)
        store.gate_site_r.append(0.0)
        store.gate_site_c.append(0.0)
        store.gate_n_vib.append(0.5)
        store.gate_name.append("cz")
        store.gate_params.append(())
        store.end_stage()
        data = binformat.encode_program(store)
        with pytest.raises(binformat.BinformatError):
            binformat.decode_program(data[:-3])

    def test_kind_mismatch_rejected(self):
        store = ProgramStore()
        store.end_stage()
        program = binformat.encode_program(store)
        chunk = binformat.encode_chunk(store.chunk_doc(0, 1))
        with pytest.raises(binformat.BinformatError, match="kind"):
            binformat.decode_chunk(program)
        with pytest.raises(binformat.BinformatError, match="kind"):
            binformat.decode_program(chunk)

    def test_unknown_section_code_rejected(self):
        with pytest.raises(binformat.BinformatError, match="unknown section"):
            binformat.decode_section(
                {"n": "x", "c": "f128", "len": 1, "nb": 16}, b"\x00" * 16
            )
