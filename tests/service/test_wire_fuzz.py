"""Decoder fuzzing for the service wire: every decoder that reads bytes off
the socket turns arbitrary input into :class:`WireError` — never another
exception type.

The byte strategy mixes plain random bytes with truncated and bit-flipped
copies of real frames and real v3 program records, so the mutations land
inside structure the decoders actually parse (length prefixes, deflate
streams, record meta JSON, column sections).
"""

import zlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.random_circuits import random_circuit
from repro.core import AtomiqueCompiler, AtomiqueConfig, binformat
from repro.hardware import RAAArchitecture
from repro.service.wire import (
    FRAME_HEADER_LEN,
    BinaryDoc,
    WireError,
    decode_frame_payload,
    encode_bindoc_frame,
    encode_frame,
    parse_frame_header,
)


def _seed_corpus() -> list[bytes]:
    store = AtomiqueCompiler(
        RAAArchitecture.default(side=4), AtomiqueConfig(seed=7)
    ).compile(random_circuit(8, 6, 3, seed=5)).program
    program = binformat.encode_program(store)
    message = {"ok": True, "op": "result", "event": "program"}
    frames = [
        encode_frame({"op": "ping"}),
        encode_frame({"op": "submit", "pad": "x" * 300}, threshold=64),
        encode_bindoc_frame(message, "program", program),
        encode_bindoc_frame({"ok": True, "op": "program"}, "program", program),
    ]
    # frames whole and as bare bodies (what decode_frame_payload sees)
    bodies = [f[FRAME_HEADER_LEN:] for f in frames]
    # deflated bodies: no sender deflates a bindoc body, but the decoder
    # accepts both flags together and must still fail cleanly
    deflated = []
    for raw in (program, bodies[2]):
        packer = zlib.compressobj(wbits=-zlib.MAX_WBITS)
        deflated.append(packer.compress(raw) + packer.flush())
    return [program, *deflated, *frames, *bodies]


SEEDS = _seed_corpus()


@st.composite
def mutated_seeds(draw):
    data = bytearray(draw(st.sampled_from(SEEDS)))
    for _ in range(draw(st.integers(0, 4))):
        pos = draw(st.integers(0, len(data) - 1))
        data[pos] ^= draw(st.integers(1, 255))
    lo = draw(st.integers(0, len(data)))
    hi = draw(st.integers(lo, len(data)))
    if draw(st.booleans()):
        lo = 0  # keep the preamble: the decoder gets past its first checks
    return bytes(data[lo:hi])


fuzz_bytes = st.one_of(st.binary(max_size=256), mutated_seeds())

FUZZ = settings(max_examples=300, deadline=None, derandomize=True)


def only_wire_errors(decode, *args):
    try:
        decode(*args)
    except WireError:
        pass


@FUZZ
@given(fuzz_bytes)
def test_frame_header_parser(data):
    only_wire_errors(parse_frame_header, data)
    only_wire_errors(parse_frame_header, data[:FRAME_HEADER_LEN])


@FUZZ
@given(st.integers(0, 3), fuzz_bytes)
def test_frame_payload_decoder(flags, data):
    only_wire_errors(decode_frame_payload, flags, data)


@FUZZ
@given(fuzz_bytes)
def test_binary_program_record(data):
    only_wire_errors(BinaryDoc(data).to_store)
