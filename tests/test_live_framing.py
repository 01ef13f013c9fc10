"""Property tests for the live wire framing (hypothesis).

The framing layer is total: any datagrams in — garbage, hostile-length,
fragmented and reordered — either yield exactly the frames that were
sent or surface as a ``WireFormatError`` or counted errors, never as
another exception on the receive path.
"""

from __future__ import annotations

import json
import struct

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.codec import ANY, Codec, WireFormatError
from repro.core.messages import KIND_DATA, DataPayload
from repro.core.names import AduName, PageId
from repro.live.framing import (
    FRAG_HEADER_SIZE,
    FRAG_MAGIC,
    FRAME_HEADER_SIZE,
    FRAME_MAGIC,
    MAX_FRAME,
    FragmentReassembler,
    decode_frame,
    encode_frame,
    frame_to_packet,
    packet_to_frame,
    split_datagrams,
)
from repro.net.packet import GroupAddress, Packet
from repro.wb.drawops import DRAWOPS, DrawOp, DrawType

from conftest import examples

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2**31, 2**31)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=20),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=8)

wire_dicts = st.dictionaries(st.text(max_size=10), json_values, max_size=5)


def roundtrip_equal(sent, received):
    """JSON-level equality: what matters is the canonical encoding."""
    return json.dumps(sent, sort_keys=True) == \
        json.dumps(received, sort_keys=True)


# ----------------------------------------------------------------------
# Single frames
# ----------------------------------------------------------------------


@given(wire=wire_dicts)
@settings(max_examples=examples(100))
def test_encode_decode_roundtrip(wire):
    assert roundtrip_equal(wire, decode_frame(encode_frame(wire)))


def test_oversized_frame_refused_on_encode():
    with pytest.raises(WireFormatError):
        encode_frame({"blob": "x" * (MAX_FRAME + 1)})


def test_non_json_wire_refused_on_encode():
    with pytest.raises(WireFormatError):
        encode_frame({"bad": object()})


@given(garbage=st.binary(max_size=80))
@settings(max_examples=examples(100))
def test_decode_frame_is_total_over_garbage(garbage):
    assume(garbage != encode_frame({}) and not (
        garbage.startswith(FRAME_MAGIC)
        and len(garbage) >= FRAME_HEADER_SIZE))
    with pytest.raises(WireFormatError):
        decode_frame(garbage)


def test_decode_frame_rejects_non_object_body():
    body = b"[1,2,3]"
    frame = struct.pack("!4sI", FRAME_MAGIC, len(body)) + body
    with pytest.raises(WireFormatError):
        decode_frame(frame)


@pytest.mark.parametrize("body", [
    b"not json!!",
    b"[" * 100_000 + b"]" * 100_000,   # nested past the parser's limit
], ids=["unparsable", "nested"])
def test_decode_frame_refuses_a_body_json_cannot_read(body):
    frame = struct.pack("!4sI", FRAME_MAGIC, len(body)) + body
    with pytest.raises(WireFormatError, match="not JSON"):
        decode_frame(frame)


# ----------------------------------------------------------------------
# Fragmentation
# ----------------------------------------------------------------------


@given(blob=st.binary(max_size=2000),
       max_datagram=st.integers(min_value=FRAG_HEADER_SIZE + 1,
                                max_value=257),
       frame_id=st.integers(min_value=0, max_value=2**40))
@settings(max_examples=examples(100))
def test_fragmentation_roundtrip(blob, max_datagram, frame_id):
    datagrams = split_datagrams(blob, frame_id, max_datagram)
    assert all(len(datagram) <= max_datagram for datagram in datagrams)
    reassembler = FragmentReassembler()
    frames = [frame for frame in map(reassembler.feed, datagrams)
              if frame is not None]
    assert frames == [blob]
    assert reassembler.errors == 0


@given(blob=st.binary(min_size=300, max_size=1200), data=st.data())
@settings(max_examples=examples(60))
def test_fragmentation_roundtrip_reordered(blob, data):
    datagrams = split_datagrams(blob, 7, 128)
    order = data.draw(st.permutations(datagrams))
    reassembler = FragmentReassembler()
    frames = [frame for frame in map(reassembler.feed, order)
              if frame is not None]
    assert frames == [blob]


def test_fragmentation_interleaved_senders_share_one_reassembler():
    a_frags = split_datagrams(b"a" * 500, 1, 128)
    b_frags = split_datagrams(b"b" * 500, 2, 128)
    reassembler = FragmentReassembler()
    out = []
    for pair in zip(a_frags, b_frags):
        for datagram in pair:
            frame = reassembler.feed(datagram)
            if frame is not None:
                out.append(frame)
    assert sorted(out) == sorted([b"a" * 500, b"b" * 500])


@given(garbage=st.binary(max_size=64))
@settings(max_examples=examples(100))
def test_reassembler_counts_garbage_datagrams(garbage):
    assume(not garbage.startswith(FRAG_MAGIC)
           or len(garbage) < FRAG_HEADER_SIZE)
    reassembler = FragmentReassembler()
    assert reassembler.feed(garbage) is None
    assert reassembler.errors == 1


def test_reassembler_evicts_oldest_partial_frames():
    reassembler = FragmentReassembler(max_pending=2)
    for frame_id in range(4):
        first = split_datagrams(b"x" * 300, frame_id, 128)[0]
        reassembler.feed(first)
    assert reassembler.pending == 2
    assert reassembler.evicted == 2


# ----------------------------------------------------------------------
# Packet <-> frame composition (incl. the drawop data codec)
# ----------------------------------------------------------------------


def test_packet_frame_roundtrip_with_data_codec():
    op = DrawOp(shape=DrawType.LINE, coords=((1.0, 2.0), (3.0, 4.0)),
                color="blue", timestamp=1.5)
    name = AduName(3, PageId(0, 0), 1)
    packet = Packet(origin=3, dst=GroupAddress(gid=0, label="wb"),
                    kind=KIND_DATA, payload=DataPayload(name=name, data=op))
    frame = packet_to_frame(packet, DRAWOPS)
    restored = frame_to_packet(decode_frame(frame), DRAWOPS)
    assert restored.origin == 3 and restored.kind == KIND_DATA
    assert restored.dst == GroupAddress(gid=0, label="wb")
    assert restored.payload.name == name
    assert restored.payload.data == op


def test_frame_to_packet_wraps_codec_failures():
    def refuse(_data):
        raise ValueError("boom")

    packet = Packet(origin=3, dst=GroupAddress(gid=0), kind=KIND_DATA,
                    payload=DataPayload(AduName(3, PageId(0, 0), 1), "x"))
    wire = decode_frame(packet_to_frame(packet))
    with pytest.raises(WireFormatError, match="^payload: data: boom"):
        frame_to_packet(wire, Codec(ANY.encode, refuse))
