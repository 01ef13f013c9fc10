"""The ``v: 1`` packet wire (repro.core.messages on repro.codec).

Every payload type must survive serialize → JSON text → parse → equal,
including boundary TTLs (0 and 255) and the paper's "sufficient
precision to never wrap" names (huge Python ints). The bytes are frozen:
``tests/data/packet_v1_golden.json`` was recorded by the hand-written
codec this table replaced, and every JSON value a peer can send either
decodes to a well-typed packet that re-encodes to exactly its bytes or
is refused as a ``WireFormatError``.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import struct
import typing
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec import ANY, WireFormatError, record
from repro.core.messages import (
    KIND_DATA,
    KIND_PAGE_REPLY,
    KIND_PAGE_REQUEST,
    KIND_REPAIR,
    KIND_REQUEST,
    KIND_SESSION,
    PACKET,
    PAYLOAD,
    WIRE_VERSION,
    DataPayload,
    PageReplyPayload,
    PageRequestPayload,
    RepairPayload,
    RequestPayload,
    SessionPayload,
    SessionTimestamp,
    _payloads,
    packet_codec,
)
from repro.core.names import AduName, PageId
from repro.live.framing import FRAME_MAGIC, frame_to_packet, packet_to_frame
from repro.net.packet import DEFAULT_TTL, GroupAddress, Packet
from repro.wb.drawops import DRAWOPS, ClearOp, DeleteOp, DrawOp, DrawType

from conftest import draw_mutation, examples, mutated

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

# Source ids and sequence numbers are unbounded Python ints by design
# ("sufficient precision to never wrap"): exercise genuinely huge ones.
node_ids = st.integers(min_value=0, max_value=2**256)
seqs = st.integers(min_value=1, max_value=2**256)
finite_floats = st.floats(allow_nan=False, allow_infinity=False)

pages = st.builds(PageId, creator=node_ids, number=st.integers(0, 2**64))
names = st.builds(AduName, source=node_ids, page=pages, seq=seqs)

# Payload ``data`` travels verbatim, so it must be JSON-compatible.
json_data = st.recursive(
    st.none() | st.booleans() | st.integers(-2**63, 2**63) | finite_floats
    | st.text(max_size=40),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=10), children, max_size=4),
    max_leaves=10)

page_states = st.dictionaries(st.tuples(node_ids, pages),
                              st.integers(0, 2**64), max_size=5)

data_payloads = st.builds(DataPayload, name=names, data=json_data)
request_payloads = st.builds(
    RequestPayload, name=names, requester=node_ids,
    requester_distance_to_source=finite_floats)
repair_payloads = st.builds(
    RepairPayload, name=names, data=json_data, replier=node_ids,
    answering=st.none() | node_ids,
    replier_distance_to_requester=finite_floats,
    local_step=st.booleans())
page_request_payloads = st.builds(PageRequestPayload, page=pages,
                                  requester=node_ids)
page_reply_payloads = st.builds(PageReplyPayload, page=pages,
                                replier=node_ids, page_state=page_states)
session_payloads = st.builds(
    SessionPayload, member=node_ids, sent_at=finite_floats, page=pages,
    page_state=page_states,
    echoes=st.dictionaries(
        node_ids, st.builds(SessionTimestamp, t1=finite_floats,
                            delta=finite_floats), max_size=5))

any_payload = st.one_of(data_payloads, request_payloads, repair_payloads,
                        page_request_payloads, page_reply_payloads,
                        session_payloads)


def roundtrip(payload):
    """serialize → JSON text → parse, the full external path."""
    return PAYLOAD.decode(json.loads(json.dumps(PAYLOAD.encode(payload))))


# ----------------------------------------------------------------------
# Payload round-trips — one test per message type, plus the union
# ----------------------------------------------------------------------

@settings(max_examples=examples(50))
@given(payload=data_payloads)
def test_data_payload_roundtrip(payload):
    assert roundtrip(payload) == payload


@settings(max_examples=examples(50))
@given(payload=request_payloads)
def test_request_payload_roundtrip(payload):
    assert roundtrip(payload) == payload


@settings(max_examples=examples(50))
@given(payload=repair_payloads)
def test_repair_payload_roundtrip(payload):
    assert roundtrip(payload) == payload


@settings(max_examples=examples(50))
@given(payload=page_request_payloads)
def test_page_request_payload_roundtrip(payload):
    assert roundtrip(payload) == payload


@settings(max_examples=examples(50))
@given(payload=page_reply_payloads)
def test_page_reply_payload_roundtrip(payload):
    assert roundtrip(payload) == payload


@settings(max_examples=examples(50))
@given(payload=session_payloads)
def test_session_payload_roundtrip(payload):
    assert roundtrip(payload) == payload


@settings(max_examples=examples(50))
@given(payload=any_payload)
def test_wire_encoding_is_deterministic(payload):
    """Equal payloads produce byte-identical wire text (dict ordering
    and page-state/echo row ordering are pinned down)."""
    assert (json.dumps(PAYLOAD.encode(payload), sort_keys=True)
            == json.dumps(PAYLOAD.encode(roundtrip(payload)),
                          sort_keys=True))


# ----------------------------------------------------------------------
# Packet round-trips, boundary TTLs included
# ----------------------------------------------------------------------

@settings(max_examples=examples(50))
@given(payload=any_payload,
       ttl=st.one_of(st.just(0), st.just(DEFAULT_TTL),
                     st.integers(0, DEFAULT_TTL)),
       origin=node_ids,
       group=st.booleans(),
       zone=st.none() | st.text(max_size=10))
def test_packet_roundtrip(payload, ttl, origin, group, zone):
    dst = GroupAddress(7, "session") if group else 42
    packet = Packet(origin=origin, dst=dst,
                    kind=PAYLOAD.encode(payload)["kind"], payload=payload,
                    ttl=ttl, size=123, scope_zone=zone)
    decoded = PACKET.decode(
        json.loads(json.dumps(PACKET.encode(packet))))
    assert decoded.origin == packet.origin
    assert decoded.dst == packet.dst
    assert decoded.kind == packet.kind
    assert decoded.payload == packet.payload
    assert decoded.ttl == packet.ttl == ttl
    assert decoded.initial_ttl == packet.initial_ttl
    assert decoded.size == packet.size
    assert decoded.scope_zone == packet.scope_zone
    assert decoded.uid == packet.uid
    assert decoded.hops_travelled() == packet.hops_travelled()


def test_forwarded_packet_keeps_initial_ttl_on_the_wire():
    packet = Packet(origin=1, dst=GroupAddress(3), kind=KIND_DATA,
                    payload=DataPayload(AduName(1, PageId(0, 0), 1), "x"),
                    ttl=5)
    hopped = packet.forwarded_copy().forwarded_copy()
    decoded = PACKET.decode(PACKET.encode(hopped))
    assert decoded.ttl == 3
    assert decoded.initial_ttl == 5
    assert decoded.hops_travelled() == 2


# ----------------------------------------------------------------------
# Malformed input
# ----------------------------------------------------------------------

def test_unknown_kind_is_rejected():
    with pytest.raises(WireFormatError):
        PAYLOAD.decode({"kind": "srm-bogus"})


def test_missing_field_is_rejected():
    wire = PAYLOAD.encode(RequestPayload(AduName(1, PageId(0, 0), 1), 2))
    del wire["requester"]
    with pytest.raises(WireFormatError):
        PAYLOAD.decode(wire)


def test_bad_name_encoding_is_rejected():
    wire = PAYLOAD.encode(DataPayload(AduName(1, PageId(0, 0), 1), "x"))
    wire["name"] = [1, 2]
    with pytest.raises(WireFormatError):
        PAYLOAD.decode(wire)


def test_non_payload_is_rejected():
    with pytest.raises(WireFormatError):
        PAYLOAD.encode(object())


def test_wrong_wire_version_is_rejected():
    packet = Packet(origin=1, dst=4, kind=KIND_DATA,
                    payload=DataPayload(AduName(1, PageId(0, 0), 1), "x"))
    wire = PACKET.encode(packet)
    wire["v"] = WIRE_VERSION + 1
    with pytest.raises(WireFormatError):
        PACKET.decode(wire)


def test_a_payload_field_without_a_row_is_refused():
    @dataclasses.dataclass(frozen=True)
    class Extended(RepairPayload):
        hops: int = 0

    _, rows = _payloads(ANY)[KIND_REPAIR]
    with pytest.raises(TypeError, match="hops"):
        record(Extended, rows)


# ----------------------------------------------------------------------
# Frozen bytes: frames recorded by the hand-written codec (37d4f1b)
# ----------------------------------------------------------------------

GOLDEN = Path(__file__).parent / "data" / "packet_v1_golden.json"


def _golden_packets():
    """name -> (packet, whether its data rides through the drawop codec)."""
    huge = 2 ** 200
    page = PageId(2, 7)
    name = AduName(3, page, 4)
    huge_name = AduName(huge, PageId(huge + 1, 2 ** 64), 2 ** 256)
    group = GroupAddress(7, "session")
    state = {(3, page): 4, (1, PageId(0, 0)): 9, (huge, PageId(5, huge)): huge}
    echoes = {5: SessionTimestamp(t1=1.5, delta=0.25),
              2: SessionTimestamp(t1=0.125, delta=0.0),
              huge: SessionTimestamp(t1=3.0, delta=1e-9)}

    def packet(kind, payload, dst=group, **header):
        fields = dict(origin=3, ttl=255, size=1000, scope_zone=None, uid=11,
                      sent_at=1.25)
        fields.update(header)
        return Packet(dst=dst, kind=kind, payload=payload, **fields)

    forwarded = packet(KIND_REQUEST, RequestPayload(name, 6, 0.5), ttl=9,
                       scope_zone="site").forwarded_copy().forwarded_copy()
    line = DrawOp(shape=DrawType.LINE, coords=((0.0, 1.5), (2.0, -3.25)),
                  color="blue", width=2.5, timestamp=10.125)
    text = DrawOp(shape=DrawType.TEXT, coords=((1.0, 1.0),), text="hi",
                  timestamp=11.0)
    return {
        "data-group": (packet(KIND_DATA, DataPayload(
            name, {"blob": [1, 2.5, None, True, "x"]})), False),
        "data-unicast-huge": (packet(
            KIND_DATA, DataPayload(huge_name, "text"), dst=42, origin=huge,
            ttl=0, initial_ttl=5, uid=2 ** 70, sent_at=0.0,
            scope_zone="local"), False),
        "request": (packet(KIND_REQUEST, RequestPayload(name, 6, 0.125)),
                    False),
        "request-int-distance": (packet(
            KIND_REQUEST, RequestPayload(huge_name, huge, 2), sent_at=3),
            False),
        "request-forwarded": (forwarded, False),
        "repair-unanswered": (packet(KIND_REPAIR, RepairPayload(
            name, None, replier=8)), False),
        "repair-local-step": (packet(KIND_REPAIR, RepairPayload(
            name, [1, 2], replier=8, answering=6,
            replier_distance_to_requester=0.75, local_step=True),
            dst=6), False),
        "page-request": (packet(KIND_PAGE_REQUEST,
                                PageRequestPayload(page, 6)), False),
        "page-reply-empty": (packet(KIND_PAGE_REPLY,
                                    PageReplyPayload(page, 8)), False),
        "page-reply": (packet(KIND_PAGE_REPLY,
                              PageReplyPayload(page, 8, dict(state))), False),
        "session-empty": (packet(KIND_SESSION, SessionPayload(
            member=3, sent_at=7.5, page=page)), False),
        "session": (packet(KIND_SESSION, SessionPayload(
            member=3, sent_at=7.5, page=page, page_state=dict(state),
            echoes=dict(echoes))), False),
        "wb-draw-line": (packet(KIND_DATA, DataPayload(name, line)), True),
        "wb-draw-text": (packet(KIND_REPAIR, RepairPayload(
            name, text, replier=8, answering=6)), True),
        "wb-delete": (packet(KIND_DATA, DataPayload(
            AduName(3, page, 5), DeleteOp(target=name, timestamp=12.0))),
            True),
        "wb-clear": (packet(KIND_DATA, DataPayload(
            AduName(3, page, 6), ClearOp(timestamp=13.5))), True),
    }



def _conforms(value, hint) -> bool:
    """``value`` has the type ``hint`` declares, at every depth (a
    ``float`` is any JSON number, as in Python's typing)."""
    if hint is typing.Any:
        return True
    if hint is float:
        return type(value) in (int, float)
    if hint in (int, str, bool, type(None)):
        return type(value) is hint
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Union:
        return any(_conforms(value, arg) for arg in args)
    if origin is dict:
        return type(value) is dict and all(
            _conforms(key, args[0]) and _conforms(item, args[1])
            for key, item in value.items())
    if origin is tuple:
        items = args[:1] * len(value) if args[-1:] == (...,) else args
        return isinstance(value, tuple) and len(value) == len(items) \
            and all(map(_conforms, value, items))
    if issubclass(hint, enum.Enum):
        return type(value) is hint
    return type(value) is hint and all(
        _conforms(getattr(value, name), field_hint)
        for name, field_hint in typing.get_type_hints(hint).items())


def _well_typed(packet, wb) -> bool:
    """A packet whose every field, payload and drawop included, conforms."""
    payload = packet.payload
    data = getattr(payload, "data", None)
    return (_conforms(packet, Packet)
            and type(payload) in (DataPayload, RequestPayload, RepairPayload,
                                  PageRequestPayload, PageReplyPayload,
                                  SessionPayload)
            and _conforms(payload, type(payload))
            and (not wb or data is None
                 or (type(data) in (DrawOp, DeleteOp, ClearOp)
                     and _conforms(data, type(data)))))


def _fields(packet):
    return [getattr(packet, f.name) for f in dataclasses.fields(Packet)]


def _canonical(wire) -> str:
    return json.dumps(wire, sort_keys=True, separators=(",", ":"))


def test_frames_match_the_recorded_golden():
    recorded = json.loads(GOLDEN.read_text())
    packets = _golden_packets()
    assert sorted(recorded) == sorted(packets)
    for case, (packet, wb) in packets.items():
        data = DRAWOPS if wb else ANY
        body = recorded[case].encode()
        assert packet_to_frame(packet, data) == \
            struct.pack("!4sI", FRAME_MAGIC, len(body)) + body, case
        decoded = frame_to_packet(json.loads(body), data)
        assert _fields(decoded) == _fields(packet), case
        assert _well_typed(decoded, wb), case


@settings(max_examples=examples(300))
@given(data=st.data())
def test_mutated_frames_round_trip_or_raise_wire_format_error(data):
    recorded = json.loads(GOLDEN.read_text())
    case = data.draw(st.sampled_from(sorted(recorded)))
    wb = _golden_packets()[case][1]
    codec = packet_codec(DRAWOPS if wb else ANY)
    _, mutant = draw_mutation(data, json.loads(recorded[case]))
    try:
        decoded = codec.decode(mutant)
    except WireFormatError:
        return  # refused at the boundary, and only ever this way
    assert _well_typed(decoded, wb)
    assert _canonical(codec.encode(decoded)) == _canonical(mutant)


@pytest.mark.parametrize("case, where, value", [
    ("data-group", ("v",), True),
    ("data-group", ("payload", "name", 0), True),
    ("data-group", ("initial_ttl",), -1),
    ("data-group", ("dst",), {"group": 7}),
    ("request", ("sent_at",), 10 ** 400),
    ("request", ("payload", "distance"), "0.5"),
    ("page-reply", ("payload", "page_state", 0), [3, 2, 7, 4]),
    ("session", ("payload", "echoes", 0, 1), "t1"),
    ("session", ("payload", "echoes", 0, 0), 5),
    ("wb-draw-line", ("payload", "data", "color"), 5),
    ("wb-draw-line", ("payload", "data", "shape"), "hexagon"),
    ("wb-delete", ("payload", "data", "target"), [True, "0", 0.9, 1]),
])
def test_ill_typed_frames_raise_wire_format_error(case, where, value):
    wire = json.loads(json.loads(GOLDEN.read_text())[case])
    codec = packet_codec(DRAWOPS if case.startswith("wb-") else ANY)
    with pytest.raises(WireFormatError, match=f"^{where[0]}: "):
        codec.decode(mutated(wire, where, "replace", value, ""))
