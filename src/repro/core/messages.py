"""SRM wire messages (packet payloads) and their wire codec.

Four message kinds flow in an SRM session: original data, repair requests,
repairs, and periodic session messages. Requests name data by its unique
persistent :class:`~repro.core.names.AduName` and are addressed to the
group, never to a specific sender — any member holding the data may answer
(Section III-B).

The simulation passes payload objects by reference for speed; the ``v: 1``
packet wire pins down the interoperable external form a real transport
ships. It is a table on :mod:`repro.codec`: one record per payload kind,
told apart by the ``kind`` tag (:data:`PAYLOAD`), under the packet's
scoping header (:data:`PACKET`; :func:`packet_codec` builds it around
a codec for the application data, e.g. the whiteboard's drawops).
Names, pages, page state and echoes ride as flat integer rows. Decoding
is total and closed: anything that is not exactly a packet raises
:class:`~repro.codec.WireFormatError`, and what decodes re-encodes to
the bytes it came from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from repro.codec import (ANY, BOOL, INT, NUMBER, STR, Codec, Rows,
                         WireFormatError, list_of, optional, record, tag,
                         tuple_of, union)
from repro.core.names import AduName, PageId
from repro.net.packet import GroupAddress, Packet

#: Packet ``kind`` tags used by SRM agents.
KIND_DATA = "srm-data"
KIND_REQUEST = "srm-request"
KIND_REPAIR = "srm-repair"
KIND_SESSION = "srm-session"
KIND_PAGE_REQUEST = "srm-page-request"
KIND_PAGE_REPLY = "srm-page-reply"


@dataclass(frozen=True)
class DataPayload:
    """Original data multicast by its source."""

    name: AduName
    data: Any


@dataclass(frozen=True)
class RequestPayload:
    """A repair request.

    ``requester_distance_to_source`` is the requester's estimated one-way
    delay to the original source of the missing data; the adaptive
    algorithm uses it for the "duplicates from farther members" C1
    reduction, which "requires that requests include the requestor's
    estimated distance from the original source" (Section VII-A).
    """

    name: AduName
    requester: int
    requester_distance_to_source: float = 0.0


@dataclass(frozen=True)
class RepairPayload:
    """A retransmission of named data.

    ``answering`` is the requester whose request triggered this repair —
    carried so two-step local repairs can name the original requester
    (Section VII-B3) — and ``replier_distance_to_requester`` feeds the
    corresponding adaptive mechanism for replies.
    """

    name: AduName
    data: Any
    replier: int
    answering: Optional[int] = None
    replier_distance_to_requester: float = 0.0
    #: True for the first (local) step of a two-step repair; the named
    #: requester reacts by re-multicasting at the original request scope.
    local_step: bool = False


@dataclass(frozen=True, slots=True)
class SessionTimestamp:
    """Per-peer timestamp echo for the simplified-NTP distance estimate.

    Peer B's session message carries, for each peer A it has heard from,
    A's original send time ``t1`` and the turnaround ``delta = t3 - t2``
    (B's holding time). A receives it at t4 and estimates the one-way
    distance as ``((t4 - t1) - delta) / 2``.
    """

    t1: float
    delta: float


@dataclass(frozen=True)
class PageRequestPayload:
    """A request for the sequence-number state of a page.

    Used by receivers browsing previous pages or joining late (Section
    III-A); "the page state recovery protocol ... is almost identical to
    the repair request/response protocol for data".
    """

    page: PageId
    requester: int


@dataclass(frozen=True)
class PageReplyPayload:
    """The reply: highest sequence number per source on the page."""

    page: PageId
    replier: int
    page_state: Dict[Tuple[int, PageId], int] = field(default_factory=dict)


@dataclass(frozen=True)
class SessionPayload:
    """A periodic session message (Section III-A).

    ``page_state`` reports, for the page the member is currently viewing,
    the highest sequence number received from each active source on that
    page — which is how tail losses (a dropped *last* packet) get
    detected. ``echoes`` carries the timestamp echoes for every peer.
    """

    member: int
    sent_at: float
    page: PageId
    page_state: Dict[Tuple[int, PageId], int] = field(default_factory=dict)
    echoes: Dict[int, SessionTimestamp] = field(default_factory=dict)


# ----------------------------------------------------------------------
# Wire codec: the ``v: 1`` packet table
# ----------------------------------------------------------------------

#: Bumped on any incompatible change to the wire layout.
WIRE_VERSION = 1

_INT_PAIR = tuple_of(INT, INT)
_INT_ROW = tuple_of(INT, INT, INT, INT)
_STATE_ROWS = list_of(_INT_ROW)
_ECHO_ROWS = list_of(tuple_of(INT, NUMBER, NUMBER))


def _name(source: int, creator: int, number: int, seq: int) -> AduName:
    return AduName(source, PageId(creator, number), seq)


def _ascending(rows: List[Tuple[Any, ...]], width: int
               ) -> List[Tuple[Any, ...]]:
    """``rows`` if their ``width``-wide keys strictly ascend — the one
    order the encoder writes a map in — so a decoded map re-encodes to
    the bytes it came from."""
    if any(a[:width] >= b[:width] for a, b in zip(rows, rows[1:])):
        raise WireFormatError("rows out of order or repeated")
    return rows


def _ttl(wire: Any) -> int:
    ttl: int = INT.decode(wire)
    if ttl < 0:
        raise WireFormatError(f"expected a hop count, got {ttl}")
    return ttl


#: A page as ``[creator, number]``.
PAGE = Codec(list, lambda wire: PageId(*_INT_PAIR.decode(wire)))
#: An ADU name as ``[source, creator, number, seq]``.
NAME = Codec(lambda name: [name.source, *name.page, name.seq],
             lambda wire: _name(*_INT_ROW.decode(wire)))
#: ``{(source, page): seq}`` as sorted ``[source, creator, number, seq]``
#: rows.
PAGE_STATE = Codec(
    lambda state: sorted([source, *page, seq]
                         for (source, page), seq in state.items()),
    lambda wire: {(source, PageId(creator, number)): seq
                  for source, creator, number, seq
                  in _ascending(_STATE_ROWS.decode(wire), 3)})
#: ``{peer: SessionTimestamp}`` as sorted ``[peer, t1, delta]`` rows.
ECHOES = Codec(
    lambda echoes: sorted([peer, echo.t1, echo.delta]
                          for peer, echo in echoes.items()),
    lambda wire: {peer: SessionTimestamp(t1, delta)
                  for peer, t1, delta
                  in _ascending(_ECHO_ROWS.decode(wire), 1)})
#: A TTL: a hop count, never negative.
TTL = Codec(INT.encode, _ttl)


class _Unicast(NamedTuple):
    """A unicast destination as the wire frames it: ``{"node": id}``."""

    node: int


_GROUP = record(GroupAddress,
                (("gid", "group", INT), ("label", "label", STR)))
_UNICAST = record(_Unicast, (("node", "node", INT),))
#: A packet's destination: a group address, or a node id.
DST = Codec(
    lambda dst: (_GROUP.encode(dst) if isinstance(dst, GroupAddress)
                 else _UNICAST.encode(_Unicast(dst))),
    lambda wire: (_GROUP.decode(wire)
                  if isinstance(wire, dict) and "group" in wire
                  else _UNICAST.decode(wire).node))


def _payloads(data: Codec) -> Dict[str, Tuple[type, Rows]]:
    """The six payload kinds, ``data`` framing their application data."""
    return {
        KIND_DATA: (DataPayload, (
            ("name", "name", NAME),
            ("data", "data", data))),
        KIND_REQUEST: (RequestPayload, (
            ("name", "name", NAME),
            ("requester", "requester", INT),
            ("requester_distance_to_source", "distance", NUMBER))),
        KIND_REPAIR: (RepairPayload, (
            ("name", "name", NAME),
            ("data", "data", data),
            ("replier", "replier", INT),
            ("answering", "answering", optional(INT)),
            ("replier_distance_to_requester", "distance", NUMBER),
            ("local_step", "local_step", BOOL))),
        KIND_PAGE_REQUEST: (PageRequestPayload, (
            ("page", "page", PAGE),
            ("requester", "requester", INT))),
        KIND_PAGE_REPLY: (PageReplyPayload, (
            ("page", "page", PAGE),
            ("replier", "replier", INT),
            ("page_state", "page_state", PAGE_STATE))),
        KIND_SESSION: (SessionPayload, (
            ("member", "member", INT),
            ("sent_at", "sent_at", NUMBER),
            ("page", "page", PAGE),
            ("page_state", "page_state", PAGE_STATE),
            ("echoes", "echoes", ECHOES))),
    }


#: Any payload, tagged with its ``kind``; ``data`` carried verbatim.
PAYLOAD = union("kind", _payloads(ANY))


@lru_cache(maxsize=None)
def packet_codec(data: Codec = ANY) -> Codec:
    """The ``v: 1`` packet: scoping header plus tagged payload, whose
    application data (the ``data`` of data and repair payloads) is
    framed by ``data``. A packet's ``kind`` is its payload's tag. Built
    once per data codec (in practice two: verbatim and drawops)."""
    payloads = _payloads(data)
    kinds = {cls: kind for kind, (cls, _) in payloads.items()}
    return record(Packet, (
        (None, "v", tag(WIRE_VERSION, "wire version")),
        ("origin", "origin", INT),
        ("dst", "dst", DST),
        ("ttl", "ttl", TTL),
        ("initial_ttl", "initial_ttl", TTL),
        ("size", "size", INT),
        ("scope_zone", "scope_zone", optional(STR)),
        ("uid", "uid", INT),
        ("sent_at", "sent_at", NUMBER),
        ("payload", "payload", union("kind", payloads)),
    ), kind=lambda fields: kinds[type(fields["payload"])])


#: The packet with its application data carried verbatim.
PACKET = packet_codec(ANY)
