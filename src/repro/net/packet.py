"""Packets and addresses.

Nodes are addressed by small integers. Multicast groups get their own
address type, :class:`GroupAddress`, mirroring IP's reserved class-D range:
a sender needs no knowledge of the membership, it just addresses the group.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Optional, Union

#: Default initial TTL for packets whose sender does not care about scope,
#: matching the common IP default.
DEFAULT_TTL = 255

NodeId = int

_packet_uids = itertools.count(1)


@dataclass(frozen=True, slots=True)
class GroupAddress:
    """A multicast group address.

    ``gid`` distinguishes groups; ``label`` is for human-readable traces.
    Separate recovery groups (Section VII-B2) are just additional
    GroupAddress instances.
    """

    gid: int
    label: str = ""

    def __str__(self) -> str:
        return self.label or f"group-{self.gid}"


# Group addresses key membership tables consulted once per delivery; the
# generated hash builds a (gid, label) tuple every call. Hashing the gid
# alone is consistent with equality (equal addresses share a gid) and
# skips the tuple. Assigned after class creation so the dataclass
# machinery does not replace it.
GroupAddress.__hash__ = lambda self: hash(self.gid)  # type: ignore[method-assign]


Address = Union[NodeId, GroupAddress]


def is_multicast(address: Address) -> bool:
    """True when ``address`` names a group rather than a single node."""
    return isinstance(address, GroupAddress)


@dataclass(slots=True)
class Packet:
    """A datagram.

    ``origin`` is the node that created the packet (it never changes as the
    packet is forwarded). ``kind`` is a short protocol tag ("data",
    "request", "repair", "session", ...). ``payload`` is an arbitrary
    application object; the network never inspects it.

    ``ttl`` is decremented at each hop; ``initial_ttl`` is carried unchanged
    so receivers can compute their hop count from the origin, which SRM's
    TTL-scoped local recovery relies on (Section VII-B3).

    ``slots=True`` because packet allocation is on the delivery hot path:
    paper-scale rounds create one arrival copy per (send, hop-distance),
    and the slot layout roughly halves the per-packet memory and
    attribute-access cost.
    """

    origin: NodeId
    dst: Address
    kind: str
    payload: Any = None
    ttl: int = DEFAULT_TTL
    initial_ttl: int = -1
    size: int = 1000
    scope_zone: Optional[str] = None
    uid: int = field(default_factory=lambda: next(_packet_uids))
    sent_at: float = 0.0

    def __post_init__(self) -> None:
        if self.ttl < 0:
            raise ValueError(f"negative ttl {self.ttl}")
        if self.initial_ttl < 0:
            self.initial_ttl = self.ttl

    @property
    def is_multicast(self) -> bool:
        return is_multicast(self.dst)

    def hops_travelled(self) -> int:
        """Hop count from the origin, derived from the TTL fields."""
        return self.initial_ttl - self.ttl

    def forwarded_copy(self) -> "Packet":
        """The copy sent one hop further: same identity, TTL minus one.

        A slot-by-slot clone, not a constructor call: the hop engine
        makes one per link crossing, and every other field was validated
        when the original was built.
        """
        ttl = self.ttl - 1
        if ttl < 0:
            raise ValueError(f"negative ttl {ttl}")
        copy = object.__new__(Packet)
        copy.origin = self.origin
        copy.dst = self.dst
        copy.kind = self.kind
        copy.payload = self.payload
        copy.ttl = ttl
        copy.initial_ttl = self.initial_ttl
        copy.size = self.size
        copy.scope_zone = self.scope_zone
        copy.uid = self.uid
        copy.sent_at = self.sent_at
        return copy

    def __str__(self) -> str:
        return (f"<{self.kind} #{self.uid} {self.origin}->{self.dst} "
                f"ttl={self.ttl}>")
