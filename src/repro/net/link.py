"""Links and drop filters.

A :class:`Link` is a bidirectional point-to-point edge with a propagation
delay (the paper normalizes this to one time unit) and an Mbone-style TTL
threshold. Packet loss is modelled with pluggable :class:`DropFilter`
objects attached to a link; the paper's standard experiment arms a filter
that drops exactly the first data packet from a chosen source on a chosen
"congested link".
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.packet import NodeId, Packet
    from repro.sim.rng import RandomSource
    from repro.sim.scheduler import EventScheduler

Direction = Tuple[int, int]


class DropFilter:
    """Decides whether a packet traversing a link is dropped.

    Subclasses override :meth:`should_drop`. A filter may be directional
    (only packets travelling ``u -> v``) or apply both ways.
    """

    def __init__(self, direction: Optional[Direction] = None) -> None:
        self.direction = direction
        self.drops = 0

    def matches_direction(self, from_node: int, to_node: int) -> bool:
        if self.direction is None:
            return True
        return self.direction == (from_node, to_node)

    def should_drop(self, packet: "Packet", from_node: int,
                    to_node: int) -> bool:
        raise NotImplementedError

    def consume(self, packet: "Packet", from_node: int, to_node: int) -> bool:
        """Apply the filter, recording a drop when it fires."""
        if not self.matches_direction(from_node, to_node):
            return False
        if self.should_drop(packet, from_node, to_node):
            self.drops += 1
            return True
        return False


class NthPacketDropFilter(DropFilter):
    """Drop the n-th packet matching a predicate, then disarm.

    This is the paper's loss model: "the first packet from source S is
    dropped on link L; the second packet is not dropped".
    """

    def __init__(self, predicate: Callable[["Packet"], bool],
                 n: int = 1, direction: Optional[Direction] = None) -> None:
        super().__init__(direction)
        if n < 1:
            raise ValueError("n must be >= 1")
        self.predicate = predicate
        self.n = n
        self._seen = 0
        self.armed = True

    def should_drop(self, packet: "Packet", from_node: int,
                    to_node: int) -> bool:
        if not self.armed or not self.predicate(packet):
            return False
        self._seen += 1
        if self._seen == self.n:
            self.armed = False
            return True
        return False

    def rearm(self) -> None:
        """Reset the counter so the filter fires again (per-round reuse)."""
        self._seen = 0
        self.armed = True


class BernoulliDropFilter(DropFilter):
    """Drop each matching packet independently with probability ``p``."""

    def __init__(self, p: float, rng: "RandomSource",
                 predicate: Optional[Callable[["Packet"], bool]] = None,
                 direction: Optional[Direction] = None) -> None:
        super().__init__(direction)
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability {p} outside [0, 1]")
        self.p = p
        self.rng = rng
        self.predicate = predicate

    def should_drop(self, packet: "Packet", from_node: int,
                    to_node: int) -> bool:
        if self.predicate is not None and not self.predicate(packet):
            return False
        return self.rng.random() < self.p


class GilbertElliottDropFilter(DropFilter):
    """Two-state burst-loss model (good/bad Markov chain).

    In the good state packets survive; in the bad state each matching
    packet is dropped with probability ``bad_loss``. State transitions
    are evaluated per matching packet: good->bad with ``p``, bad->good
    with ``r``. Mbone measurements (the paper cites Yajnik et al.) show
    multicast losses are bursty, which this reproduces.
    """

    def __init__(self, p: float, r: float, rng: "RandomSource",
                 bad_loss: float = 1.0,
                 predicate: Optional[Callable[["Packet"], bool]] = None,
                 direction: Optional[Direction] = None) -> None:
        super().__init__(direction)
        for name, value in (("p", p), ("r", r), ("bad_loss", bad_loss)):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name}={value} outside [0, 1]")
        self.p = p
        self.r = r
        self.bad_loss = bad_loss
        self.rng = rng
        self.predicate = predicate
        self.in_bad_state = False

    def should_drop(self, packet: "Packet", from_node: int,
                    to_node: int) -> bool:
        if self.predicate is not None and not self.predicate(packet):
            return False
        if self.in_bad_state:
            if self.rng.random() < self.r:
                self.in_bad_state = False
        else:
            if self.rng.random() < self.p:
                self.in_bad_state = True
        return self.in_bad_state and self.rng.random() < self.bad_loss


class MatchDropFilter(DropFilter):
    """Drop every packet matching a predicate (a persistently dead path)."""

    def __init__(self, predicate: Callable[["Packet"], bool],
                 direction: Optional[Direction] = None) -> None:
        super().__init__(direction)
        self.predicate = predicate

    def should_drop(self, packet: "Packet", from_node: int,
                    to_node: int) -> bool:
        return self.predicate(packet)


class Link:
    """A bidirectional point-to-point link.

    ``delay`` is the one-way propagation delay; ``threshold`` is the
    Mbone-style TTL threshold (a multicast packet crosses the link only if
    its TTL on the sending side is at least the threshold).

    A link may additionally be given finite ``bandwidth`` (size-units per
    time-unit) and a ``queue_limit`` (packets buffered per direction,
    including the one in service) via :meth:`set_bandwidth`. Packets then
    experience store-and-forward serialization plus FIFO queueing, and a
    full buffer tail-drops — congestion loss *emerges* instead of being
    scripted. Queueing links are supported by the hop-by-hop delivery
    engine only.
    """

    def __init__(self, a: "NodeId", b: "NodeId", delay: float = 1.0,
                 threshold: int = 1) -> None:
        if a == b:
            raise ValueError(f"self-loop at node {a}")
        if delay <= 0:
            raise ValueError(f"non-positive delay {delay}")
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        self.a = a
        self.b = b
        self.delay = delay
        self.threshold = threshold
        self.bandwidth: Optional[float] = None
        self.queue_limit: Optional[int] = None
        self.filters: list[DropFilter] = []
        self.packets_carried = 0
        self.bytes_carried = 0
        self.queue_drops = 0
        self._busy_until: dict[Direction, float] = {}
        self._occupancy: dict[Direction, int] = {}

    # ------------------------------------------------------------------
    # Queueing / bandwidth
    # ------------------------------------------------------------------

    def set_bandwidth(self, bandwidth: float,
                      queue_limit: Optional[int] = None) -> "Link":
        """Make the link rate-limited with a finite FIFO buffer."""
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        if queue_limit is not None and queue_limit < 1:
            raise ValueError("queue_limit must be at least 1")
        self.bandwidth = bandwidth
        self.queue_limit = queue_limit
        return self

    def occupancy(self, from_node: "NodeId") -> int:
        """Packets currently buffered (incl. in service) one direction."""
        return self._occupancy.get((from_node, self.other(from_node)), 0)

    def arrival_time(self, scheduler: "EventScheduler", packet: "Packet",
                     from_node: "NodeId") -> Optional[float]:
        """When a packet sent now would arrive at the far end.

        For a plain link: now + delay. For a queueing link: after FIFO
        queueing and serialization; returns None on a tail drop.
        ``scheduler`` is used to time the buffer-release bookkeeping.
        """
        now = scheduler.now
        if self.bandwidth is None:
            return now + self.delay
        direction = (from_node, self.other(from_node))
        occupancy = self._occupancy.get(direction, 0)
        if self.queue_limit is not None and occupancy >= self.queue_limit:
            self.queue_drops += 1
            return None
        start = max(now, self._busy_until.get(direction, now))
        finish = start + packet.size / self.bandwidth
        self._busy_until[direction] = finish
        self._occupancy[direction] = occupancy + 1
        scheduler.schedule_at(finish, self._release, direction)
        return finish + self.delay

    def _release(self, direction: Direction) -> None:
        self._occupancy[direction] = max(0,
                                         self._occupancy.get(direction, 0)
                                         - 1)

    @property
    def ends(self) -> Tuple["NodeId", "NodeId"]:
        return (self.a, self.b)

    def other(self, node: "NodeId") -> "NodeId":
        """The far end of the link as seen from ``node``."""
        if node == self.a:
            return self.b
        if node == self.b:
            return self.a
        raise ValueError(f"node {node} is not an end of {self}")

    def add_filter(self, drop_filter: DropFilter) -> DropFilter:
        self.filters.append(drop_filter)
        return drop_filter

    def remove_filter(self, drop_filter: DropFilter) -> None:
        self.filters.remove(drop_filter)

    def clear_filters(self) -> None:
        self.filters.clear()

    def drops_packet(self, packet: "Packet", from_node: "NodeId") -> bool:
        """Consult all filters; True if any of them drops the packet."""
        to_node = self.other(from_node)
        dropped = False
        for drop_filter in self.filters:
            if drop_filter.consume(packet, from_node, to_node):
                dropped = True
        return dropped

    def account(self, packet: "Packet") -> None:
        """Record a successful traversal for bandwidth bookkeeping."""
        self.packets_carried += 1
        self.bytes_carried += packet.size

    def __repr__(self) -> str:
        return (f"<Link {self.a}<->{self.b} delay={self.delay} "
                f"thr={self.threshold}>")
