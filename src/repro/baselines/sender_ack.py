"""A TCP-style sender-reliable multicast baseline.

The sender multicasts data, every receiver unicasts a positive ACK for
every packet, and the sender retransmits (multicast) anything a tracked
receiver has not acknowledged by a timeout. This is the design Section
II-A rules out: the sender absorbs G-1 ACKs per packet (ACK implosion),
must know the receiver set, and its retransmit timer has no single
meaningful RTT to adapt to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from repro.net.network import Network
from repro.net.node import Agent
from repro.net.packet import GroupAddress, NodeId, Packet
from repro.sim.timers import ScheduledEvent

KIND_DATA = "ack-data"
KIND_ACK = "ack-ack"


@dataclass(frozen=True)
class AckDataPayload:
    seq: int
    data: object


@dataclass(frozen=True)
class AckPayload:
    seq: int
    receiver: int


class SenderAckSource(Agent):
    """The sender: tracks per-receiver ACK state, retransmits on timeout."""

    def __init__(self, group: GroupAddress, receivers: List[NodeId],
                 retransmit_timeout: float = 50.0,
                 max_retransmits: int = 10) -> None:
        super().__init__()
        self.group = group
        self.receivers = list(receivers)
        self.retransmit_timeout = retransmit_timeout
        self.max_retransmits = max_retransmits
        self.next_seq = 1
        self._data: Dict[int, object] = {}
        self._unacked: Dict[int, Set[NodeId]] = {}
        self._timers: Dict[int, ScheduledEvent] = {}
        self._attempts: Dict[int, int] = {}
        self.acks_received = 0
        self.data_sent = 0
        self.retransmissions = 0

    def attached(self, network: Network, node_id: NodeId) -> None:
        super().attached(network, node_id)
        network.join(node_id, self.group)

    def send_data(self, data: object) -> int:
        seq = self.next_seq
        self.next_seq += 1
        self._data[seq] = data
        self._unacked[seq] = {receiver for receiver in self.receivers
                              if receiver != self.node_id}
        self._attempts[seq] = 0
        self._transmit(seq)
        return seq

    def _transmit(self, seq: int) -> None:
        self.network.send_multicast(self.node_id, self.group, KIND_DATA,
                                    AckDataPayload(seq, self._data[seq]))
        self.data_sent += 1
        self._attempts[seq] += 1
        # A first send, or a retransmission from the timeout that just
        # fired: no timer for ``seq`` is pending here.
        self._timers[seq] = self.network.scheduler.schedule(
            self.retransmit_timeout, self._timeout, seq)

    def _timeout(self, seq: int) -> None:
        if not self._unacked.get(seq):
            return
        if self._attempts[seq] >= self.max_retransmits:
            return  # give up: the receiver set is unreachable
        self.retransmissions += 1
        self._transmit(seq)

    def receive(self, packet: Packet) -> None:
        if packet.kind != KIND_ACK:
            return
        payload: AckPayload = packet.payload
        self.acks_received += 1
        outstanding = self._unacked.get(payload.seq)
        if outstanding is None:
            return
        outstanding.discard(payload.receiver)
        if not outstanding:
            timer = self._timers.pop(payload.seq, None)
            if timer is not None:
                timer.cancel()

    def fully_acknowledged(self, seq: int) -> bool:
        return not self._unacked.get(seq)


class SenderAckReceiver(Agent):
    """A receiver: stores data and unicasts an ACK per packet."""

    def __init__(self, group: GroupAddress, source: NodeId) -> None:
        super().__init__()
        self.group = group
        self.source = source
        self.received: Dict[int, object] = {}
        self.acks_sent = 0
        self.first_received_at: Dict[int, float] = {}

    def attached(self, network: Network, node_id: NodeId) -> None:
        super().attached(network, node_id)
        network.join(node_id, self.group)

    def receive(self, packet: Packet) -> None:
        if packet.kind != KIND_DATA:
            return
        payload: AckDataPayload = packet.payload
        if payload.seq not in self.received:
            self.received[payload.seq] = payload.data
            self.first_received_at[payload.seq] = self.now
        self.network.send_unicast(self.node_id, self.source, KIND_ACK,
                                  AckPayload(payload.seq, self.node_id),
                                  size=60)
        self.acks_sent += 1


def build_sender_ack_session(network: Network, source: NodeId,
                             receivers: List[NodeId],
                             retransmit_timeout: float = 50.0,
                             ) -> Tuple[SenderAckSource,
                                        Dict[NodeId, SenderAckReceiver]]:
    """Wire up one sender-reliable session on an existing network."""
    group = network.groups.allocate("ack-session")
    sender = SenderAckSource(group, receivers,
                             retransmit_timeout=retransmit_timeout)
    network.attach(source, sender)
    attached = {}
    for receiver in receivers:
        if receiver == source:
            continue
        agent = SenderAckReceiver(group, source)
        network.attach(receiver, agent)
        attached[receiver] = agent
    return sender, attached
