"""A unicast-NACK baseline (the La Porta & Schwartz comparison).

Receivers detect gaps exactly as SRM members do, but each immediately
unicasts a NACK to the original source, which retransmits by multicast.
No suppression: a loss shared by k receivers costs k NACKs converging on
the source. Recovery delay is bounded below by the receiver's RTT to the
source — SRM's whole-group recovery can beat that bound because both the
request and repair can come from nodes adjacent to the failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.net.network import Network
from repro.net.node import Agent
from repro.net.packet import GroupAddress, NodeId, Packet
from repro.sim.timers import ScheduledEvent

KIND_DATA = "nack-data"
KIND_NACK = "nack-nack"
KIND_REPAIR = "nack-repair"


@dataclass(frozen=True)
class NackDataPayload:
    seq: int
    data: object


@dataclass(frozen=True)
class NackPayload:
    seq: int
    receiver: int


class UnicastNackSource(Agent):
    """The source: answers NACKs with retransmissions.

    ``repair_mode`` selects "multicast" (one retransmission serves every
    sharer of the loss) or "unicast" (the paper's pure point-to-point
    recovery, whose delay floor is the receiver's own RTT).
    """

    def __init__(self, group: GroupAddress,
                 repair_mode: str = "multicast") -> None:
        super().__init__()
        if repair_mode not in ("multicast", "unicast"):
            raise ValueError(f"unknown repair mode {repair_mode!r}")
        self.group = group
        self.repair_mode = repair_mode
        self.next_seq = 1
        self._data: Dict[int, object] = {}
        self.nacks_received = 0
        self.repairs_sent = 0
        #: Suppress repeated retransmissions of the same seq briefly, so
        #: one shared loss does not trigger k identical repairs.
        self.repair_holdoff = 0.0
        self._last_repair_at: Dict[int, float] = {}

    def attached(self, network: Network, node_id: NodeId) -> None:
        super().attached(network, node_id)
        network.join(node_id, self.group)

    def send_data(self, data: object) -> int:
        seq = self.next_seq
        self.next_seq += 1
        self._data[seq] = data
        self.network.send_multicast(self.node_id, self.group, KIND_DATA,
                                    NackDataPayload(seq, data))
        return seq

    def receive(self, packet: Packet) -> None:
        if packet.kind != KIND_NACK:
            return
        payload: NackPayload = packet.payload
        self.nacks_received += 1
        if payload.seq not in self._data:
            return
        retransmission = NackDataPayload(payload.seq,
                                         self._data[payload.seq])
        if self.repair_mode == "unicast":
            self.network.send_unicast(self.node_id, payload.receiver,
                                      KIND_REPAIR, retransmission)
            self.repairs_sent += 1
            return
        last = self._last_repair_at.get(payload.seq)
        if last is not None and self.now - last < self.repair_holdoff:
            return
        self._last_repair_at[payload.seq] = self.now
        self.network.send_multicast(self.node_id, self.group, KIND_REPAIR,
                                    retransmission)
        self.repairs_sent += 1


class UnicastNackReceiver(Agent):
    """A receiver: gap-detects and unicasts NACKs straight to the source."""

    def __init__(self, group: GroupAddress, source: NodeId,
                 nack_timeout: float = 100.0) -> None:
        super().__init__()
        self.group = group
        self.source = source
        self.nack_timeout = nack_timeout
        self.received: Dict[int, object] = {}
        self.highest_seq = 0
        self.nacks_sent = 0
        self.loss_detected_at: Dict[int, float] = {}
        self.recovered_at: Dict[int, float] = {}
        self._timers: Dict[int, ScheduledEvent] = {}

    def attached(self, network: Network, node_id: NodeId) -> None:
        super().attached(network, node_id)
        network.join(node_id, self.group)

    def receive(self, packet: Packet) -> None:
        if packet.kind not in (KIND_DATA, KIND_REPAIR):
            return
        payload: NackDataPayload = packet.payload
        missing_before = payload.seq > self.highest_seq + 1
        if payload.seq not in self.received:
            self.received[payload.seq] = payload.data
            if payload.seq in self.loss_detected_at and \
                    payload.seq not in self.recovered_at:
                self.recovered_at[payload.seq] = self.now
                timer = self._timers.pop(payload.seq, None)
                if timer is not None:
                    timer.cancel()
        if payload.seq > self.highest_seq:
            if missing_before:
                for gap_seq in range(self.highest_seq + 1, payload.seq):
                    if gap_seq not in self.received:
                        self._nack(gap_seq)
            self.highest_seq = payload.seq

    def _nack(self, seq: int) -> None:
        if seq in self.loss_detected_at:
            return
        self.loss_detected_at[seq] = self.now
        self._send_nack(seq)

    def _send_nack(self, seq: int) -> None:
        if seq in self.received:
            return
        self.network.send_unicast(self.node_id, self.source, KIND_NACK,
                                  NackPayload(seq, self.node_id), size=60)
        self.nacks_sent += 1
        self._timers[seq] = self.network.scheduler.schedule(
            self.nack_timeout, self._send_nack, seq)

    def recovery_delay(self, seq: int) -> float:
        return self.recovered_at[seq] - self.loss_detected_at[seq]

    def recovery_delay_ratio(self, seq: int) -> float:
        rtt = self.network.rtt(self.node_id, self.source)
        return self.recovery_delay(seq) / rtt if rtt > 0 else 0.0


def build_unicast_nack_session(network: Network, source: NodeId,
                               receivers: list,
                               repair_mode: str = "multicast",
                               ) -> Tuple[UnicastNackSource,
                                          Dict[NodeId, UnicastNackReceiver]]:
    """Wire up one unicast-NACK session on an existing network."""
    group = network.groups.allocate("nack-session")
    sender = UnicastNackSource(group, repair_mode=repair_mode)
    network.attach(source, sender)
    attached = {}
    for receiver in receivers:
        if receiver == source:
            continue
        agent = UnicastNackReceiver(group, source)
        network.attach(receiver, agent)
        attached[receiver] = agent
    return sender, attached
