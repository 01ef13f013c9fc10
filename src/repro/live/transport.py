"""Live transports: the proxy link and the UDP socket backends.

Transport matrix (see docs/live.md):

* **mesh** — no sockets at all. A single :class:`LiveEngine` hosts every
  member in-process and delivers multicast locally through a
  :class:`LinkEmulator`, the loss/delay/reorder-injecting proxy link.
  Deterministic-ish (all randomness is seeded; only callback timing is
  real) and CI-safe.
* **udp-peer** (:class:`UdpPeerTransport`) — one process per member on
  UDP loopback; every frame is unicast-fanned-out to a fixed list of
  peer ports. No multicast routing required, works everywhere.
* **udp-multicast** (:class:`UdpMulticastTransport`) — real IP multicast
  on a 224.x group, loopback-enabled, which is how the paper's wb
  actually ran.

Both socket transports frame packets with :mod:`repro.live.framing`
(fragmenting frames that exceed the datagram budget, reassembling
per-sender on receive) and hand *decoded wire dicts* to the engine; all
garbage is dropped and counted, never raised.
"""

from __future__ import annotations

import asyncio
import socket
import struct
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Sequence, \
    Tuple

from repro.codec import WireFormatError
from repro.core.messages import KIND_DATA, KIND_REPAIR
from repro.live.framing import (FragmentReassembler, MAX_DATAGRAM,
                                decode_frame, split_datagrams)
from repro.net.packet import Packet
from repro.sim.rng import RandomSource

#: A decoded frame (wire dict) handed up to the engine.
FrameHandler = Callable[[Dict[str, Any]], None]

#: Kinds the proxy link drops by default: payload traffic, so recovery
#: is exercised, while session/control traffic survives (matching the
#: matched-sim loss model in repro.live.soak).
DEFAULT_LOSS_KINDS: FrozenSet[str] = frozenset({KIND_DATA, KIND_REPAIR})


class LinkEmulator:
    """The proxy link: seeded Bernoulli loss, delay jitter, reordering.

    One emulator models every (sender, receiver) path of the in-process
    mesh — each delivery consults it independently, so losses are
    per-receiver, like per-leaf drop filters in the sim. On the socket
    transports it sits on the *receive* path, emulating an impaired last
    hop.
    """

    __slots__ = ("rng", "loss", "delay", "jitter", "reorder", "loss_kinds",
                 "dropped", "delivered")

    def __init__(self, rng: RandomSource, loss: float = 0.0,
                 delay: float = 0.01, jitter: float = 0.0,
                 reorder: float = 0.0,
                 loss_kinds: FrozenSet[str] = DEFAULT_LOSS_KINDS) -> None:
        if not 0.0 <= loss <= 1.0:
            raise ValueError(f"loss probability {loss} outside [0, 1]")
        self.rng = rng
        self.loss = loss
        self.delay = delay
        self.jitter = jitter
        self.reorder = reorder
        self.loss_kinds = loss_kinds
        self.dropped = 0
        self.delivered = 0

    def drops(self, packet: Packet) -> bool:
        """One independent Bernoulli trial for this (packet, receiver)."""
        if self.loss and packet.kind in self.loss_kinds \
                and self.rng.random() < self.loss:
            self.dropped += 1
            return True
        self.delivered += 1
        return False

    def delay_draw(self) -> float:
        """Propagation delay for one delivery, with jitter and reorder.

        A reordered delivery is held back one extra base delay, putting
        it behind packets sent after it.
        """
        delay = self.delay
        if self.jitter:
            delay += self.rng.uniform(-self.jitter, self.jitter)
        if self.reorder and self.rng.random() < self.reorder:
            delay += self.delay
        return max(0.0, delay)


# ----------------------------------------------------------------------
# UDP socket transports
# ----------------------------------------------------------------------


class _DatagramProtocol(asyncio.DatagramProtocol):
    """Routes received datagrams into the owning transport."""

    def __init__(self, owner: "_UdpTransportBase") -> None:
        self._owner = owner

    def datagram_received(self, data: bytes, addr: Any) -> None:
        self._owner._datagram_received(data, (str(addr[0]), int(addr[1])))

    def error_received(self, exc: Exception) -> None:
        self._owner.socket_errors += 1


class _UdpTransportBase:
    """Shared framing/reassembly receive path of both UDP transports."""

    def __init__(self, max_datagram: int = MAX_DATAGRAM) -> None:
        self.max_datagram = max_datagram
        self._transport: Optional[asyncio.DatagramTransport] = None
        self._on_frame: Optional[FrameHandler] = None
        self._frame_id = 0
        #: One reassembler per remote (host, port).
        self._reassemblers: Dict[Tuple[str, int], FragmentReassembler] = {}
        self.frames_sent = 0
        self.frames_received = 0
        #: Datagrams/frames rejected by the framing layer.
        self.framing_errors = 0
        self.socket_errors = 0

    # -- overridden by subclasses --------------------------------------

    async def open(self, loop: asyncio.AbstractEventLoop,
                   on_frame: FrameHandler) -> None:
        raise NotImplementedError

    def _fan_out(self, datagram: bytes) -> None:
        raise NotImplementedError

    # -- common paths --------------------------------------------------

    def send_frame(self, frame: bytes) -> None:
        """Fragment and transmit one frame to every peer."""
        if self._transport is None:
            return
        self._frame_id += 1
        for datagram in split_datagrams(frame, self._frame_id,
                                        self.max_datagram):
            self._fan_out(datagram)
        self.frames_sent += 1

    def _datagram_received(self, data: bytes,
                           addr: Tuple[str, int]) -> None:
        reassembler = self._reassemblers.get(addr)
        if reassembler is None:
            reassembler = FragmentReassembler()
            self._reassemblers[addr] = reassembler
        before = reassembler.errors
        frame = reassembler.feed(data)
        self.framing_errors += reassembler.errors - before
        if frame is None:
            return
        try:
            wire = decode_frame(frame)
        except WireFormatError:
            self.framing_errors += 1
            return
        self.frames_received += 1
        if self._on_frame is not None:
            self._on_frame(wire)

    async def close(self) -> None:
        if self._transport is not None:
            self._transport.close()
            self._transport = None


class UdpPeerTransport(_UdpTransportBase):
    """Loopback 'multicast' by unicast fan-out over a fixed port list.

    Every member process binds one port and knows every peer's port;
    a send goes to each peer individually. This needs no multicast
    routing and is what ``repro live wb`` uses by default.
    """

    def __init__(self, listen_port: int, peer_ports: Sequence[int],
                 host: str = "127.0.0.1",
                 max_datagram: int = MAX_DATAGRAM) -> None:
        super().__init__(max_datagram)
        self.host = host
        self.listen_port = listen_port
        self.peer_ports: List[int] = [port for port in peer_ports
                                      if port != listen_port]

    async def open(self, loop: asyncio.AbstractEventLoop,
                   on_frame: FrameHandler) -> None:
        self._on_frame = on_frame
        transport, _ = await loop.create_datagram_endpoint(
            lambda: _DatagramProtocol(self),
            local_addr=(self.host, self.listen_port))
        self._transport = transport

    def _fan_out(self, datagram: bytes) -> None:
        assert self._transport is not None
        for port in self.peer_ports:
            self._transport.sendto(datagram, (self.host, port))


class UdpMulticastTransport(_UdpTransportBase):
    """Real IP multicast (loopback-enabled), as the paper's wb ran.

    All members share one (group, port); the OS fans out. Our own
    frames loop back too — the engine discards them by origin id.
    """

    def __init__(self, group: str = "224.101.13.95", port: int = 47123,
                 ttl: int = 1, interface: str = "127.0.0.1",
                 max_datagram: int = MAX_DATAGRAM) -> None:
        super().__init__(max_datagram)
        self.group = group
        self.port = port
        self.ttl = ttl
        self.interface = interface

    async def open(self, loop: asyncio.AbstractEventLoop,
                   on_frame: FrameHandler) -> None:
        self._on_frame = on_frame
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM,
                             socket.IPPROTO_UDP)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        if hasattr(socket, "SO_REUSEPORT"):  # several members per host
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind(("", self.port))
        membership = struct.pack("4s4s", socket.inet_aton(self.group),
                                 socket.inet_aton(self.interface))
        sock.setsockopt(socket.IPPROTO_IP, socket.IP_ADD_MEMBERSHIP,
                        membership)
        sock.setsockopt(socket.IPPROTO_IP, socket.IP_MULTICAST_TTL,
                        self.ttl)
        sock.setsockopt(socket.IPPROTO_IP, socket.IP_MULTICAST_LOOP, 1)
        sock.setsockopt(socket.IPPROTO_IP, socket.IP_MULTICAST_IF,
                        socket.inet_aton(self.interface))
        sock.setblocking(False)
        transport, _ = await loop.create_datagram_endpoint(
            lambda: _DatagramProtocol(self), sock=sock)
        self._transport = transport

    def _fan_out(self, datagram: bytes) -> None:
        assert self._transport is not None
        self._transport.sendto(datagram, (self.group, self.port))
