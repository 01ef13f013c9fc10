"""repro.live — the real-time execution engine.

The same SRM core that runs on the discrete-event simulator runs here on
actual asyncio timers and UDP sockets. :class:`Engine` is the explicit
protocol both environments implement;
:class:`~repro.net.network.Network` is the simulated one and
:class:`LiveEngine` the real-time one. See ``docs/live.md``.
"""

from repro.live.clock import WallClock, unix_now
from repro.live.engine import Engine
from repro.live.framing import (
    FragmentReassembler,
    decode_frame,
    encode_frame,
    frame_to_packet,
    packet_to_frame,
    split_datagrams,
)
from repro.live.scheduler import LiveEvent, LiveScheduler
from repro.live.session import (
    LiveEngine,
    attach_live_oracles,
    live_config,
    live_oracles,
)
from repro.live.soak import (
    SoakResult,
    SoakSpec,
    run_live_soak,
    run_matched_sim,
    run_soak,
)
from repro.live.transport import (
    DEFAULT_LOSS_KINDS,
    LinkEmulator,
    UdpMulticastTransport,
    UdpPeerTransport,
)
from repro.live.wbdemo import WbDemoResult, run_wb_demo, run_wb_member

__all__ = [
    "DEFAULT_LOSS_KINDS",
    "Engine",
    "FragmentReassembler",
    "LinkEmulator",
    "LiveEngine",
    "LiveEvent",
    "LiveScheduler",
    "SoakResult",
    "SoakSpec",
    "UdpMulticastTransport",
    "UdpPeerTransport",
    "WallClock",
    "WbDemoResult",
    "attach_live_oracles",
    "decode_frame",
    "encode_frame",
    "frame_to_packet",
    "live_config",
    "live_oracles",
    "packet_to_frame",
    "run_live_soak",
    "run_matched_sim",
    "run_soak",
    "run_wb_demo",
    "run_wb_member",
    "split_datagrams",
    "unix_now",
]
