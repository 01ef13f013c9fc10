"""Receiver-driven layered reliable multicast (Section IX-C).

"A receiver-based approach under investigation for the video tool vic is
to divide the total data transmission into several substreams, with each
being sent to a separate multicast group. Members that detect congestion
unsubscribe from higher-bandwidth groups. When this approach is used for
reliable multicast, reliable delivery would be provided separately
within each group."

This module composes that architecture out of existing pieces:

* the source runs one :class:`~repro.core.agent.SrmAgent` per layer,
  each on its own multicast group, pacing that layer's substream;
* each receiver runs one SrmAgent per *subscribed* layer — reliability
  is per-layer SRM, exactly as the paper prescribes;
* a receiver-side controller (a simplified RLM) watches per-window loss
  detections: sustained loss drops the top layer, sustained quiet
  triggers a join experiment, and failed joins back off exponentially.

Combined with queueing links (emergent congestion) and pruned multicast
forwarding, a receiver behind a bottleneck settles at the layer count
its path can carry, while well-connected receivers keep everything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.agent import SrmAgent
from repro.core.config import SrmConfig
from repro.net.network import Network
from repro.net.packet import GroupAddress, NodeId
from repro.sim.rng import RandomSource
from repro.sim.timers import ScheduledEvent


@dataclass
class LayerSpec:
    """One substream: its group and transmission schedule."""

    index: int
    group: GroupAddress
    packet_interval: float
    packet_size: int = 1000


def make_layers(network: Network, count: int, base_interval: float = 8.0,
                packet_size: int = 1000) -> List[LayerSpec]:
    """Conventional layering: each layer as fast as all lower together.

    Layer i sends at twice the rate of layer i-1, so cumulative
    bandwidth doubles per subscription level.
    """
    layers = []
    for index in range(count):
        layers.append(LayerSpec(
            index=index,
            group=network.groups.allocate(f"layer-{index}"),
            packet_interval=base_interval / (2 ** index),
            packet_size=packet_size))
    return layers


class LayeredSource:
    """The sender: one SRM session per layer, paced transmissions."""

    def __init__(self, network: Network, node: NodeId,
                 layers: List[LayerSpec],
                 config: Optional[SrmConfig] = None,
                 rng: Optional[RandomSource] = None) -> None:
        self.network = network
        self.node = node
        self.layers = layers
        self.rng = rng if rng is not None else RandomSource(0)
        self.agents: Dict[int, SrmAgent] = {}
        self._timers: Dict[int, ScheduledEvent] = {}
        self._running = False
        base = config if config is not None else SrmConfig()
        for layer in layers:
            agent = SrmAgent(base.copy(), self.rng.fork(f"src-{layer.index}"))
            network.attach(node, agent)
            agent.join_group(layer.group)
            agent.config.data_packet_size = layer.packet_size
            self.agents[layer.index] = agent

    def start(self) -> None:
        self._running = True
        for layer in self.layers:
            self._timers[layer.index] = self.network.scheduler.schedule(
                self.rng.uniform(0.0, layer.packet_interval), self._tick,
                layer)

    def stop(self) -> None:
        """Stop sending; each layer's timer event is released, so it no
        longer calls back into (and holds) this source."""
        self._running = False
        for timer in self._timers.values():
            timer.release()
        self._timers = {}

    def _tick(self, layer: LayerSpec) -> None:
        if not self._running:
            return
        self.agents[layer.index].send_data(
            f"layer{layer.index}-payload")
        self._timers[layer.index] = self.network.scheduler.reschedule_event(
            self._timers[layer.index], layer.packet_interval)

    def packets_sent(self, layer_index: int) -> int:
        return self.agents[layer_index].data_sent


class LayeredReceiver:
    """A receiver with the simplified-RLM subscription controller."""

    def __init__(self, network: Network, node: NodeId,
                 layers: List[LayerSpec],
                 config: Optional[SrmConfig] = None,
                 rng: Optional[RandomSource] = None,
                 decision_interval: float = 40.0,
                 loss_tolerance: int = 1,
                 quiet_windows_to_join: int = 2,
                 join_backoff: float = 2.0,
                 start_layers: int = 1) -> None:
        self.network = network
        self.node = node
        self.layers = layers
        base_config = config if config is not None else SrmConfig()
        # Live substreams: a joining receiver adopts each layer at its
        # current position instead of demanding the layer's history.
        self.config = base_config.copy(adopt_streams=True)
        self.rng = rng if rng is not None else RandomSource(node)
        self.decision_interval = decision_interval
        self.loss_tolerance = loss_tolerance
        self.quiet_windows_to_join = quiet_windows_to_join
        self.join_backoff = join_backoff
        self.agents: Dict[int, SrmAgent] = {}
        self.subscribed = 0
        self.drops_performed = 0
        self.joins_performed = 0
        self._loss_snapshot = 0
        self._quiet_windows = 0
        self._join_holdoff_windows = 0.0
        self._windows_until_join_allowed = 0.0
        self._timer: Optional[ScheduledEvent] = None
        for _ in range(max(1, start_layers)):
            self._subscribe_next()

    # ------------------------------------------------------------------
    # Subscription mechanics
    # ------------------------------------------------------------------

    def _subscribe_next(self) -> None:
        layer = self.layers[self.subscribed]
        agent = SrmAgent(self.config.copy(),
                         self.rng.fork(f"rx{self.node}-l{layer.index}-"
                                       f"{self.joins_performed}"))
        self.network.attach(self.node, agent)
        agent.join_group(layer.group)
        self.agents[layer.index] = agent
        self.subscribed += 1

    def _unsubscribe_top(self) -> None:
        self.subscribed -= 1
        layer = self.layers[self.subscribed]
        agent = self.agents.pop(layer.index)
        agent.reset_recovery_state()
        agent.leave_group()
        self.network.detach(self.node, agent)

    # ------------------------------------------------------------------
    # The control loop
    # ------------------------------------------------------------------

    def start(self) -> None:
        self._timer = self.network.scheduler.schedule(
            self.rng.jitter(self.decision_interval, 0.2), self._decide)

    def stop(self) -> None:
        """Stop deciding; the timer event is released, as the source's."""
        if self._timer is not None:
            self._timer.release()
            self._timer = None

    def _window_losses(self) -> int:
        total = sum(agent.losses_detected for agent in self.agents.values())
        window = total - self._loss_snapshot
        self._loss_snapshot = total
        return window

    def _decide(self) -> None:
        losses = self._window_losses()
        if losses > self.loss_tolerance and self.subscribed > 1:
            # Congestion: shed the top layer and hold off re-joining,
            # longer after every failure (RLM's join-timer backoff).
            self._unsubscribe_top()
            self.drops_performed += 1
            self._quiet_windows = 0
            self._join_holdoff_windows = max(
                2.0, self._join_holdoff_windows * self.join_backoff)
            self._windows_until_join_allowed = self._join_holdoff_windows
            self._loss_snapshot = sum(
                agent.losses_detected for agent in self.agents.values())
        elif losses <= self.loss_tolerance:
            self._quiet_windows += 1
            if self._windows_until_join_allowed > 0:
                self._windows_until_join_allowed -= 1
            elif (self._quiet_windows >= self.quiet_windows_to_join
                    and self.subscribed < len(self.layers)):
                # Join experiment: try the next layer.
                self._subscribe_next()
                self.joins_performed += 1
                self._quiet_windows = 0
                self._loss_snapshot = sum(
                    agent.losses_detected
                    for agent in self.agents.values())
        else:
            self._quiet_windows = 0
        assert self._timer is not None
        self._timer = self.network.scheduler.reschedule_event(
            self._timer, self.rng.jitter(self.decision_interval, 0.2))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def received_on(self, layer_index: int) -> int:
        agent = self.agents.get(layer_index)
        return len(agent.store) if agent is not None else 0
