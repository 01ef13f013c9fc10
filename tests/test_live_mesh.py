"""Loss recovery on the live engine's in-process mesh.

The real-time counterpart of the sim's recovery tests: several SRM
agents in one process, multicast routed through the loss-injecting
proxy link, driven by actual asyncio timers. Every member must converge
to the full ADU set and the wall-clock-tolerant protocol oracles must
stay green over the live trace stream.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.agent import SrmAgent
from repro.core.names import AduName
from repro.live.session import LiveEngine, attach_live_oracles, live_config
from repro.live.transport import LinkEmulator
from repro.sim.rng import RandomSource


def _build_mesh(members: int, loss: float, seed: int):
    master = RandomSource(seed)
    link = LinkEmulator(master.fork("link"), loss=loss, delay=0.005,
                        jitter=0.002)
    engine = LiveEngine(link=link, default_distance=0.01)
    config = live_config(default_distance=0.01)
    group = engine.groups.allocate("mesh")
    agents: Dict[int, SrmAgent] = {}
    for member in range(members):
        agent = SrmAgent(config, master.fork(f"member-{member}"))
        engine.attach(member, agent)
        agent.join_group(group)
        agents[member] = agent
    return engine, link, agents


def test_mesh_recovers_under_heavy_loss_with_oracles_green():
    engine, link, agents = _build_mesh(members=4, loss=0.3, seed=42)
    suite = attach_live_oracles(engine, agents=agents)
    source = agents[0]
    sent: List[AduName] = []

    def send(index: int) -> None:
        sent.append(source.send_data(f"adu-{index}"))

    packets = 20
    for index in range(packets):
        engine.scheduler.schedule(index * 0.02, send, index)

    def converged() -> bool:
        return (len(sent) == packets
                and all(agent.store.have(name)
                        for agent in agents.values() for name in sent))

    engine.run(6.0, stop_when=converged)

    assert len(sent) == packets
    assert converged(), {
        member: sum(1 for name in sent if agent.store.have(name))
        for member, agent in agents.items()}
    # 30% loss over 3 receivers x 20 data packets: recovery genuinely ran.
    assert link.dropped > 0
    suite.verify(context="live mesh recovery")


def test_mesh_without_loss_needs_no_recovery():
    engine, link, agents = _build_mesh(members=3, loss=0.0, seed=1)
    source = agents[0]
    sent: List[AduName] = []
    engine.scheduler.schedule(0.0, lambda: sent.append(
        source.send_data("only")))

    def converged() -> bool:
        return bool(sent) and all(agent.store.have(sent[0])
                                  for agent in agents.values())

    engine.run(2.0, stop_when=converged)
    assert converged()
    assert link.dropped == 0
    # No loss -> no request traffic in the trace.
    kinds = {record.kind for record in engine.trace.records}
    assert "send_request" not in kinds


def test_mesh_trace_carries_drop_records():
    engine, link, agents = _build_mesh(members=4, loss=0.5, seed=7)
    engine.trace.keep = None
    source = agents[0]
    sent: List[AduName] = []
    for index in range(5):
        engine.scheduler.schedule(index * 0.01,
                                  lambda i=index: sent.append(
                                      source.send_data(f"d-{i}")))

    def converged() -> bool:
        return (len(sent) == 5
                and all(agent.store.have(name)
                        for agent in agents.values() for name in sent))

    engine.run(6.0, stop_when=converged)
    drops = [record for record in engine.trace.records
             if record.kind == "drop"]
    assert len(drops) == engine.packets_dropped == link.dropped
    assert converged()
