"""Every declared trace kind is emitted, each row with its declared keys.

The kind table in :mod:`repro.sim.trace` is the whole row vocabulary:
the collector's kind sets, the race detector's masks and the herd's
shared kinds are read off it. A row nothing emits must leave the table,
and a row an engine emits must be in it with exactly its declared keys.
Small scenarios that together reach every table row run here with the
``trace-schema`` oracle attached — the per-push proof of what the
``SRM_CHECK=1`` suite checks nightly.
"""

from __future__ import annotations

from typing import Set

from repro.core.agent import SrmAgent
from repro.core.config import SrmConfig
from repro.core.names import AduName, DEFAULT_PAGE, PageId
from repro.experiments.figure5 import star_scenario
from repro.herd import HerdSimulation, attach_herd_oracles
from repro.live.session import LiveEngine, live_config
from repro.live.transport import LinkEmulator
from repro.net.link import NthPacketDropFilter
from repro.oracle import SessionOracleSuite, TraceSchemaOracle
from repro.sim.rng import RandomSource
from repro.sim.trace import DELIVER, DROP, KINDS
from repro.topology.chain import chain
from repro.topology.star import star
from repro.wb import DrawOp, DrawType, Whiteboard
from repro.wb.integrity import corrupt

from conftest import build_srm_session


def _data(packet) -> bool:
    return packet.kind == "srm-data"


class Watcher:
    """Schema suites on every engine a scenario builds, and the kinds
    their rows carried."""

    def __init__(self) -> None:
        self.suites = []
        self.seen: Set[str] = set()

    def watch(self, engine) -> None:
        self.add(SessionOracleSuite.attach(engine,
                                           oracles=[TraceSchemaOracle]),
                 engine.trace)

    def add(self, suite, trace) -> None:
        self.suites.append(suite)
        trace.subscribe(lambda row: self.seen.add(row.kind))

    def verify(self) -> None:
        for suite in self.suites:
            suite.verify(context="trace schema")


def loss_recovery_on_a_star(watcher: Watcher) -> None:
    """Requests, repairs and their suppression; drops; the reset."""
    config = SrmConfig(c1=2.0, c2=0.5, d1=1.0, d2=0.5)
    network, agents, _ = build_srm_session(star(8), range(1, 9),
                                           config=config)
    watcher.watch(network)
    network.add_drop_filter(0, 2, NthPacketDropFilter(_data))
    network.add_drop_filter(0, 3, NthPacketDropFilter(_data))
    network.add_drop_filter(0, 4, NthPacketDropFilter(_data))
    network.scheduler.schedule(0.0, agents[1].send_data, "payload")
    network.scheduler.schedule(1.0, agents[1].send_data, "trigger")
    network.run()
    for agent in agents.values():
        agent.reset_recovery_state()


def holddown_outlasting_the_repeat_request(watcher: Watcher) -> None:
    """Member 2's only repair is lost, and its second request falls
    inside everyone's (deliberately long) hold-down: it gives up."""
    config = SrmConfig(holddown_factor=30.0, max_request_rounds=2)
    network, agents, _ = build_srm_session(chain(3), range(3),
                                           config=config)
    watcher.watch(network)
    network.add_drop_filter(1, 2, NthPacketDropFilter(_data))
    network.add_drop_filter(1, 2, NthPacketDropFilter(
        lambda packet: packet.kind == "srm-repair"))
    network.scheduler.schedule(0.0, agents[0].send_data, "x")
    network.scheduler.schedule(1.0, agents[0].send_data, "y")
    network.run()
    assert not agents[2].store.have(AduName(0, DEFAULT_PAGE, 1))


def session_messages(watcher: Watcher) -> None:
    config = SrmConfig(session_enabled=True)
    network, agents, _ = build_srm_session(chain(3), range(3),
                                           config=config)
    watcher.watch(network)
    network.run(until=20.0)


def page_state_recovery(watcher: Watcher) -> None:
    """Two late joiners ask for one page; six members can answer."""
    network, agents, group = build_srm_session(chain(8), range(6))
    watcher.watch(network)
    page = PageId(creator=0, number=1)
    network.scheduler.schedule(0.0, agents[0].send_data, "x", page)
    network.run()
    for node, seed in ((6, 1), (7, 2)):
        late = SrmAgent(SrmConfig(), RandomSource(seed))
        network.attach(node, late)
        late.join_group(group)
        network.scheduler.schedule(1.0, late.request_page_state, page)
    network.run()


def fec_send_and_reconstruct(watcher: Watcher) -> None:
    network, agents, _ = build_srm_session(
        chain(3), range(3), config=SrmConfig(fec_block=2))
    watcher.watch(network)
    network.add_drop_filter(0, 1, NthPacketDropFilter(_data))
    for index in range(2):
        network.scheduler.schedule(float(index), agents[0].send_data,
                                   f"payload-{index}")
    network.run()


def wb_integrity_rejection(watcher: Watcher) -> None:
    """A corrupt copy answers a request and is refused (Section III-E)."""
    network = chain(3).build()
    watcher.watch(network)
    group = network.groups.allocate("wb")
    rng = RandomSource(11)
    boards = []
    for node in range(3):
        board = Whiteboard(SrmConfig(), rng.fork(f"b{node}"),
                           integrity_key=b"key")
        board.join(network, node, group)
        boards.append(board)
    page = boards[0].create_page()
    name = boards[0].draw(page, DrawOp(DrawType.LINE, ((0.0, 0.0),
                                                       (1.0, 1.0))))
    network.run()
    victim = boards[1].agent
    victim.store.held[name] = corrupt(victim.store.get(name))
    boards[2].agent.store.evict(name)
    boards[0].agent.leave_group()
    network.scheduler.schedule(1.0, boards[2].agent.on_loss_detected, name)
    network.run()
    assert boards[2].integrity_rejections >= 1


def queue_drop_on_a_bottleneck(watcher: Watcher) -> None:
    network, agents, _ = build_srm_session(chain(4), range(4),
                                           delivery="hop")
    watcher.watch(network)
    network.set_link_bandwidth(1, 2, 500.0, queue_limit=1)
    for index in range(4):
        network.scheduler.schedule(0.0, agents[0].send_data, f"b{index}")
    network.scheduler.schedule(100.0, agents[0].send_data, "beacon")
    network.run()


def two_step_local_repair(watcher: Watcher) -> None:
    config = SrmConfig(request_ttl=4, local_repair_mode="two-step")
    network, agents, _ = build_srm_session(chain(12), range(12),
                                           config=config)
    watcher.watch(network)
    network.add_drop_filter(8, 9, NthPacketDropFilter(_data))
    network.scheduler.schedule(0.0, agents[0].send_data, "x")
    network.scheduler.schedule(1.0, agents[0].send_data, "y")
    network.run()


def full_trace_herd_round(watcher: Watcher) -> None:
    sim = HerdSimulation(star_scenario(16), config=SrmConfig(c1=2.0, c2=0.5),
                         seed=0)
    watcher.add(attach_herd_oracles(sim, oracles=(TraceSchemaOracle,)),
                sim.trace)
    assert sim.run_round().recovered
    herd_kinds = {kind for kind, spec in KINDS.items() if spec.herd}
    assert {row.kind for row in sim.trace} <= herd_kinds


def live_mesh(watcher: Watcher) -> None:
    master = RandomSource(7)
    engine = LiveEngine(link=LinkEmulator(master.fork("link"), loss=0.5,
                                          delay=0.005, jitter=0.002),
                        default_distance=0.01)
    watcher.watch(engine)
    group = engine.groups.allocate("mesh")
    agents = []
    for member in range(3):
        agent = SrmAgent(live_config(default_distance=0.01),
                         master.fork(f"member-{member}"))
        engine.attach(member, agent)
        agent.join_group(group)
        agents.append(agent)
    names = []
    for index in range(6):
        engine.scheduler.schedule(index * 0.02, lambda i=index: names.append(
            agents[0].send_data(f"adu-{i}")))
    engine.run(5.0, stop_when=lambda: len(names) == 6 and all(
        agent.store.have(name) for agent in agents for name in names))
    assert {DELIVER, DROP} <= {row.kind for row in engine.trace}


SCENARIOS = (loss_recovery_on_a_star, holddown_outlasting_the_repeat_request,
             session_messages, page_state_recovery, fec_send_and_reconstruct,
             wb_integrity_rejection, queue_drop_on_a_bottleneck,
             two_step_local_repair, full_trace_herd_round, live_mesh)


def test_every_declared_kind_is_emitted_with_its_declared_keys():
    watcher = Watcher()
    for scenario in SCENARIOS:
        scenario(watcher)
    watcher.verify()
    assert watcher.seen == set(KINDS), sorted(set(KINDS) ^ watcher.seen)
