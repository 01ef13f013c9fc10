"""Unit tests for the repair side of the SRM agent (Section III-B)."""

import pytest

from repro.core.config import SrmConfig
from repro.core.names import AduName, DEFAULT_PAGE
from repro.net.link import MatchDropFilter, NthPacketDropFilter
from repro.topology.chain import chain
from repro.topology.star import star

from conftest import build_srm_session


NAME1 = AduName(0, DEFAULT_PAGE, 1)


def drop_first_data(network, a, b):
    network.add_drop_filter(a, b, NthPacketDropFilter(
        lambda p: p.kind == "srm-data"))


def send_pair(network, agent, gap=1.0):
    network.scheduler.schedule(0.0, lambda: agent.send_data("dropped"))
    network.scheduler.schedule(gap, lambda: agent.send_data("trigger"))


def test_exactly_one_repair_on_chain():
    config = SrmConfig(c1=1.0, c2=0.0, d1=1.0, d2=0.0)
    network, agents, _ = build_srm_session(chain(8), range(8), config=config)
    drop_first_data(network, 3, 4)
    send_pair(network, agents[0])
    network.run()
    repairs = network.trace.filter(kind="send_repair")
    assert len(repairs) == 1
    assert repairs[0].node == 3  # the good node adjacent to the failure


def test_any_member_with_data_can_answer():
    """Reliability does not depend on the original source staying around
    (Section III): after the data is disseminated, the source leaves and
    another member answers a late joiner's recovery."""
    network, agents, group = build_srm_session(chain(5), range(4))
    send_pair(network, agents[0])
    network.run()
    agents[0].leave_group()
    # Node 4 joins late and hears a fresh packet, revealing the history.
    from repro.core.agent import SrmAgent
    from repro.sim.rng import RandomSource
    late = SrmAgent(SrmConfig(), RandomSource(99))
    network.attach(4, late)
    late.join_group(group)
    network.scheduler.schedule(1.0, lambda: agents[1].send_data("new"))
    network.run()
    # Late node recovered source 0's data without source 0's help.
    assert late.store.have(AduName(1, DEFAULT_PAGE, 1))


def test_repair_timer_cancelled_by_other_repair():
    # A wide D2 interval spreads the 29 potential repliers out enough
    # for the first repair to suppress almost everyone (the star needs
    # probabilistic suppression -- Section IV-B, applied to repairs).
    config = SrmConfig(d1=1.0, d2=30.0)
    network, agents, _ = build_srm_session(star(30), range(1, 31),
                                           config=config)
    # Drop on the hub->leaf-2 link: only leaf 2 loses the packet, so the
    # other 29 members all hold the data and race to answer its request.
    drop_first_data(network, 0, 2)
    send_pair(network, agents[1])
    network.run()
    cancelled = sum(agents[n].repairs_cancelled for n in range(1, 31))
    sent = sum(agents[n].repairs_sent for n in range(1, 31))
    assert sent >= 1
    scheduled = len(network.trace.filter(kind="repair_scheduled"))
    assert scheduled > sent
    assert cancelled >= scheduled - sent - 1
    assert cancelled > sent


def test_star_repair_implosion_with_narrow_interval():
    """The contrast case: with the default log10(G) repair interval, a
    star produces many duplicate repairs -- the motivation for adapting
    D2 upward (Section VII-A)."""
    network, agents, _ = build_srm_session(star(30), range(1, 31))
    drop_first_data(network, 0, 2)
    send_pair(network, agents[1])
    network.run()
    sent = sum(agents[n].repairs_sent for n in range(1, 31))
    assert sent > 5


def test_repair_timer_interval_uses_distance_to_requester():
    config = SrmConfig(d1=3.0, d2=1.0)
    network, agents, _ = build_srm_session(chain(6), range(6), config=config)
    drop_first_data(network, 4, 5)
    send_pair(network, agents[0])
    network.run()
    context = agents[2]._repairs.get(NAME1)
    assert context is not None
    assert context.requester == 5
    distance = 3.0  # node 2 -> requester node 5
    # The drawn delay survives in the timer even after cancellation.
    delay = context.timer.time - context.set_at
    assert config.d1 * distance <= delay + 1e-9
    assert delay <= (config.d1 + config.d2) * distance + 1e-9


def test_holddown_ignores_duplicate_requests():
    """Section III-B: after sending/receiving a repair, requests for the
    same data are ignored for 3*d, preventing repair echo storms."""
    network, agents, _ = build_srm_session(star(20), range(1, 21),
                                           config=SrmConfig(c1=0.0, c2=0.5))
    # Tiny C2 so many duplicate requests fire nearly simultaneously.
    drop_first_data(network, 1, 0)
    send_pair(network, agents[1])
    network.run()
    ignored = network.trace.count("request_ignored_holddown")
    repairs = network.trace.count("send_repair")
    requests = network.trace.count("send_request")
    assert requests > 3
    assert ignored > 0
    # Far fewer repairs than requests: the holddown did its job.
    assert repairs < requests


def test_pending_repair_ignores_further_requests():
    network, agents, _ = build_srm_session(star(20), range(1, 21),
                                           config=SrmConfig(c1=0.0, c2=0.5))
    drop_first_data(network, 1, 0)
    send_pair(network, agents[1])
    network.run()
    assert network.trace.count("request_while_repair_pending") > 0


def test_repair_delivers_data_and_records_recovery():
    network, agents, _ = build_srm_session(chain(5), range(5))
    drop_first_data(network, 1, 2)
    send_pair(network, agents[0])
    network.run()
    recoveries = network.trace.filter(kind="data_recovered")
    assert {row.node for row in recoveries} == {2, 3, 4}
    for row in recoveries:
        assert row.detail["delay"] > 0
        assert row.detail["rtt"] > 0


def test_repair_sets_holddown_at_receivers():
    network, agents, _ = build_srm_session(chain(5), range(5))
    drop_first_data(network, 1, 2)
    send_pair(network, agents[0])
    network.run()
    # Every member that sent or received the repair recorded a hold-down
    # window for that name (it may have expired by the end of the run).
    for node in (2, 3, 4):
        assert NAME1 in agents[node]._holddown


def test_source_answers_requests_for_its_own_data():
    network, agents, _ = build_srm_session(chain(3), range(3))
    drop_first_data(network, 1, 2)
    send_pair(network, agents[0])
    network.run()
    repairs = network.trace.filter(kind="send_repair")
    # On a 3-chain the answer comes from node 1 or the source itself;
    # either way the data arrives.
    assert len(repairs) >= 1
    assert agents[2].store.have(NAME1)


def test_lost_repair_triggers_rerequest():
    """Requests are retransmitted with backoff until the repair lands
    (Section VII-A: members rely on retransmit timers when requests or
    repairs are themselves dropped)."""
    network, agents, _ = build_srm_session(chain(3), range(3))
    drop_first_data(network, 1, 2)
    repair_killer = NthPacketDropFilter(lambda p: p.kind == "srm-repair")
    network.add_drop_filter(1, 2, repair_killer)
    send_pair(network, agents[0])
    network.run(until=2000.0)
    assert agents[2].store.have(NAME1)
    assert agents[2].requests_sent >= 2
    assert network.trace.count("send_repair") >= 2
