"""Misuse, lifecycle and invariant tests for the SRM agent."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.agent import SrmAgent
from repro.core.config import SrmConfig
from repro.core.names import AduName, DEFAULT_PAGE, PageId
from repro.net.link import NthPacketDropFilter
from repro.sim.rng import RandomSource
from repro.topology.chain import chain
from repro.topology.star import star

from conftest import build_srm_session


def test_send_before_join_raises():
    network = chain(3).build()
    agent = SrmAgent()
    network.attach(0, agent)
    with pytest.raises(RuntimeError):
        agent.send_data("x")


def test_join_before_attach_raises():
    agent = SrmAgent()
    group_holder = chain(3).build().groups.allocate()
    with pytest.raises(RuntimeError):
        agent.join_group(group_holder)


def test_sequence_numbers_are_per_page():
    network, agents, _ = build_srm_session(chain(3), range(3))
    agent = agents[0]
    page_a = PageId(0, 1)
    page_b = PageId(0, 2)
    names = [agent.send_data("x", page=page_a),
             agent.send_data("y", page=page_a),
             agent.send_data("z", page=page_b)]
    assert [name.seq for name in names] == [1, 2, 1]
    network.run()


def test_peek_next_seq_matches_send():
    network, agents, _ = build_srm_session(chain(3), range(3))
    agent = agents[0]
    assert agent.peek_next_seq() == 1
    name = agent.send_data("x")
    assert name.seq == 1
    assert agent.peek_next_seq() == 2
    network.run()


def test_group_size_reflects_membership():
    network, agents, group = build_srm_session(chain(4), range(4))
    assert agents[0].group_size() == 4
    agents[3].leave_group()
    assert agents[0].group_size() == 3
    assert agents[3].group_size() == 1  # not in any group


def test_create_page_uses_source_id():
    network, agents, _ = build_srm_session(chain(3), range(3))
    page = agents[2].create_page(7)
    assert page.creator == 2
    assert page.number == 7


def test_reset_recovery_state_cancels_everything():
    network, agents, _ = build_srm_session(chain(5), range(5))
    network.add_drop_filter(1, 2, NthPacketDropFilter(
        lambda p: p.kind == "srm-data"))
    network.scheduler.schedule(0.0, lambda: agents[0].send_data("a"))
    network.scheduler.schedule(1.0, lambda: agents[0].send_data("b"))
    network.run(until=5.0)  # losses detected, timers pending
    assert agents[4].pending_requests()
    agents[4].reset_recovery_state()
    assert agents[4].pending_requests() == []
    assert agents[4].pending_repairs() == []
    network.run()  # drains without the cancelled timers firing


def test_reset_releases_contexts_and_replaces_only_what_it_must():
    """A member with recovery state has its context timers released and
    gets empty tables; one without keeps its (empty) tables. Both write
    one recovery_reset row, as before."""
    network, agents, _ = build_srm_session(chain(5), range(5))
    network.add_drop_filter(1, 2, NthPacketDropFilter(
        lambda p: p.kind == "srm-data"))
    network.scheduler.schedule(0.0, lambda: agents[0].send_data("a"))
    network.scheduler.schedule(1.0, lambda: agents[0].send_data("b"))
    network.run(until=5.0)  # losses detected, timers pending
    busy, idle = agents[4], agents[1]
    contexts = list(busy._requests.values())
    assert contexts and not (idle._requests or idle._repairs
                             or idle._page_requests or idle._holddown)
    idle_tables = (idle._requests, idle._repairs, idle._page_requests,
                   idle._holddown)
    trace = network.trace
    before = trace.kind_totals["recovery_reset"]
    busy.reset_recovery_state()
    idle.reset_recovery_state()
    # Each context's event is released: cancelled, and no longer
    # holding the context it would have called back with.
    assert all(not context.timer.pending and context.timer.args == ()
               for context in contexts)
    assert (busy._requests, busy._repairs, busy._page_requests,
            busy._holddown) == ({}, {}, {}, {})
    assert all(kept is now for kept, now in zip(idle_tables, (
        idle._requests, idle._repairs, idle._page_requests,
        idle._holddown)))
    assert trace.kind_totals["recovery_reset"] == before + 2
    assert [row.node for row in trace.records
            if row.kind == "recovery_reset"][-2:] == [4, 1]
    network.run()  # drains without the released timers firing


def test_context_timers_read_not_pending_after_close():
    """``Network.close()`` releases each context's timer event and
    clears the scheduler, so a context's pending test then reads false
    and the event holds neither the agent's bound method nor the
    context. An event an owner never released, dropped with the
    scheduler's buckets, reads false too."""
    network, agents, _ = build_srm_session(chain(5), range(5))
    network.add_drop_filter(1, 2, NthPacketDropFilter(
        lambda p: p.kind == "srm-data"))
    network.scheduler.schedule(0.0, lambda: agents[0].send_data("a"))
    network.scheduler.schedule(1.0, lambda: agents[0].send_data("b"))
    network.run(until=5.0)  # losses detected, timers pending
    contexts = [context for agent in agents.values()
                for context in agent._requests.values()]
    assert contexts and any(context.timer.pending for context in contexts)
    unreleased = network.scheduler.schedule(50.0, lambda: None)
    network.close()
    assert network.scheduler.pending() == 0
    assert all(not context.timer.pending and context.timer.args == ()
               for context in contexts)
    assert not unreleased.pending


def test_fixed_timer_params_are_shared_per_group_size():
    """Non-adaptive members share one TimerParams per (C1, C2, D1, D2,
    group size), read when a member first asks; a recovery round leaves
    it as it was. Adaptive members keep their own."""
    network, agents, group = build_srm_session(chain(150), range(2))
    for node in range(2, 100):  # joins before anyone asks
        network.join(node, group)
    shared = agents[0].params
    assert agents[1].params is shared
    assert shared == SrmConfig().fixed_params(100)
    assert shared.d1 == shared.d2 == 2.0  # log10(100)
    _, others, _ = build_srm_session(chain(6), range(6),
                                     config=SrmConfig(d1=1.5))
    assert others[0].params is others[5].params is not shared
    assert others[0].params == SrmConfig(d1=1.5).fixed_params(6)

    network, agents, _ = build_srm_session(chain(5), range(5))
    network.add_drop_filter(1, 2, NthPacketDropFilter(
        lambda p: p.kind == "srm-data"))
    network.scheduler.schedule(0.0, lambda: agents[0].send_data("a"))
    network.scheduler.schedule(1.0, lambda: agents[0].send_data("b"))
    network.run()
    assert all(agent.store.have(AduName(0, DEFAULT_PAGE, 1))
               for agent in agents.values())
    assert {id(agent.params) for agent in agents.values()} == {
        id(agents[0].params)}
    assert agents[0].params == SrmConfig().fixed_params(5)

    _, adaptive, _ = build_srm_session(chain(5), range(5),
                                       config=SrmConfig(adaptive=True))
    owned = [agent.params for agent in adaptive.values()]
    assert len({id(params) for params in owned}) == 5
    assert all(params is not agents[0].params for params in owned)


def test_agents_ignore_other_groups_on_shared_node():
    """Two agents on one node, different groups: no cross-talk."""
    network = chain(3).build()
    group_a = network.groups.allocate("a")
    group_b = network.groups.allocate("b")
    agent_a0 = SrmAgent(SrmConfig(), RandomSource(1))
    agent_b0 = SrmAgent(SrmConfig(), RandomSource(2))
    network.attach(0, agent_a0)
    network.attach(0, agent_b0)
    agent_a0.join_group(group_a)
    agent_b0.join_group(group_b)
    agent_a2 = SrmAgent(SrmConfig(), RandomSource(3))
    agent_b2 = SrmAgent(SrmConfig(), RandomSource(4))
    network.attach(2, agent_a2)
    network.attach(2, agent_b2)
    agent_a2.join_group(group_a)
    agent_b2.join_group(group_b)
    network.scheduler.schedule(0.0, lambda: agent_a0.send_data("for-a"))
    network.run()
    name = AduName(0, DEFAULT_PAGE, 1)
    assert agent_a2.store.have(name)
    assert not agent_b2.store.have(name)
    assert agent_b2.data_received == 0


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_adaptive_params_always_within_bounds_during_runs(seed):
    """Whatever happens in a run, every member's live parameters stay
    inside the Fig. 11 clamps."""
    config = SrmConfig(adaptive=True)
    network, agents, _ = build_srm_session(star(15), range(1, 16),
                                           config=config, seed=seed)
    network.add_drop_filter(1, 0, NthPacketDropFilter(
        lambda p: p.kind == "srm-data"))
    network.scheduler.schedule(0.0, lambda: agents[1].send_data("a"))
    network.scheduler.schedule(1.0, lambda: agents[1].send_data("b"))
    network.run(max_events=2_000_000)
    bounds = config.adaptive_bounds
    for agent in agents.values():
        params = agent.params
        assert bounds.c1_min <= params.c1 <= bounds.c1_max
        assert bounds.c2_min <= params.c2 <= bounds.c2_max
        assert bounds.d1_min <= params.d1 <= \
            bounds.effective_d1_max(agent.group_size()) + 1e-9
        assert bounds.d2_min <= params.d2 <= bounds.d2_max


def test_holddown_anchor_prefers_first_requester():
    network, agents, _ = build_srm_session(chain(5), range(5))
    network.add_drop_filter(1, 2, NthPacketDropFilter(
        lambda p: p.kind == "srm-data"))
    network.scheduler.schedule(0.0, lambda: agents[0].send_data("a"))
    network.scheduler.schedule(1.0, lambda: agents[0].send_data("b"))
    network.run()
    name = AduName(0, DEFAULT_PAGE, 1)
    # Hold-down windows were recorded at the members that saw the repair.
    windows = [agents[n]._holddown.get(name) for n in (2, 3, 4)]
    assert all(window is not None for window in windows)


def test_trace_disabled_network_still_recovers():
    network, agents, _ = build_srm_session(chain(4), range(4))
    network.trace.keep = ()
    network.add_drop_filter(1, 2, NthPacketDropFilter(
        lambda p: p.kind == "srm-data"))
    network.scheduler.schedule(0.0, lambda: agents[0].send_data("a"))
    network.scheduler.schedule(1.0, lambda: agents[0].send_data("b"))
    network.run()
    assert agents[3].store.have(AduName(0, DEFAULT_PAGE, 1))
    assert len(network.trace) == 0
