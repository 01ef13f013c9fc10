"""Unit tests for the request side of the SRM agent (Section III-B)."""

import random

import pytest

from repro.core import timer_math
from repro.core.config import SrmConfig, TimerParams
from repro.core.names import AduName, DEFAULT_PAGE
from repro.net.link import MatchDropFilter, NthPacketDropFilter
from repro.sim.trace import REQUEST_TIMER_SET
from repro.topology.chain import chain
from repro.topology.star import star

from conftest import build_srm_session


def drop_first_data(network, a, b, source=None):
    network.add_drop_filter(a, b, NthPacketDropFilter(
        lambda p: p.kind == "srm-data" and (source is None
                                            or p.origin == source)))


def send_pair(network, agent, gap=1.0):
    """The paper's round: one dropped packet, one trigger."""
    sent = []
    network.scheduler.schedule(0.0, lambda: sent.append(
        agent.send_data("dropped")))
    network.scheduler.schedule(gap, lambda: agent.send_data("trigger"))
    return sent


def test_loss_detected_on_gap():
    network, agents, _ = build_srm_session(chain(4), range(4))
    drop_first_data(network, 1, 2)
    send_pair(network, agents[0])
    # Triggers arrive at node 2 at t=3 and node 3 at t=4; the earliest
    # request timer (node 2, C1*d = 4) cannot fire before t=7.
    network.run(until=4.5)
    assert agents[2].pending_requests() == [AduName(0, DEFAULT_PAGE, 1)]
    assert agents[3].pending_requests() == [AduName(0, DEFAULT_PAGE, 1)]
    assert agents[1].pending_requests() == []


def test_request_timer_interval_bounds():
    """Request timers are drawn from [C1*d, (C1+C2)*d] of the distance
    to the source (Section III-B)."""
    config = SrmConfig(c1=2.0, c2=2.0)
    for trial in range(10):
        network, agents, _ = build_srm_session(chain(6), range(6),
                                               config=config, seed=trial)
        drop_first_data(network, 0, 1)
        send_pair(network, agents[0])
        network.run(until=2.9)  # nodes detected; no timers fired yet?
        agent = agents[5]
        contexts = agent._requests
        if not contexts:
            network.run(until=7.0)
            contexts = agent._requests
        context = next(iter(contexts.values()))
        distance = 5.0
        delay = context.timer.time - context.detected_at
        assert config.c1 * distance <= delay + 1e-9
        assert delay <= (config.c1 + config.c2) * distance + 1e-9


def test_exactly_one_request_on_chain():
    """Deterministic suppression (Section IV-A): with C1 = D1 = 1 and
    C2 = D2 = 0, timers are pure functions of distance and the chain
    recovers with exactly one request."""
    config = SrmConfig(c1=1.0, c2=0.0, d1=1.0, d2=0.0)
    network, agents, _ = build_srm_session(chain(8), range(8), config=config)
    drop_first_data(network, 3, 4)
    sent = send_pair(network, agents[0])
    network.run()
    requests = network.trace.filter(kind="send_request")
    assert len(requests) == 1
    assert requests[0].node == 4  # the bad node adjacent to the failure


def test_heard_request_suppresses_and_backs_off():
    config = SrmConfig(c1=1.0, c2=0.0, d1=1.0, d2=0.0)
    network, agents, _ = build_srm_session(chain(8), range(8), config=config)
    drop_first_data(network, 3, 4)
    send_pair(network, agents[0])
    network.run()
    far_agent = agents[7]
    assert far_agent.requests_sent == 0
    # Its timer was reset (backed off) when node 4's request was heard.
    backoffs = network.trace.filter(kind="request_backoff", node=7)
    assert len(backoffs) >= 1


def test_backoff_multiplies_interval():
    config = SrmConfig(c1=2.0, c2=2.0, request_backoff=2.0)
    network, agents, _ = build_srm_session(chain(3), range(3), config=config)
    # Drop data and also kill all requests so the requester re-requests.
    drop_first_data(network, 1, 2)
    network.add_drop_filter(1, 2, MatchDropFilter(
        lambda p: p.kind == "srm-request"))
    network.add_drop_filter(0, 1, MatchDropFilter(
        lambda p: p.kind == "srm-request"))
    send_pair(network, agents[0])
    network.run(until=400.0)
    context = agents[2]._requests[AduName(0, DEFAULT_PAGE, 1)]
    # Every send doubles the interval; several rounds must have run.
    assert context.rounds >= 2
    sends = network.trace.filter(kind="send_request", node=2)
    gaps = [b.time - a.time for a, b in zip(sends, sends[1:])]
    assert all(later > earlier for earlier, later in zip(gaps, gaps[1:]))


def test_request_abandoned_after_max_rounds():
    config = SrmConfig(max_request_rounds=3)
    network, agents, _ = build_srm_session(chain(3), range(3), config=config)
    drop_first_data(network, 1, 2)
    # No repairs can ever arrive: requests never get through.
    network.add_drop_filter(1, 2, MatchDropFilter(
        lambda p: p.kind in ("srm-request", "srm-repair")))
    send_pair(network, agents[0])
    network.run(until=10_000.0)
    assert agents[2].requests_sent == 3
    assert network.trace.count("request_abandoned") == 1


def test_ignore_backoff_window():
    """Footnote 1: duplicate requests within the same iteration do not
    trigger repeated backoffs."""
    network, agents, _ = build_srm_session(star(10),
                                           range(1, 11),
                                           config=SrmConfig(c1=0.0, c2=1.0))
    # Drop adjacent to source 1: all 9 others detect simultaneously, and
    # with C2 = 1 every member requests (no suppression window), so each
    # member hears ~8 near-simultaneous duplicates.
    drop_first_data(network, 1, 0, source=1)
    send_pair(network, agents[1])
    network.run()
    for node in range(2, 11):
        backoffs = network.trace.count("request_backoff", ) or 0
    ignored = len(network.trace.filter(kind="request_dup_ignored"))
    assert ignored > 0  # the window actually suppressed repeat backoffs


def test_detect_loss_from_requests():
    """A member that missed both packets learns of the data from another
    member's request."""
    network, agents, _ = build_srm_session(chain(6), range(6))
    # Drop BOTH data packets toward nodes 4-5, but only the first toward
    # node 2-3: nodes beyond 3 never see any data directly.
    drop_first_data(network, 2, 3)
    network.add_drop_filter(4, 5, MatchDropFilter(
        lambda p: p.kind == "srm-data"))
    send_pair(network, agents[0])
    network.run()
    name = AduName(0, DEFAULT_PAGE, 1)
    # Node 5 saw no data at all; it learned seq 1 existed purely from an
    # overheard request, and recovered it from the multicast repair.
    assert agents[5].store.have(name)
    assert network.trace.count("loss_detected", name=name) >= 1
    # Seq 2 was never requested by anyone (nodes closer in got it), so
    # node 5 cannot know it exists -- that gap is what the session
    # messages of Section III-A exist to close.
    assert not agents[5].store.have(AduName(0, DEFAULT_PAGE, 2))


def test_detect_loss_from_requests_can_be_disabled():
    config = SrmConfig(detect_loss_from_requests=False)
    network, agents, _ = build_srm_session(chain(6), range(6), config=config)
    drop_first_data(network, 2, 3)
    network.add_drop_filter(4, 5, MatchDropFilter(
        lambda p: p.kind == "srm-data"))
    send_pair(network, agents[0])
    network.run(until=200.0)
    name = AduName(0, DEFAULT_PAGE, 1)
    # Node 5 heard requests and repairs; repairs still deliver the data,
    # but no request context was created from the overheard request.
    assert network.trace.count("loss_detected", name=name) >= 1


def test_request_carries_reported_distance():
    network, agents, _ = build_srm_session(chain(5), range(5))
    drop_first_data(network, 2, 3)
    send_pair(network, agents[0])
    captured = []

    original = agents[1].receive

    def spy(packet):
        if packet.kind == "srm-request":
            captured.append(packet.payload)
        original(packet)

    agents[1].receive = spy
    network.trace_deliveries = True   # deliver one by one, spy included
    network.run()
    assert captured
    assert captured[0].requester_distance_to_source == pytest.approx(3.0)


def test_source_never_requests_its_own_data():
    network, agents, _ = build_srm_session(chain(4), range(4))
    drop_first_data(network, 0, 1)
    send_pair(network, agents[0])
    network.run()
    assert agents[0].requests_sent == 0
    assert agents[0].pending_requests() == []


def test_recovery_cancels_request_timer():
    network, agents, _ = build_srm_session(chain(5), range(5))
    drop_first_data(network, 1, 2)
    send_pair(network, agents[0])
    network.run()
    name = AduName(0, DEFAULT_PAGE, 1)
    for node in (2, 3, 4):
        context = agents[node]._requests[name]
        assert context.done
        assert not context.timer.pending
        assert agents[node].store.have(name)


def test_adaptive_member_draws_with_its_current_c1():
    """An adaptive member reads ``adaptive.params`` on every draw: a C1
    changed since its last draw (in place, or a new parameter object)
    moves its next request timer, drawn from its own stream."""
    network, agents, _ = build_srm_session(
        chain(4), range(4), config=SrmConfig(adaptive=True))
    agent = agents[3]
    name = AduName(0, DEFAULT_PAGE, 1)
    agent.on_loss_detected(name)
    context = agent._requests[name]
    distance = agent.distances.distance(0)
    old = agent.adaptive.params
    for params in (old, TimerParams(c1=old.c1, c2=old.c2, d1=old.d1,
                                    d2=old.d2)):
        agent.adaptive.params = params
        params.c1 = before = params.c1 + 0.25
        replica = random.Random()
        replica.setstate(agent.rng._rng.getstate())
        u = replica.random()
        agent._backoff_request(context)
        delay = network.trace.filter(kind=REQUEST_TIMER_SET)[-1].detail["delay"]
        # Adaptive backoff is 3x per round (Section VII-A).
        assert delay == timer_math.request_timer(
            distance, before, params.c2, 3.0, context.backoff_count, u)[0]
        assert delay != timer_math.request_timer(
            distance, before - 0.25, params.c2, 3.0, context.backoff_count,
            u)[0]
