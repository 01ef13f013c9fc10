"""Tests for page-state recovery (Section III-A late join / browsing)."""

import random

from repro.core import timer_math
from repro.core.agent import SrmAgent
from repro.core.config import SrmConfig
from repro.core.messages import PageRequestPayload
from repro.core.names import AduName, PageId
from repro.sim.rng import RandomSource
from repro.topology.chain import chain

from conftest import build_srm_session


def test_late_joiner_recovers_page_history():
    network, agents, group = build_srm_session(chain(6), range(5))
    page = PageId(creator=0, number=1)
    for agent in agents.values():
        agent.current_page = page

    def burst():
        for i in range(4):
            agents[0].send_data(f"item-{i}", page=page)

    network.scheduler.schedule(0.0, burst)
    network.run()

    late = SrmAgent(SrmConfig(), RandomSource(404))
    network.attach(5, late)
    late.join_group(group)
    late.current_page = page
    network.scheduler.schedule(1.0, lambda: late.request_page_state(page))
    network.run()
    for seq in range(1, 5):
        assert late.store.have(AduName(0, page, seq)), seq


def test_page_request_suppression():
    """Two members missing the same page: the first page request
    suppresses the second."""
    network, agents, group = build_srm_session(chain(8), range(6))
    page = PageId(creator=0, number=1)
    network.scheduler.schedule(
        0.0, lambda: agents[0].send_data("x", page=page))
    network.run()
    late_a = SrmAgent(SrmConfig(), RandomSource(1))
    late_b = SrmAgent(SrmConfig(), RandomSource(2))
    network.attach(6, late_a)
    network.attach(7, late_b)
    late_a.join_group(group)
    late_b.join_group(group)
    network.scheduler.schedule(1.0, lambda: late_a.request_page_state(page))
    network.scheduler.schedule(1.0, lambda: late_b.request_page_state(page))
    network.run()
    sent = network.trace.count("send_page_request")
    suppressed = network.trace.count("page_request_suppressed")
    assert sent + suppressed >= 2
    assert sent <= 2
    assert late_a.store.have(AduName(0, page, 1))
    assert late_b.store.have(AduName(0, page, 1))


def test_page_reply_suppression():
    """Many members can answer a page request; replies suppress each
    other like repairs."""
    network, agents, group = build_srm_session(chain(8), range(7))
    page = PageId(creator=0, number=1)
    network.scheduler.schedule(
        0.0, lambda: agents[0].send_data("x", page=page))
    network.run()
    late = SrmAgent(SrmConfig(), RandomSource(3))
    network.attach(7, late)
    late.join_group(group)
    network.scheduler.schedule(1.0, lambda: late.request_page_state(page))
    network.run()
    replies = network.trace.count("send_page_reply")
    suppressed = network.trace.count("page_reply_suppressed")
    assert replies >= 1
    assert replies + suppressed <= 7
    assert replies < 7  # suppression did something


def test_duplicate_page_request_call_is_idempotent():
    network, agents, group = build_srm_session(chain(4), range(3))
    page = PageId(creator=0, number=1)
    network.scheduler.schedule(
        0.0, lambda: agents[0].send_data("x", page=page))
    network.run()
    late = SrmAgent(SrmConfig(), RandomSource(4))
    network.attach(3, late)
    late.join_group(group)

    def ask_twice():
        late.request_page_state(page)
        late.request_page_state(page)

    network.scheduler.schedule(1.0, ask_twice)
    network.run()
    assert network.trace.count("send_page_request") == 1


def test_page_request_for_unknown_page_gets_no_reply():
    network, agents, group = build_srm_session(chain(4), range(4))
    ghost = PageId(creator=9, number=9)
    network.scheduler.schedule(
        0.0, lambda: agents[3].request_page_state(ghost))
    network.run()
    assert network.trace.count("send_page_reply") == 0


def test_page_timers_are_the_fused_data_recovery_forms():
    """A page request is timed like a data request and a page reply like
    a repair (``timer_math``), down to a distance estimate so small that
    (C1+C2)*d and (D1+D2)*d fall below the degenerate interval's 1e-9:
    each delay lands inside its interval, from one raw uniform."""
    network, agents, group = build_srm_session(
        chain(3), range(3), config=SrmConfig(distance_oracle=False))
    member = agents[2]
    page = PageId(creator=0, number=1)
    member.distances.update(0, 1e-12)   # to the page's creator
    member.distances.update(1, 1e-12)   # to the requester below
    params = member.params
    replay = random.Random()
    replay.setstate(member.rng._rng.getstate())

    member.request_page_state(page)
    now = network.scheduler.now
    delay, _ = timer_math.request_timer(1e-12, params.c1, params.c2,
                                        member._backoff_base, 0,
                                        replay.random())
    assert params.c1 * 1e-12 <= delay <= (params.c1 + params.c2) * 1e-12
    assert member._page_requests[page].timer.time == now + delay

    member.reception.note_high_water(0, page, 1)   # it holds page state
    member._handle_page_request(PageRequestPayload(page=page, requester=1))
    reply = member._page_requests[page]
    assert reply.is_reply and reply.timer.pending
    delay = timer_math.repair_timer(1e-12, params.d1, params.d2,
                                    replay.random())
    assert params.d1 * 1e-12 <= delay <= (params.d1 + params.d2) * 1e-12
    assert reply.timer.time == now + delay
