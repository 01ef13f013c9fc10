"""The Engine protocol and the real-time scheduler.

Both execution environments — the discrete-event ``Network`` and the
asyncio ``LiveEngine`` — must satisfy the one structural ``Engine``
interface agents are written against, and the live scheduler must keep
the sim scheduler's semantics agents rely on: relative one-shot timers,
cancellation, and a ``now`` frozen for the duration of each callback.
"""

from __future__ import annotations

import asyncio
import json
import time

from repro.live.engine import Engine
from repro.live.scheduler import LiveScheduler
from repro.live.session import LiveEngine, live_config
from repro.net.network import Network
from repro.net.packet import GroupAddress
from repro.sim.timers import TimerScheduler


def test_both_engines_satisfy_the_protocol():
    assert isinstance(Network(), Engine)
    assert isinstance(LiveEngine(), Engine)


def test_schedulers_satisfy_the_timer_protocol():
    assert isinstance(LiveScheduler(), TimerScheduler)
    assert isinstance(Network().scheduler, TimerScheduler)


# ----------------------------------------------------------------------
# LiveScheduler semantics
# ----------------------------------------------------------------------


def _drive(scheduler: LiveScheduler, duration: float) -> None:
    async def body() -> None:
        scheduler.start(asyncio.get_running_loop())
        await asyncio.sleep(duration)
        scheduler.stop()

    asyncio.run(body())


def test_events_fire_in_expiry_order():
    scheduler = LiveScheduler()
    fired = []
    scheduler.schedule(0.05, fired.append, "late")
    scheduler.schedule(0.01, fired.append, "early")
    scheduler.schedule(0.03, fired.append, "middle")
    _drive(scheduler, 0.2)
    assert fired == ["early", "middle", "late"]
    assert scheduler.fired == 3


def test_cancelled_events_never_fire():
    scheduler = LiveScheduler()
    fired = []
    keep = scheduler.schedule(0.01, fired.append, "keep")
    drop = scheduler.schedule(0.01, fired.append, "drop")
    drop.cancel()
    _drive(scheduler, 0.1)
    assert fired == ["keep"]
    assert not keep.pending and not drop.pending
    assert scheduler.pending_count == 0


def test_now_is_frozen_during_a_callback():
    scheduler = LiveScheduler()
    stamps = []

    def callback() -> None:
        before = scheduler.now
        time.sleep(0.02)  # real time passes; session time must not
        stamps.append((before, scheduler.now))

    scheduler.schedule(0.01, callback)
    _drive(scheduler, 0.1)
    (before, after), = stamps
    assert before == after


def test_now_advances_between_dispatch_points():
    scheduler = LiveScheduler()
    stamps = []
    scheduler.schedule(0.01, lambda: stamps.append(scheduler.now))
    scheduler.schedule(0.05, lambda: stamps.append(scheduler.now))
    _drive(scheduler, 0.2)
    assert stamps[1] > stamps[0] >= 0.0


def test_events_scheduled_before_start_are_parked_then_armed():
    scheduler = LiveScheduler()
    fired = []
    scheduler.schedule(0.01, fired.append, "parked")
    assert scheduler.pending_count == 1
    _drive(scheduler, 0.1)
    assert fired == ["parked"]


def test_srm_timer_runs_on_the_live_scheduler():
    # A protocol timer is the live event, moved the way agents move it:
    # the handle reschedule_event returns replaces the old one.
    scheduler = LiveScheduler()
    fired = []
    timer = scheduler.schedule(0.05, fired.append, "old")
    assert timer.pending and timer.time == 0.05
    moved = scheduler.reschedule_event(timer, 0.01)
    assert not timer.pending and moved.pending and moved.time == 0.01
    assert moved.callback == fired.append and moved.args == ("old",)
    assert scheduler.pending_count == 1
    _drive(scheduler, 0.1)
    assert fired == ["old"] and not moved.pending


def test_srm_timer_cancel_on_the_live_scheduler():
    scheduler = LiveScheduler()
    fired = []
    timer = scheduler.schedule(0.01, fired.append, "no")
    timer.cancel()
    released = scheduler.schedule(0.01, fired.append, "no")
    released.release()
    assert released.args == () and scheduler.pending_count == 0
    _drive(scheduler, 0.05)
    assert fired == [] and not timer.pending and not released.pending


# ----------------------------------------------------------------------
# LiveEngine surface
# ----------------------------------------------------------------------


def test_group_size_counts_local_and_remote_members():
    engine = LiveEngine()
    group = engine.groups.allocate("g")
    assert engine.group_size(group) == 1  # floored, like the sim
    engine.join(1, group)
    engine.join(2, group)
    assert engine.group_size(group) == 2
    # A frame from an unknown origin counts it as a remote member.
    engine._remote_members.setdefault(group.gid, {})[99] = None
    assert engine.group_size(group) == 3


def test_garbage_frames_are_dropped_and_counted():
    engine = LiveEngine()
    engine._on_frame({"v": "not-a-packet"})
    engine._on_frame({})
    assert engine.decode_errors == 2
    assert engine.frames_received == 0


def test_own_origin_frames_are_discarded():
    from repro.core.agent import SrmAgent
    from repro.core.messages import KIND_DATA, DataPayload
    from repro.core.names import AduName, PageId
    from repro.live.framing import decode_frame, packet_to_frame

    engine = LiveEngine()
    agent = SrmAgent(live_config())
    engine.attach(5, agent)
    group = engine.groups.allocate("g")
    agent.join_group(group)
    payload = DataPayload(name=AduName(5, PageId(0, 0), 1), data="x")
    packet = engine.send_multicast(5, group, KIND_DATA, payload=payload)
    wire = decode_frame(packet_to_frame(packet))
    engine._on_frame(wire)
    assert engine.frames_received == 0  # looped-back own frame


def test_ill_typed_frames_are_dropped_and_counted():
    # Each frame is a well-formed one with a single field mistyped; the
    # packet table refuses it before any agent sees it.
    from repro.core.messages import (
        KIND_DATA,
        KIND_REQUEST,
        KIND_SESSION,
        DataPayload,
        RequestPayload,
        SessionPayload,
        SessionTimestamp,
    )
    from repro.core.names import DEFAULT_PAGE, AduName
    from repro.live.framing import decode_frame, packet_to_frame
    from repro.net.packet import Packet
    from repro.sim.rng import RandomSource
    from repro.wb.drawops import DRAWOPS, DeleteOp, DrawOp, DrawType
    from repro.wb.whiteboard import Whiteboard

    engine = LiveEngine(data=DRAWOPS)
    wb = Whiteboard(config=live_config(), rng=RandomSource(1))
    group = engine.groups.allocate("wb")
    wb.join(engine, 0, group)
    agent = wb.agent

    def wire(kind, payload):
        packet = Packet(origin=7, dst=group, kind=kind, payload=payload)
        return decode_frame(packet_to_frame(packet, DRAWOPS))

    line = DrawOp(shape=DrawType.LINE, coords=((0.0, 0.0), (1.0, 1.0)))
    name = AduName(7, DEFAULT_PAGE, 1)
    session = wire(KIND_SESSION, SessionPayload(
        member=7, sent_at=0.5, page=DEFAULT_PAGE,
        echoes={0: SessionTimestamp(t1=0.1, delta=0.0)}))
    request = wire(KIND_REQUEST, RequestPayload(name, requester=7))
    draw = wire(KIND_DATA, DataPayload(name, line))
    delete = wire(KIND_DATA, DataPayload(AduName(7, DEFAULT_PAGE, 2),
                                         DeleteOp(target=name)))
    session["payload"]["echoes"] = [[0, "t1", "d"]]
    request["payload"]["requester"] = [1]
    bool_name = json.loads(json.dumps(draw))
    bool_name["payload"]["name"] = [True, 0, 0, 1]
    draw["payload"]["data"]["color"] = 5
    delete["payload"]["data"]["target"] = [True, "0", 0.9, 1]
    frames = [session, request, bool_name, draw, delete]

    def state():
        return (engine.frames_received, dict(engine._remote_members),
                len(engine.trace.records), engine.scheduler.pending_count,
                dict(agent.session.last_heard),
                dict(agent.distances.estimates), len(agent.store),
                agent.data_received, agent.losses_detected,
                sorted(agent._requests), sorted(agent._repairs),
                wb.op_count(DEFAULT_PAGE))

    before = state()
    for count, frame in enumerate(frames, start=1):
        assert engine._on_frame(frame) is None
        assert engine.decode_errors == count
    assert state() == before
