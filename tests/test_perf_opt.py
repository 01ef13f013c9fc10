"""Tests for the hot-path optimizations: delivery-plan cache
invalidation, arrival-copy dedup, and the perf counter layer.

The plan cache, merged delivery runs, and shared arrival copies must be
invisible: every scenario here is run on the direct engine twice — once
with the plan cache active, once with it forcibly cleared before every
send — and the delivered (time, member, kind, ttl) sets must agree even
when membership, drop filters, or the topology change mid-run. (The hop
engine is not a usable reference here: it checks membership at forward
time rather than send time, a pre-existing semantic difference that
shows up only under mid-run mutation.)
"""

from __future__ import annotations

import sys

from repro.net.link import NthPacketDropFilter
from repro.net.node import Agent
from repro.net.packet import Packet
from repro.sim import perf
from repro.sim.rng import RandomSource
from repro.sim.trace import DUP_REQUEST_OBSERVED, REQUEST_DUP_IGNORED
from repro.topology.random_tree import random_labeled_tree
from repro.topology.star import star

from conftest import build_srm_session


class Recorder(Agent):
    def __init__(self, log):
        super().__init__()
        self.log = log

    def receive(self, packet: Packet) -> None:
        self.log.append((round(self.now, 9), self.node_id, packet.kind,
                         packet.ttl))


def run_mutating_scenario(spec, members, sends, mutations, uncached=False):
    """Build, join ``members``, schedule ``sends`` and mid-run
    ``mutations`` (time, fn(network, group)), run to quiescence."""
    network = spec.build(delivery="direct")
    if uncached:
        original = network._multicast_direct

        def uncached_direct(packet):
            network._plan_cache.clear()
            original(packet)

        network._multicast_direct = uncached_direct
    group = network.groups.allocate()
    log = []
    for member in members:
        network.attach(member, Recorder(log))
        network.join(member, group)
    for at_time, origin, ttl in sends:
        network.scheduler.schedule_at(
            at_time, network.send_multicast, origin, group, "data", None,
            ttl)
    for at_time, mutate in mutations:
        network.scheduler.schedule_at(at_time, mutate, network, group)
    network.run()
    return network, sorted(log)


def both_engines_agree(spec, members, sends, mutations):
    perf.reset()
    cached_net, cached = run_mutating_scenario(spec, members, sends,
                                               mutations)
    # The scenario must actually exercise the cache for the comparison
    # to mean anything.
    assert perf.counters().plan_cache_hits > 0
    _, uncached = run_mutating_scenario(spec, members, sends, mutations,
                                        uncached=True)
    assert cached == uncached
    return cached_net, cached


def tree_spec(seed=7, n=14):
    return random_labeled_tree(n, RandomSource(seed))


def steady_sends(origin, count=8, ttl=64):
    return [(float(t), origin, ttl) for t in range(count)]


def test_plan_cache_survives_join_midrun():
    spec = tree_spec()
    members = list(range(10))          # nodes 10..13 join later
    sends = steady_sends(0)

    def late_join(network, group):
        for node in (10, 11, 12, 13):
            network.attach(node, Recorder(network.nodes[0].agents[0].log))
            network.join(node, group)

    _, log = both_engines_agree(spec, members, sends, [(3.5, late_join)])
    # The latecomers must have received the post-join sends.
    assert any(node >= 10 for _, node, _, _ in log)


def test_plan_cache_survives_leave_midrun():
    spec = tree_spec()
    members = list(range(14))
    sends = steady_sends(0)

    def leave(network, group):
        network.leave(5, group)
        network.leave(9, group)

    _, log = both_engines_agree(spec, members, sends, [(3.5, leave)])
    # Node 5 hears the early sends only.
    times_at_5 = [t for t, node, _, _ in log if node == 5]
    assert times_at_5 and max(times_at_5) < 4.0 + 14


def test_plan_cache_survives_filter_arm_and_clear_midrun():
    spec = tree_spec()
    members = list(range(14))
    sends = steady_sends(0, count=10)
    a, b = spec.edges[2]

    def arm(network, group):
        network.add_drop_filter(
            a, b, NthPacketDropFilter(lambda p: p.kind == "data"))

    def clear(network, group):
        network.clear_drop_filters()

    both_engines_agree(spec, members, sends,
                       [(2.5, arm), (6.5, clear)])


def test_plan_cache_survives_topology_mutation_midrun():
    spec = tree_spec()
    members = list(range(14))
    sends = steady_sends(0)
    a, b = spec.edges[0]

    def raise_threshold(network, group):
        # The TTL-threshold change invalidates routing; rebuilding the
        # trees must also invalidate the cached delivery plans.
        network.link_between(a, b).threshold = 10
        network.invalidate_routes()

    _, log = both_engines_agree(spec, members, sends,
                                [(3.5, raise_threshold)])


def test_merged_star_arrivals_share_one_copy():
    """A star delivers every leaf at the same (dist, hops): the direct
    engine must schedule one shared arrival copy, not one per leaf."""
    spec = star(30)
    network = spec.build(delivery="direct")
    group = network.groups.allocate()
    log = []
    for member in range(1, 31):
        network.attach(member, Recorder(log))
        network.join(member, group)
    perf.reset()
    network.send_multicast(1, group, "data", None)
    network.run()
    assert len(log) == 29
    counters = perf.counters()
    assert counters.arrival_copies == 1
    assert counters.arrival_copies_shared == 28
    # All leaves heard the same arrival instant, in member order.
    assert log == sorted(log)


def test_warm_plan_builds_one_arrival_per_distinct_hop_count():
    """On a random tree several plan entries (different delays) share a
    hop count; a send on the cached plan still makes exactly one arrival
    ``Packet`` per distinct hop count and hands it to all of them."""
    spec = random_labeled_tree(40, RandomSource(5))
    network = spec.build(delivery="direct")
    delays = RandomSource(5).fork("links")
    for link in network.links:
        link.delay = delays.choice((0.5, 1.0, 2.0))
    network.invalidate_routes()
    group = network.groups.allocate()
    arrivals = []

    class Keeper(Agent):
        def receive(self, packet):
            arrivals.append((self.node_id, packet))

    for member in range(40):
        network.attach(member, Keeper())
        network.join(member, group)
    network.send_multicast(0, group, "data", None)   # builds the plan
    network.run()
    arrivals.clear()
    perf.reset()
    sent = network.send_multicast(0, group, "data", None)
    network.run()
    counters = perf.counters()
    assert counters.plan_cache_hits == 1 and counters.plan_cache_misses == 0
    entries, receivers, hop_counts, slots = network._plan_cache[
        (0, group.gid, sent.initial_ttl, None)][2]
    assert receivers == len(arrivals) == 39
    assert len(set(hop_counts)) == len(hop_counts) < len(entries)
    assert [hop_counts[slot] for slot in slots] == [
        hops for _, hops, _ in entries]
    # Every entry is a run, a member alone at its distance a run of one.
    assert all(type(run) is tuple and run for _, _, run in entries)
    assert sum(len(run) for _, _, run in entries) == receivers
    assert counters.arrival_copies == len(hop_counts)
    assert counters.arrival_copies_shared == 39 - len(hop_counts)
    assert len({id(packet) for _, packet in arrivals}) == len(hop_counts)
    for node, packet in arrivals:
        assert packet.hops_travelled() == network.hops(0, node)
        assert packet is not sent and packet.uid == sent.uid


def test_star_report_reaches_the_leaves_in_one_run_call(monkeypatch):
    """One leaf's session report: the other leaves tie, so they are one
    ``receive_run`` call and no ``receive`` call; the hub
    is alone at its distance, a run of one, and takes one
    ``receive_run`` call of its own (docs/performance.md, "Batched
    session/state delivery")."""
    from repro.core.agent import SrmAgent
    from repro.core.config import SrmConfig

    network = star(30).build(delivery="direct")
    network.trace_deliveries = False  # check mode traces, never batches
    group = network.groups.allocate("session")
    master = RandomSource(9)
    agents = {}
    for member in range(30):  # the hub and leaves 1..29
        agents[member] = SrmAgent(
            SrmConfig(session_enabled=True), master.fork(f"m{member}"))
        network.attach(member, agents[member])
        agents[member].join_group(group)
        agents[member].session.stop()   # only the report sent below
    calls = {}

    def count(owner, attr, note):
        original = getattr(owner, attr)
        calls[attr] = []

        def counted(first, second):
            calls[attr].append(note(first))
            return original(first, second)

        monkeypatch.setattr(owner, attr, staticmethod(counted)
                            if attr == "receive_run" else counted)

    count(SrmAgent, "receive_run", len)
    count(SrmAgent, "receive", lambda agent: agent.node_id)
    agents[1].session.send_session_message()
    network.run(until=3.0)
    assert calls == {"receive_run": [1, 28], "receive": []}
    assert all(1 in agents[member].session.last_heard
               for member in range(30) if member != 1)
    assert agents[0].session.last_heard[1] == (0.0, 1.0)
    assert agents[29].session.last_heard[1] == (0.0, 2.0)


def test_perf_counters_roundtrip_and_merge():
    first = perf.PerfCounters()
    first.events_executed = 3
    first.count_packet("data")
    second = perf.PerfCounters()
    second.events_executed = 4
    second.count_packet("data")
    second.count_packet("session")
    second.merge(first)
    snapshot = second.as_dict()
    assert snapshot["events_executed"] == 7
    assert snapshot["packets_by_kind"] == {"data": 2, "session": 1}
    report = second.format_report(wall_s=0.5)
    assert "events executed" in report and "events/sec" in report
    second.reset()
    assert second.as_dict()["events_executed"] == 0


def test_cli_profile_flag_reports_to_stderr(capsys):
    from repro.cli import main

    assert main(["figure3", "--sims", "1", "--profile", "--no-cache"]) == 0
    captured = capsys.readouterr()
    assert "Figure 3a" in captured.out
    assert "kernel profile" in captured.err
    assert "events executed" in captured.err
    # stdout stays clean: golden-output comparisons must keep working.
    assert "kernel profile" not in captured.out


# ----------------------------------------------------------------------
# Trace -> metrics in one pass (docs/performance.md): a round takes the
# report the collector streamed, and the collector is called only for
# the rows it aggregates.
# ----------------------------------------------------------------------


def _instrumented_star_round(monkeypatch, leaves=50):
    """One round on a star; returns (simulation, outcome, offline-scan
    calls, kinds on_record was called with)."""
    from repro.core.config import SrmConfig
    from repro.experiments.common import LossRecoverySimulation
    from repro.experiments.figure5 import star_scenario
    from repro.metrics import events
    from repro.metrics.collector import MetricsCollector

    scans = []
    original_scan = events.analyze_loss_event

    def counted_scan(trace, name):
        scans.append(name)
        return original_scan(trace, name)

    # Every module that imported the function by name, as the ledger's
    # tracer does.
    for module in list(sys.modules.values()):
        for key, value in list(getattr(module, "__dict__", {}).items()):
            if value is original_scan:
                monkeypatch.setattr(module, key, counted_scan)

    delivered = []
    original_on_record = MetricsCollector.on_record

    def counted_on_record(self, row):
        delivered.append(row.kind)
        original_on_record(self, row)

    monkeypatch.setattr(MetricsCollector, "on_record", counted_on_record)
    simulation = LossRecoverySimulation(
        star_scenario(leaves), config=SrmConfig(c1=2.0, c2=20.0), seed=11)
    return simulation, simulation.run_round(), scans, delivered


def test_round_reads_the_streamed_report_without_rescanning(monkeypatch):
    from repro.metrics.collector import CONTROL_KINDS, EVENT_KINDS
    from repro.metrics.events import analyze_loss_event

    monkeypatch.delenv("SRM_CHECK", raising=False)
    simulation, outcome, scans, delivered = \
        _instrumented_star_round(monkeypatch)
    assert scans == []
    trace = simulation.network.trace
    assert set(delivered) <= EVENT_KINDS | CONTROL_KINDS
    # The round keeps exactly the rows the collector hears.
    assert delivered == [row.kind for row in trace]
    # The suppression narration (two rows per request heard) is most of
    # the rows emitted, and is counted, never built.
    assert len(delivered) * 4 < sum(trace.kind_totals.values())
    assert outcome.recovered and outcome.report.losses_detected == 49
    assert outcome.report == analyze_loss_event(trace, outcome.name)
    assert simulation.last_round_metrics.timers[
        "request_timer_set"] == trace.kind_totals["request_timer_set"]


def test_check_mode_compares_streamed_report_with_the_rescan(monkeypatch):
    monkeypatch.setenv("SRM_CHECK", "1")
    _, outcome, scans, _ = _instrumented_star_round(monkeypatch)
    assert scans == [outcome.name]
    assert outcome.recovered


# ----------------------------------------------------------------------
# Call budgets (docs/performance.md, "Hop engine: forwarding tables"):
# what a name probe and a hop may cost in Python frames. C calls are not
# counted; the ledger's pycalls_per_op counts both.
# ----------------------------------------------------------------------


def _python_frames(fn, inside=None, c_calls=False):
    """Qualified names of the Python frames ``fn()`` enters, ``fn``'s own
    excluded; frames entered under a call of the code ``inside`` too.
    With ``c_calls``, each call of a built-in function or method is
    listed as well, as ``"C:<qualname>"`` (what the ledger also counts)."""
    frames = []
    depth = 0   # > 0 while under an ``inside`` frame

    def profiler(frame, event, arg):
        nonlocal depth
        if event == "call":
            if depth or frame.f_code is inside:
                depth += 1
            else:
                frames.append(frame.f_code.co_qualname)
        elif event == "return" and depth:
            depth -= 1
        elif (event == "c_call" and c_calls and not depth
              and arg is not sys.setprofile):
            frames.append(f"C:{arg.__qualname__}")

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return frames[1:]


def test_name_probes_enter_no_python_frame():
    from repro.core.names import AduName, PageId

    name = AduName(3, PageId(3, 7), 12)
    twin = AduName(3, PageId(3, 7), 12)
    table = {name: "held"}
    results = []

    def probe():
        results.append((table[twin], twin in table, table.get(twin),
                        name == twin, name != twin, name < twin,
                        hash(twin) == hash(name), twin.page in {name.page}))

    assert _python_frames(probe) == []
    assert results == [("held", True, "held", True, False, False, True,
                        True)]


def test_a_hop_costs_at_most_four_python_frames_outside_receive():
    """One multicast down a 10-node chain, its members' runs bound by
    an earlier one: per hop the engine enters ``_multicast_arrive``,
    ``forwarded_copy`` and ``schedule_at`` (12 frames before the
    forwarding tables). Per-hop membership or prune lookups, or a
    second frame between arrival and forwarding (a ``_deliver_many``
    call per hop, say), would show here before they show in the
    ledger."""
    from repro.topology.chain import chain

    network = chain(10).build(delivery="hop")
    network.trace_deliveries = False  # check mode delivers via _deliver
    group = network.groups.allocate()
    log = []
    for member in range(10):
        network.attach(member, Recorder(log))
        network.join(member, group)
    network.send_multicast(0, group, "data")
    network.run()   # binds each member's run of one (Network._bind_run)
    log.clear()
    network.send_multicast(0, group, "data")
    frames = _python_frames(network.run, inside=Recorder.receive.__code__)
    hops = 9
    assert [node for _, node, _, _ in log] == list(range(1, 10))
    assert frames.count("Network._multicast_arrive") == hops
    assert len(frames) <= 4 * hops, sorted(set(frames))


def test_a_session_report_run_enters_one_python_frame():
    """One leaf's report on a warm star: the 28 tied leaves are one run
    and the hub a run of one, and below ``_deliver_many`` each run
    enters only the run handler, which merges the report itself. A
    forwarding hop to a merge function, a per-run list of the reported
    streams or a per-receiver ``receive`` / ``handle`` would each show
    here (docs/performance.md, "Batched session/state delivery")."""
    from functools import partial

    from repro.core.agent import SrmAgent
    from repro.core.config import SrmConfig

    network, agents, _ = build_srm_session(
        star(30), range(30), SrmConfig(session_enabled=True))
    network.trace_deliveries = False  # check mode traces, never batches
    for agent in agents.values():
        agent.session.stop()   # only the reports sent below
    agents[1].send_data("x")   # so that the report names a stream
    agents[1].session.send_session_message()
    network.run(until=5.0)     # binds the run and primes each merge
    runs = []
    deliver_many = network._deliver_many

    def watched(members, packet):
        runs.append((len(members), _python_frames(
            partial(deliver_many, members, packet))))

    network._deliver_many = watched
    agents[1].session.send_session_message()
    network.run(until=10.0)
    handler = SrmAgent.receive_run.__qualname__
    assert runs == [(1, [handler]), (28, [handler])]
    assert all(agents[member].session.last_heard[1][0] == 5.0
               for member in range(30) if member != 1)
    assert not any(agent.pending_requests() for agent in agents.values())


def _member_in_request_suppression(keep):
    """Member 3 of a four-leaf star session, waiting out a backed-off
    request timer for member 1's first ADU: it detected the loss and
    heard member 2's request. Returns the member, the name, a duplicate
    request from member 4 and the trace (keeping ``keep``)."""
    from repro.core.messages import KIND_REQUEST, RequestPayload
    from repro.core.names import DEFAULT_PAGE, AduName

    network, agents, group = build_srm_session(star(4), range(1, 5))
    network.trace.keep = keep
    name = AduName(1, DEFAULT_PAGE, 1)
    member = agents[3]

    def request(requester):
        return Packet(requester, group, KIND_REQUEST, RequestPayload(
            name=name, requester=requester,
            requester_distance_to_source=1.0))

    member.on_loss_detected(name)
    member.receive(request(2))
    assert member.requests_suppressed == 0   # that one backed it off
    return member, name, request(4), network.trace


def test_a_heard_duplicate_request_costs_no_trace_or_clock_frame():
    """Every member of a star hears every request. A duplicate heard in
    the ignore window emits two kinds nobody reads here: the guard only
    counts them, so no ``Trace.record``, clock property or trace
    wrapper frame runs."""
    from repro.core.agent import SrmAgent

    member, _, duplicate, trace = _member_in_request_suppression(keep=())
    totals = dict(trace.kind_totals)
    frames = _python_frames(lambda: member.receive(duplicate),
                            c_calls=True)
    assert member.requests_suppressed == 1
    # receive and the run handler on a run of one: the held-data test,
    # the duplicate count and the ignore-window test are made in
    # place, without a call.
    assert frames == [SrmAgent.receive.__qualname__,
                      SrmAgent.receive_run.__qualname__], frames
    assert {kind: count - totals.get(kind, 0)
            for kind, count in trace.kind_totals.items()
            if count != totals.get(kind, 0)} == {
        DUP_REQUEST_OBSERVED: 1, REQUEST_DUP_IGNORED: 1}


def test_a_request_run_enters_one_frame_plus_the_protocol_work():
    """A duplicate request on a warm star reaches the k tied leaves, each
    inside its ignore window, as one run. Below ``_deliver_many`` the run
    enters the run handler and nothing else: the held-data test, the
    duplicate count and the ignore-window test are made in place, per
    member, without a Python frame or a built-in call
    (docs/performance.md, "Batched session/state delivery")."""
    from repro.core.agent import SrmAgent
    from repro.core.config import SrmConfig
    from repro.core.messages import KIND_REQUEST, RequestPayload
    from repro.core.names import DEFAULT_PAGE, AduName

    k = 6
    # Leaves 1..k are members; the hub (the data's source) and leaf k+1
    # are not. A long default distance puts the duplicate, one hop from
    # the hub, well inside every member's ignore window.
    network, agents, group = build_srm_session(
        star(k + 1), range(1, k + 1), SrmConfig(default_distance=10.0))
    network.trace.keep = ()
    network.trace_deliveries = False  # check mode traces, never batches
    name = AduName(0, DEFAULT_PAGE, 1)

    def request(requester):
        network.send_multicast(0, group, KIND_REQUEST, RequestPayload(
            name=name, requester=requester,
            requester_distance_to_source=1.0))

    for agent in agents.values():
        agent.on_loss_detected(name)
    request(k + 1)
    network.run(until=1.5)   # binds the run; every member backs off
    assert all(agent._requests[name].backoff_count == 1
               for agent in agents.values())
    runs = _watch_runs(network)
    request(0)
    network.run(until=3.0)
    assert runs == [(k, [SrmAgent.receive_run.__qualname__])], runs
    assert all(agent.requests_suppressed == 1 for agent in agents.values())


def test_a_heard_duplicate_request_builds_each_wanted_row_once():
    """With every kind kept, the same delivery enters ``Trace.record``
    once per row, and the rows are the ones the agent has always
    emitted, in order."""
    member, name, duplicate, trace = _member_in_request_suppression(
        keep=None)
    kept = len(trace.records)
    frames = _python_frames(lambda: member.receive(duplicate))
    rows = [(row.time, row.node, row.kind, row.detail)
            for row in trace.records[kept:]]
    assert rows == [
        (0.0, 3, DUP_REQUEST_OBSERVED, {"name": name, "requester": 4}),
        (0.0, 3, REQUEST_DUP_IGNORED, {"name": name})]
    assert frames.count("Trace.record") == len(rows)
    assert "Agent.now" not in frames


def _star_of_holders(k):
    """Leaves 1..k of a star, each holding the hub's first ADU; the hub
    (the data's source) and leaf k+1 are not members. Returns the
    network, the members, the group and the name."""
    from repro.core.messages import KIND_DATA, DataPayload
    from repro.core.names import DEFAULT_PAGE, AduName

    network, agents, group = build_srm_session(star(k + 1), range(1, k + 1))
    network.trace.keep = ()
    network.trace_deliveries = False  # check mode traces, never batches
    name = AduName(0, DEFAULT_PAGE, 1)
    network.send_multicast(0, group, KIND_DATA,
                           DataPayload(name=name, data="x"))
    network.run(until=1.5)
    assert all(agent.store.have(name) for agent in agents.values())
    return network, agents, group, name


def _watch_runs(network):
    """Record ``(length, frames)`` of each run ``_deliver_many`` takes
    from now on, built-in calls included."""
    from functools import partial

    runs = []
    deliver_many = network._deliver_many

    def watched(members, packet):
        runs.append((len(members), _python_frames(
            partial(deliver_many, members, packet), c_calls=True)))

    network._deliver_many = watched
    return runs


def test_a_repair_run_over_holders_stays_in_the_run_handler():
    """A repair reaching k holders, each with its own repair timer
    pending, is one run. The run handler cancels, observes and
    refreshes each hold-down in place: per member only the timer's
    cancel and ``_set_holddown`` with its distance query, and no
    ``receive``, ``_accept_data``, ``DataStore.have`` or
    distance-oracle wrapper frame."""
    from repro.core.agent import SrmAgent
    from repro.core.messages import (KIND_REPAIR, KIND_REQUEST,
                                     RepairPayload, RequestPayload)

    k = 6
    network, agents, group, name = _star_of_holders(k)
    network.send_multicast(k + 1, group, KIND_REQUEST, RequestPayload(
        name=name, requester=k + 1, requester_distance_to_source=1.0))
    network.run(until=3.5)   # every holder schedules a repair
    assert all(agent.pending_repairs() == [name]
               for agent in agents.values())
    runs = _watch_runs(network)
    network.send_multicast(0, group, KIND_REPAIR, RepairPayload(
        name=name, data="x", replier=0, answering=k + 1))
    network.run(until=4.6)   # before any repair timer can fire
    ((length, frames),) = runs
    assert length == k
    handler = SrmAgent.receive_run.__qualname__
    assert frames[0] == handler and frames.count(handler) == 1, frames
    assert frames.count(SrmAgent._set_holddown.__qualname__) == k
    # Per member: Timer.pending, Timer.cancel, Event.cancel and its
    # list.pop, _set_holddown, Network.distance and holddown_until.
    assert len(frames) <= 1 + 7 * k, frames
    assert not [frame for frame in frames
                if frame in (SrmAgent.receive.__qualname__,
                             SrmAgent._accept_data.__qualname__,
                             "DataStore.have", "OracleDistance.distance",
                             "C:dict.get", "C:dict.__contains__")], frames
    assert all(agent.repairs_cancelled == 1 and not agent.pending_repairs()
               and agent.holddown_active(name)
               for agent in agents.values())


def test_a_data_run_over_holders_enters_only_the_run_handler():
    """Data every member of the run already holds is skipped in place:
    the run enters the run handler and makes no other call."""
    from repro.core.agent import SrmAgent
    from repro.core.messages import KIND_DATA, DataPayload

    k = 6
    network, agents, group, name = _star_of_holders(k)
    received = [agent.data_received for agent in agents.values()]
    runs = _watch_runs(network)
    network.send_multicast(0, group, KIND_DATA,
                           DataPayload(name=name, data="x"))
    network.run(until=3.0)
    assert runs == [(k, [SrmAgent.receive_run.__qualname__])]
    assert [agent.data_received for agent in agents.values()] == received


def test_a_request_heard_at_the_end_of_the_ignore_window_backs_off():
    """Footnote 1's ignore window is half-open: a duplicate heard at
    exactly ``ignore_backoff_until`` backs the timer off again; one
    heard just before it is only counted."""
    member, name, duplicate, _ = _member_in_request_suppression(keep=())
    context = member._requests[name]
    scheduler = member.network.scheduler
    end = context.ignore_backoff_until
    assert end > scheduler.now

    scheduler.schedule_at(end - 1e-6, member.receive, duplicate)
    scheduler.run(until=end - 1e-6)
    assert (context.backoff_count, member.requests_suppressed) == (1, 1)

    scheduler.schedule_at(end, member.receive, duplicate)
    scheduler.run(until=end)
    assert scheduler.now == end
    assert (context.backoff_count, member.requests_suppressed) == (2, 1)
