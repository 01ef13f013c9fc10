"""Batched delivery runs are invisible (docs/performance.md, "Batched
session/state delivery").

``Network._deliver_many`` hands a run of receivers that tie in (delay,
hops) to ``SrmAgent.receive_run`` (``core.agent.receive_run``) in one
call, which merges a session report or handles a request into the whole
run itself and hands a repair or data packet to each member's handler.
The reference is the per-receiver path the same method takes when
``trace_deliveries`` is on (the one switch that routes a delivery
through ``_deliver``): one ``_deliver`` -> ``receive`` chain per member.
Both must leave the same trace (its ``deliver`` rows aside), the same
event count and the same state at every member, loss-recovery state
(suppression and backoff counts, hold-downs, timer expiries, adaptive
parameters) included.
"""

from __future__ import annotations

import json
from dataclasses import astuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.agent import SrmAgent
from repro.core.config import SrmConfig
from repro.core.fec import KIND_FEC, FecPayload
from repro.core.messages import (KIND_PAGE_REPLY, KIND_PAGE_REQUEST,
                                 KIND_REQUEST, KIND_SESSION, PACKET,
                                 PageReplyPayload, PageRequestPayload,
                                 SessionPayload, SessionTimestamp)
from repro.core.names import DEFAULT_PAGE, AduName
from repro.core.state import ReceptionState
from repro.experiments.common import LossRecoverySimulation
from repro.experiments.figure5 import star_scenario
from repro.net.link import NthPacketDropFilter
from repro.net.node import Agent, receive_each
from repro.net.packet import Packet
from repro.sim.rng import RandomSource
from repro.topology.random_tree import random_labeled_tree
from repro.topology.spec import TopologySpec
from repro.topology.star import star

from conftest import examples

#: Few distinct link delays, so that receivers tie and runs form.
DELAYS = (0.5, 1.0, 2.0)


def deliver_per_receiver(network):
    """Send ``_deliver_many`` down its per-member path."""
    network.trace_deliveries = True


def handler_bound_runs(network):
    """The bound runs a class's own run handler serves (every other run
    goes to ``receive_each``)."""
    return [members for members, (handler, _, _)
            in network._run_bindings.items() if handler is not receive_each]


def run_session(batched, *, n, seed, oracle, adopt, shared_node, center,
                leaver):
    """A session on a random tree of ``n`` nodes plus two twin leaves.

    Sessions on; one data packet whose loss only a session report can
    reveal; the members near ``center`` scope their reports to a zone;
    ``shared_node`` carries a second agent; ``leaver`` leaves mid-run.
    """
    tree = random_labeled_tree(n, RandomSource(seed))
    # The twins hang off node 0 at equal delay: they tie for every other
    # origin, so every case has at least one run.
    spec = TopologySpec(name="tree+twins", num_nodes=n + 2,
                        edges=tree.edges + [(0, n), (0, n + 1)])
    network = spec.build()
    link_rng = RandomSource(seed).fork("links")
    for link in network.links[:-2]:
        link.delay = link_rng.choice(DELAYS)
    network.invalidate_routes()
    network.trace.keep = None
    # Check mode (SRM_CHECK=1) traces deliveries, which never batches.
    network.trace_deliveries = False
    if not batched:
        deliver_per_receiver(network)
    group = network.groups.allocate("session")
    config = SrmConfig(session_enabled=True, session_min_interval=5.0,
                       distance_oracle=oracle, adopt_streams=adopt)
    master = RandomSource(seed)
    agents = {}
    for member in range(n + 2):
        agent = SrmAgent(config.copy(), master.fork(f"member-{member}"))
        network.attach(member, agent)
        agent.join_group(group)
        agents[member] = agent
    lodger = SrmAgent(config.copy(), master.fork("lodger"))
    network.attach(shared_node, lodger)
    lodger.join_group(network.groups.allocate("side"))
    zone = {node for node in range(n + 2)
            if network.hops(center, node) <= 2}
    network.define_scope_zone("site", zone)
    for node in zone - {center}:
        agents[node].session.scope_zone = "site"
    source = 0
    network.add_drop_filter(*tree.edges[seed % len(tree.edges)],
                            NthPacketDropFilter(
        lambda p: p.kind == "srm-data" and p.origin == source))
    network.scheduler.schedule(1.0, agents[source].send_data, "tail")
    if leaver is not None:
        network.scheduler.schedule(12.3, agents[leaver].leave_group)
    network.run(until=40.0)
    agents["lodger"] = lodger
    return network, agents


def trace_rows(network):
    return [f"{row.time!r} {row.node} {row.kind} " + repr(sorted(
                (key, repr(value)) for key, value in row.detail.items()
                if key != "packet"))  # uids count across both runs
            for row in network.trace
            if row.kind != "deliver"]  # only the reference traces them


def recovery_state(agent):
    """A member's loss-recovery state: suppression and cancel counts,
    per name the backoff count, observations and timer expiry, the
    hold-down table and the adaptive parameters and averages."""
    adaptive = agent.adaptive
    return (
        agent.requests_suppressed, agent.repairs_cancelled,
        {name: (context.backoff_count, context.ignore_backoff_until, context.timer.expiry,
                context.done)
         for name, context in agent._requests.items()},
        {name: (context.repairs_observed, context.timer.expiry,
                context.done)
         for name, context in agent._repairs.items()},
        dict(agent._holddown),
        None if adaptive is None else (astuple(adaptive.params),
                                       astuple(adaptive.request),
                                       astuple(adaptive.repair)))


def handler_runs(network):
    """Watch ``_deliver_many``: (kind, length) of every run the run
    handler took."""
    runs = []
    deliver_many = network._deliver_many

    def watched(members, packet):
        deliver_many(members, packet)
        if network._run_bindings.get(
                members, (receive_each,))[0] is not receive_each:
            runs.append((packet.kind, len(members)))

    network._deliver_many = watched
    return runs


def observed(network, agents):
    """Everything the two delivery paths must agree on."""
    rows = trace_rows(network)
    members = {}
    for node, agent in agents.items():
        reception = agent.reception
        members[node] = (
            dict(agent.session.last_heard),
            dict(getattr(agent.distances, "estimates", {})),
            {page: dict(high) for page, high in reception._pages.items()},
            list(reception.page_state(DEFAULT_PAGE).items()),
            sorted(agent.store.held),
            agent.pending_requests(),
            recovery_state(agent))
    return "\n".join(rows).encode(), network.scheduler.events_processed, \
        members


@settings(max_examples=examples(25))
@given(data=st.data())
def test_batched_and_per_receiver_delivery_agree(data):
    n = data.draw(st.integers(4, 38), label="nodes")
    case = dict(
        n=n, seed=data.draw(st.integers(0, 10_000), label="seed"),
        oracle=data.draw(st.booleans(), label="distance_oracle"),
        adopt=data.draw(st.booleans(), label="adopt_streams"),
        shared_node=data.draw(st.integers(1, n - 1), label="shared_node"),
        center=data.draw(st.integers(0, n + 1), label="zone_center"),
        leaver=data.draw(st.none() | st.integers(1, n + 1), label="leaver"))
    batched_network, batched_agents = run_session(True, **case)
    plain_network, plain_agents = run_session(False, **case)
    assert handler_bound_runs(batched_network)
    assert not plain_network._run_bindings
    batched = observed(batched_network, batched_agents)
    plain = observed(plain_network, plain_agents)
    assert batched[0] == plain[0]
    assert batched[1:] == plain[1:]
    assert b"send_session" in batched[0]
    if not case["adopt"]:
        # The tail loss was found, and only a session report could.
        assert b"loss_detected" in batched[0]


def run_star_rounds(batched, *, leaves, seed, rounds):
    """Adaptive loss-recovery rounds on a star (Figs. 5 and 12-14).

    Every leaf is a member, so each request and each repair reaches the
    other leaves as one run, and the duplicates heard in it feed every
    member's ``AdaptiveTimers``. Rounds alternate between a drop next to
    the source (every other leaf requests) and one next to the last
    leaf (every other leaf can repair, and the first repair cancels the
    rest).
    """
    simulation = LossRecoverySimulation(
        star_scenario(leaves), config=SrmConfig(adaptive=True), seed=seed)
    network = simulation.network
    network.trace.keep = None
    network.trace_deliveries = not batched   # see deliver_per_receiver
    runs = handler_runs(network)
    rounds_seen = []
    for round_index in range(rounds):
        # run_round clears the trace first.
        outcome = simulation.run_round(
            drop_edge=(1, 0) if round_index % 2 == 0 else (0, leaves))
        rounds_seen.append((
            trace_rows(network), outcome.recovered,
            {node: recovery_state(agent)
             for node, agent in simulation.agents.items()}))
    return rounds_seen, network.scheduler.events_processed, runs


#: (leaves, seed): each case cancels at least one repair in six rounds.
@pytest.mark.parametrize("leaves,seed", [(6, 2), (16, 1), (30, 3)])
def test_request_and_repair_runs_agree_with_per_receiver_delivery(
        leaves, seed):
    batched, events, runs = run_star_rounds(True, leaves=leaves, seed=seed,
                                            rounds=6)
    plain, plain_events, plain_runs = run_star_rounds(
        False, leaves=leaves, seed=seed, rounds=6)
    assert not plain_runs
    assert batched == plain
    assert events == plain_events
    assert all(recovered for _, recovered, _ in batched)
    # Every request went to the other leaves as one handler run.
    requests = [length for kind, length in runs if kind == KIND_REQUEST]
    assert requests and set(requests) == {leaves - 1}
    text = "\n".join("\n".join(rows) for rows, _, _ in batched)
    assert "request_dup_ignored" in text and "repair_cancelled" in text
    # The duplicates heard in request runs reached the adaptive averages.
    assert any(state[5][1][0] > 0 for state in batched[-1][2].values())


def test_hop_engine_sees_the_same_session(monkeypatch):
    """``delivery="hop"`` never batches: every report reaches the run
    handler as a run of one, where the direct engine hands it the five
    tied leaves at once, and the members end up where the direct
    engine's do."""
    handled = []
    original = SrmAgent.receive_run
    monkeypatch.setattr(SrmAgent, "receive_run", staticmethod(
        lambda agents, packet: handled.append(len(agents))
        or original(agents, packet)))
    results = {}
    for delivery in ("direct", "hop"):
        handled.clear()
        network, agents = star_session(delivery=delivery, periodic=True)
        network.run(until=30.0)
        results[delivery] = {
            node: ({peer: sent for peer, (sent, _)
                    in agent.session.last_heard.items()},
                   agent.session.messages_sent)
            for node, agent in agents.items()}
        assert handled
        assert set(handled) == ({5} if delivery == "direct" else {1})
    assert results["direct"] == results["hop"]


# ----------------------------------------------------------------------
# The edges of run binding and of the merge, one at a time
# ----------------------------------------------------------------------

def star_session(members=range(1, 7), delivery="direct", sessionless=(),
                 periodic=False, **overrides):
    """SRM agents on leaves of a star: from any leaf, the others tie.

    Unless ``periodic``, the report timers are stopped and a test sends
    the reports it wants (:func:`report_from`).
    """
    network = star(6).build(delivery=delivery)
    network.trace_deliveries = False  # see run_session
    group = network.groups.allocate("session")
    master = RandomSource(3)
    agents = {}
    for leaf in members:
        config = SrmConfig(session_enabled=leaf not in sessionless,
                           session_min_interval=5.0, **overrides)
        agents[leaf] = SrmAgent(config, master.fork(f"member-{leaf}"))
        network.attach(leaf, agents[leaf])
        agents[leaf].join_group(group)
        if not periodic and agents[leaf].session is not None:
            agents[leaf].session.stop()
    return network, agents


def report_from(agent):
    """One session report, now, and its delivery."""
    agent.session.send_session_message()
    network = agent.network
    network.run(until=network.scheduler.now + 2.5)


def heard(agents, peer):
    return sorted(node for node, agent in agents.items()
                  if agent.session is not None
                  and peer in agent.session.last_heard)


class Listener(Agent):
    """A non-SRM agent that joined the session's group."""

    def __init__(self):
        super().__init__()
        self.kinds = []

    def receive(self, packet):
        self.kinds.append(packet.kind)


def member_state(agent):
    """What a delivery can change at a member: held data, reception
    high-water marks, pending requests, page-state timers and its
    loss-recovery state."""
    return (sorted(agent.store.held),
            {page: dict(high)
             for page, high in agent.reception._pages.items()},
            agent.pending_requests(),
            {page: (context.is_reply, context.done, context.timer.expiry)
             for page, context in agent._page_requests.items()},
            recovery_state(agent))


def test_session_kind_without_a_report_goes_agent_by_agent(monkeypatch):
    """The merge reads ``SessionPayload`` fields; anything else carried
    under the session kind reaches the run in one run-handler call, no
    ``receive`` call, and changes no member."""
    network, agents = star_session(sessionless=range(1, 7))
    network.trace.keep = None
    runs = []
    original_run = SrmAgent.receive_run
    monkeypatch.setattr(SrmAgent, "receive_run", staticmethod(
        lambda run, packet: (runs.append([a.node_id for a in run]),
                             original_run(run, packet))[1]))
    received = []
    original = SrmAgent.receive
    monkeypatch.setattr(SrmAgent, "receive", lambda self, packet: (
        received.append(self.node_id), original(self, packet))[1])
    before = {node: member_state(agent) for node, agent in agents.items()}
    network.send_multicast(1, agents[1].group, KIND_SESSION, None)
    network.run()
    assert runs == [[2, 3, 4, 5, 6]]
    assert received == []
    assert {node: member_state(agent)
            for node, agent in agents.items()} == before
    assert [row.kind for row in network.trace] == []
    assert handler_bound_runs(network) == [(2, 3, 4, 5, 6)]


def test_merge_skips_an_agent_without_a_session_protocol():
    network, agents = star_session(sessionless=(4,))
    assert agents[4].session is None
    report_from(agents[1])
    assert heard(agents, 1) == [2, 3, 5, 6]
    assert handler_bound_runs(network) == [(2, 3, 4, 5, 6)]


def test_instance_level_receive_keeps_its_run_off_the_handler():
    """A spy set on one agent hears its packets when deliveries are
    traced; the run handler, which serves untraced runs, does not
    look for it."""
    network, agents = star_session()
    network.trace_deliveries = True
    seen = []
    original = agents[3].receive
    agents[3].receive = lambda packet: (seen.append(packet.kind),
                                        original(packet))[1]
    report_from(agents[1])
    assert seen == [KIND_SESSION]
    assert heard(agents, 1) == [2, 3, 4, 5, 6]
    assert not network._run_bindings
    network.trace_deliveries = False
    report_from(agents[1])
    assert seen == [KIND_SESSION]
    assert handler_bound_runs(network) == [(2, 3, 4, 5, 6)]


def test_mixed_agent_classes_are_not_batched():
    network, agents = star_session(members=range(1, 6))
    listener = Listener()
    network.attach(6, listener)
    network.join(6, agents[1].group)
    report_from(agents[1])
    assert listener.kinds == [KIND_SESSION]
    assert heard(agents, 1) == [2, 3, 4, 5]
    assert list(network._run_bindings) == [(2, 3, 4, 5, 6)]
    handler, targets, _ = network._run_bindings[(2, 3, 4, 5, 6)]
    assert handler is receive_each
    assert targets == (agents[2], agents[3], agents[4], agents[5], listener)
    assert not handler_bound_runs(network)


def test_state_kinds_skip_a_member_not_listening_on_their_group():
    """A page request, a page reply and an FEC parity packet reach a run
    one of whose members, leaf 4, does not listen on their group (its
    node does). Taken as one run they leave every member as
    ``SrmAgent.receive`` on each member in turn leaves it, and leaf 4
    as it was: its own page request still pending, no loss detected."""
    outcomes = []
    for batched in (True, False):
        network, agents = star_session(members=(1, 2, 3, 5, 6), fec_block=2)
        network.trace.keep = None
        group = agents[1].group
        agents[4] = SrmAgent(SrmConfig(fec_block=2), RandomSource(4))
        network.attach(4, agents[4])
        agents[4].join_group(network.groups.allocate("other"))
        network.join(4, group)
        page = agents[1].create_page(1)
        agents[1].send_data("first", page=page)
        network.run(until=2.5)
        agents[4].request_page_state(page)
        before = member_state(agents[4])
        packets = [
            (KIND_PAGE_REQUEST, PageRequestPayload(page=page, requester=1)),
            (KIND_PAGE_REPLY, PageReplyPayload(
                page=page, replier=1, page_state={(1, page): 3})),
            (KIND_FEC, FecPayload(source=1, page=page, first_seq=3, k=2,
                                  parity=b"\x00", lengths=(1, 1)))]
        if batched:
            for kind, payload in packets:
                network.send_multicast(1, group, kind, payload)
        else:
            network.scheduler.schedule(2.0, lambda: [
                agents[node].receive(Packet(1, group, kind, payload))
                for kind, payload in packets for node in (2, 3, 4, 5, 6)])
        network.run(until=5.0)
        if batched:
            assert (2, 3, 4, 5, 6) in handler_bound_runs(network)
        assert member_state(agents[4]) == before
        assert agents[4]._page_requests[page].timer.pending
        for node in (2, 3, 5, 6):
            context = agents[node]._page_requests[page]
            assert context.is_reply and context.done   # the reply heard
            assert agents[node].pending_requests() == [
                AduName(1, page, seq) for seq in (2, 3, 4)]
        outcomes.append((trace_rows(network), {
            node: (member_state(agent),
                   {key: (sorted(block.payloads), block.parity)
                    for key, block in agent.fec._blocks.items()})
            for node, agent in agents.items()}))
    assert outcomes[0] == outcomes[1]


def test_subclass_that_replaces_receive_drops_the_run_handler():
    class Quiet(SrmAgent):
        def receive(self, packet):
            pass

    class Renamed(SrmAgent):
        pass

    assert Quiet.receive_run is receive_each
    assert Renamed.receive_run is SrmAgent.receive_run
    assert SrmAgent.receive_run is not receive_each
    assert Agent.receive_run is receive_each
    assert Listener.receive_run is receive_each


def test_a_member_that_left_is_skipped_by_the_merge():
    network, agents = star_session()
    agents[1].session.send_session_message()
    # The report is in flight (2.0 away); its plan still names leaf 4.
    network.scheduler.schedule(1.0, agents[4].leave_group)
    network.run(until=network.scheduler.now + 2.5)
    assert heard(agents, 1) == [2, 3, 5, 6]
    assert handler_bound_runs(network) == [(2, 3, 4, 5, 6)]


def test_attach_and_detach_rebind_the_run():
    network, agents = star_session()
    report_from(agents[1])
    run = (2, 3, 4, 5, 6)
    assert handler_bound_runs(network) == [run]
    lodger = Listener()
    network.attach(4, lodger)
    assert not network._run_bindings
    report_from(agents[1])
    assert lodger.kinds == [KIND_SESSION]
    assert list(network._run_bindings) == [run]
    handler, targets, _ = network._run_bindings[run]
    assert handler is receive_each
    assert targets == tuple(network.nodes[node] for node in run)
    assert not handler_bound_runs(network)
    network.detach(4, lodger)
    report_from(agents[1])
    assert lodger.kinds == [KIND_SESSION]
    assert handler_bound_runs(network) == [run]
    assert all(agent.session.last_heard[1][0] == network.scheduler.now - 2.5
               for node, agent in agents.items() if node != 1)


def test_streams_off_the_reported_page_still_reach_note_high_water():
    """No member reports one, a decoded datagram may: a stream keyed by a
    page other than ``payload.page`` takes the general path."""
    network, agents = star_session()
    network.trace.keep = None
    other = agents[1].create_page(7)
    payload = SessionPayload(
        member=1, sent_at=0.0, page=DEFAULT_PAGE,
        page_state={(1, other): 2, (1, DEFAULT_PAGE): 1})
    network.send_multicast(1, agents[1].group, KIND_SESSION, payload)
    network.run(until=2.5)
    for node in (2, 3, 4, 5, 6):
        assert agents[node].reception.high_water_table(other) == {1: 2}
        assert agents[node].reception.page_state(DEFAULT_PAGE) == {
            (1, DEFAULT_PAGE): 1}
        assert agents[node].pending_requests() == sorted([
            AduName(1, other, 1), AduName(1, other, 2),
            AduName(1, DEFAULT_PAGE, 1)])
    detected = [(row.node, row.detail["name"])
                for row in network.trace.filter(kind="loss_detected")]
    # Receiver by receiver, each in the report's stream order.
    assert detected == [
        (node, name) for node in (2, 3, 4, 5, 6)
        for name in (AduName(1, other, 1), AduName(1, other, 2),
                     AduName(1, DEFAULT_PAGE, 1))]


@pytest.mark.parametrize("oracle", [True, False])
def test_handle_is_the_one_receiver_call_of_the_merge(oracle):
    """``SrmAgent.receive`` on each member in turn, a run of one each,
    leaves what one merged run leaves (the echo branch included when
    distances are learned from session messages)."""
    outcomes = []
    for batched in (True, False):
        network, agents = star_session(distance_oracle=oracle)
        scheduler = network.scheduler
        payload = SessionPayload(
            member=1, sent_at=scheduler.now, page=DEFAULT_PAGE,
            page_state={(1, DEFAULT_PAGE): 1},
            echoes={2: SessionTimestamp(t1=-3.0, delta=0.5)})
        if batched:
            network.send_multicast(1, agents[1].group, KIND_SESSION,
                                   payload)
        else:
            packet = Packet(1, agents[1].group, KIND_SESSION, payload)
            scheduler.schedule(2.0, lambda: [
                agents[node].receive(packet)
                for node in (2, 3, 4, 5, 6)])
        network.run(until=2.0)
        outcomes.append({
            node: (agent.session.last_heard[1],
                   dict(getattr(agent.distances, "estimates", {})),
                   agent.pending_requests())
            for node, agent in agents.items() if node != 1})
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][3][2] == [AduName(1, DEFAULT_PAGE, 1)]
    if not oracle:
        assert outcomes[0][2][1][1] == ((2.0 + 3.0) - 0.5) / 2.0


@pytest.mark.parametrize("oracle", [True, False])
def test_a_decoded_report_merges_like_the_one_in_memory(oracle,
                                                       monkeypatch):
    """A report that crossed the wire names its page with a ``PageId``
    equal to, but not the same object as, the receivers' own. Merged by
    run, it must leave what the in-memory report leaves: the tail loss
    at the one leaf that missed it, and no loss anywhere else. It takes
    the steady-state test too: only that leaf reaches
    ``note_high_water``."""
    noted = []
    original = ReceptionState.note_high_water
    monkeypatch.setattr(ReceptionState, "note_high_water", lambda *args: (
        noted.append(args[1:]), original(*args))[1])
    outcomes = []
    for decoded in (False, True):
        network, agents = star_session(distance_oracle=oracle)
        network.trace.keep = None
        for leaf in (2, 3, 4, 5, 6):   # so that leaf 1's report echoes
            report_from(agents[leaf])
        network.add_drop_filter(0, 4, NthPacketDropFilter(
            lambda p: p.kind == "srm-data" and p.payload.name.seq == 2))
        agents[1].send_data("first")
        agents[1].send_data("second")
        network.run(until=network.scheduler.now + 2.5)
        if decoded:
            send = network.send_multicast

            def via_wire(origin, group, kind, payload, **options):
                wire = PACKET.encode(Packet(origin, group, kind, payload))
                received = PACKET.decode(json.loads(json.dumps(wire)))
                report = received.payload
                assert report.page == payload.page
                assert report.page is not payload.page
                assert all(page == payload.page and page is not report.page
                           for _, page in report.page_state)
                send(origin, group, kind, report, **options)

            network.send_multicast = via_wire
        noted.clear()
        report_from(agents[1])
        assert (2, 3, 4, 5, 6) in handler_bound_runs(network)
        outcomes.append((observed(network, agents), list(noted)))
    assert outcomes[0] == outcomes[1]
    (rows, _, members), notes = outcomes[1]
    assert rows.decode().count("loss_detected") == 1
    assert members[4][5] == [AduName(1, DEFAULT_PAGE, 2)]
    assert not any(member[5] for node, member in members.items()
                   if node != 4)
    assert notes == [(1, DEFAULT_PAGE, 2)]
