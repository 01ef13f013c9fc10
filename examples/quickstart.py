#!/usr/bin/env python
"""Quickstart: SRM loss recovery on a small tree, narrated.

Builds an 8-node chain where every node is a session member, drops the
first data packet on a mid-chain link, and traces the whole recovery:
gap detection at the members downstream of the failure, the single
suppressed request from the node adjacent to the failure, and the single
repair from the node just upstream — the Section IV-A story, live.

Run:  python examples/quickstart.py
"""

from repro import AduName, RandomSource, SrmAgent, SrmConfig
from repro.core.names import DEFAULT_PAGE
from repro.metrics.events import analyze_loss_event
from repro.net.link import NthPacketDropFilter
from repro.topology import chain


def main() -> None:
    # 1. A topology: nodes 0-7 in a chain, unit delay per link.
    spec = chain(8)
    network = spec.build()
    network.trace.keep = None   # keep every trace row (a network keeps none)

    # 2. A session: one multicast group, one SRM agent per member.
    group = network.groups.allocate("quickstart")
    agents = {}
    for node in range(8):
        agent = SrmAgent(SrmConfig(c1=1.0, c2=0.0, d1=1.0, d2=0.0),
                         RandomSource(node))
        network.attach(node, agent)
        agent.join_group(group)
        agents[node] = agent

    # 3. A failure: the link between nodes 3 and 4 drops the next data
    #    packet (the paper's "congested link").
    network.add_drop_filter(3, 4, NthPacketDropFilter(
        lambda packet: packet.kind == "srm-data"))

    # 4. The source sends two packets, one time unit apart. Packet 1 is
    #    lost below node 3; packet 2 reveals the gap.
    source = agents[0]
    network.scheduler.schedule(0.0, lambda: source.send_data("hello"))
    network.scheduler.schedule(1.0, lambda: source.send_data("world"))

    # 5. Run to quiescence and inspect.
    network.run()
    lost = AduName(0, DEFAULT_PAGE, 1)
    report = analyze_loss_event(network.trace, lost)

    print("=== protocol trace ===")
    interesting = ("send_data", "loss_detected", "send_request",
                   "send_repair", "data_recovered")
    for row in network.trace:
        if row.kind in interesting:
            print(f"  {row}")

    print()
    print("=== recovery report for", lost, "===")
    print(f"  members that detected the loss : {report.losses_detected}")
    print(f"  requests multicast             : {report.requests}")
    print(f"  repairs multicast              : {report.repairs}")
    for member, timing in sorted(report.recoveries.items()):
        print(f"  member {member}: recovered {timing.delay:.1f} units "
              f"after detection = {timing.ratio:.2f} of its RTT "
              f"to the source")
    farthest = report.last_member_recovery_ratio()
    print(f"  last member's delay/RTT        : {farthest:.2f} "
          f"(unicast recovery could never beat 1.0)")
    assert all(agent.store.have(lost) for agent in agents.values())
    print("\nAll 8 members hold the data. Reliable multicast, no ACKs.")


if __name__ == "__main__":
    main()
