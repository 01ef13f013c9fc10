"""Emergent congestion: losses from queue overflow, not scripted drops.

The paper's experiments designate a "congested link" and drop one packet
on it. With queueing links, this module produces the same situation the
honest way: a source bursts application data through a bottleneck link
whose FIFO buffer overflows, SRM recovers the tail-dropped packets, and
— the Section III-C/III-E punchline — a token-bucket send rate chosen
within the session's bandwidth allocation prevents the overflow
entirely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.agent import SrmAgent
from repro.core.config import SrmConfig
from repro.core.names import AduName, DEFAULT_PAGE
from repro.experiments.common import collector_paused
from repro.sim.rng import RandomSource
from repro.sim.trace import QUEUE_DROP, RECV_DATA, SEND_REPAIR, SEND_REQUEST
from repro.topology.chain import chain


@dataclass
class CongestionOutcome:
    """What one burst through the bottleneck did."""

    packets_sent: int
    queue_drops: int
    data_queue_drops: int
    requests: int
    repairs: int
    all_recovered: bool
    finish_time: float


@collector_paused()  # the closed run frees itself
def run_congestion_experiment(
        burst: int = 12,
        bottleneck_bandwidth: float = 500.0,
        queue_limit: int = 3,
        rate_limit: Optional[float] = None,
        chain_length: int = 6,
        seed: int = 0) -> CongestionOutcome:
    """Send ``burst`` packets through a bottleneck; measure the damage.

    Data packets have size 1000; the bottleneck serializes at
    ``bottleneck_bandwidth``, so a burst injected faster than that piles
    into the ``queue_limit``-packet buffer. ``rate_limit`` (if set)
    paces the source with the Section III-E token bucket.
    """
    config = SrmConfig(rate_limit=rate_limit,
                       rate_limit_depth=1000.0 if rate_limit else 4000.0)
    spec = chain(chain_length)
    network = spec.build(delivery="hop")
    network.trace.keep = (RECV_DATA, QUEUE_DROP)
    bottleneck = network.set_link_bandwidth(
        chain_length // 2 - 1, chain_length // 2,
        bottleneck_bandwidth, queue_limit=queue_limit)
    group = network.groups.allocate("session")
    master = RandomSource(seed)
    agents: Dict[int, SrmAgent] = {}
    for node in range(chain_length):
        agent = SrmAgent(config.copy(), master.fork(f"member-{node}"))
        network.attach(node, agent)
        agent.join_group(group)
        agents[node] = agent
    source = agents[0]

    def send_burst() -> None:
        for index in range(burst):
            source.send_data(f"burst-{index}")

    network.scheduler.schedule(0.0, send_burst)
    # A paced beacon long after the burst reveals any tail losses.
    network.scheduler.schedule(400.0, lambda: source.send_data("beacon"))
    try:
        network.run(max_events=5_000_000)
    finally:
        network.close()  # the trace, stores and link counters stay readable

    data_drops = 0
    finish = 0.0
    for row in network.trace.records:
        if row.kind == RECV_DATA:
            if row.time > finish:
                finish = row.time
        elif row.detail["packet_kind"] == "srm-data":  # a QUEUE_DROP row
            data_drops += 1
    # The network is fresh, so its totals count this burst's rows alone.
    totals = network.trace.kind_totals
    requests, repairs = totals[SEND_REQUEST], totals[SEND_REPAIR]
    recovered = all(
        agents[node].store.have(AduName(0, DEFAULT_PAGE, seq))
        for node in range(chain_length)
        for seq in range(1, burst + 2))
    return CongestionOutcome(
        packets_sent=burst + 1,
        queue_drops=bottleneck.queue_drops,
        data_queue_drops=data_drops,
        requests=requests,
        repairs=repairs,
        all_recovered=recovered,
        finish_time=finish)


def main() -> None:  # pragma: no cover - CLI entry
    unpaced = run_congestion_experiment(rate_limit=None)
    paced = run_congestion_experiment(rate_limit=400.0)
    print("bottleneck 500 units/time, 3-packet buffer, 12-packet burst")
    print(f"  unpaced: {unpaced.data_queue_drops} data packets tail-"
          f"dropped, {unpaced.requests} requests, {unpaced.repairs} "
          f"repairs, recovered={unpaced.all_recovered}")
    print(f"  paced at 400: {paced.data_queue_drops} drops, "
          f"{paced.requests} requests, recovered={paced.all_recovered}")


if __name__ == "__main__":  # pragma: no cover
    main()
