"""repro: a full reproduction of Scalable Reliable Multicast (SRM).

Floyd, Jacobson, Liu, McCanne, Zhang — "A Reliable Multicast Framework
for Light-Weight Sessions and Application Level Framing", SIGCOMM '95 /
IEEE/ACM ToN 5(6) 1997.

Layers (bottom up):

* :mod:`repro.sim` — discrete-event kernel (scheduler, timers, RNG, trace)
* :mod:`repro.net` — packets, links, drop filters, shortest-path routing
* :mod:`repro.mcast` — IP multicast group membership
* :mod:`repro.topology` — chains, stars, trees, random graphs, LANs
* :mod:`repro.core` — the SRM framework itself
* :mod:`repro.wb` — the whiteboard application built on SRM
* :mod:`repro.baselines` — sender-ACK / unicast-NACK / N-unicast baselines
* :mod:`repro.analysis` — Section IV closed forms
* :mod:`repro.runner` — parallel experiment execution, result cache,
  run manifests
* :mod:`repro.metrics` — the observability layer: per-run metric
  bundles, reports, regression comparison
* :mod:`repro.experiments` — one driver per figure of the evaluation,
  behind the ``ExperimentSpec -> run_experiment -> RunResult`` API

Quickstart::

    from repro import SrmAgent, SrmConfig, RandomSource
    from repro.topology import chain

    network = chain(8).build()
    group = network.groups.allocate("session")
    agents = {}
    for node in range(8):
        agent = SrmAgent(SrmConfig(), RandomSource(node))
        network.attach(node, agent)
        agent.join_group(group)
        agents[node] = agent
    agents[0].send_data("hello")
    network.run()
"""

from repro.core.agent import SrmAgent
from repro.core.config import AdaptiveBounds, SrmConfig, TimerParams
from repro.core.names import AduName, PageId
from repro.experiments.common import ExperimentSpec, RunResult, Scenario
from repro.metrics.bundle import RunMetrics
from repro.net.network import Network
from repro.net.packet import GroupAddress, Packet
from repro.sim.rng import RandomSource
from repro.sim.scheduler import EventScheduler
from repro.sim.trace import Trace

__version__ = "3.0.0"

__all__ = [
    "SrmAgent",
    "SrmConfig",
    "TimerParams",
    "AdaptiveBounds",
    "AduName",
    "PageId",
    "Network",
    "Packet",
    "GroupAddress",
    "RandomSource",
    "EventScheduler",
    "Trace",
    "ExperimentSpec",
    "RunResult",
    "RunMetrics",
    "Scenario",
    "__version__",
]
