"""Discrete-event simulation kernel.

The kernel is deliberately small: one event scheduler
(:class:`EventScheduler`, a calendar queue) whose cancellable,
reschedulable :class:`Event` handles are the protocol timers (the
interface is :mod:`repro.sim.timers`), a seeded random source
(:class:`RandomSource`),
a structured trace recorder (:class:`Trace`), and process-wide
performance counters (:mod:`repro.sim.perf`). Everything else in the
reproduction (links, protocol agents, applications) is built as callbacks
scheduled on this kernel.

Time is a float in abstract "units"; the paper normalizes one unit to the
propagation delay of one link, and so do all experiment drivers.
"""

from repro.sim import perf
from repro.sim.perf import PerfCounters
from repro.sim.scheduler import Event, EventScheduler, SimulationError
from repro.sim.rng import RandomSource
from repro.sim.trace import Trace, TraceRecord

__all__ = [
    "Event",
    "EventScheduler",
    "PerfCounters",
    "SimulationError",
    "RandomSource",
    "Trace",
    "TraceRecord",
    "perf",
]
