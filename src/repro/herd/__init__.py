"""Vectorized struct-of-arrays member engine for mega-sessions.

See :mod:`repro.herd.engine` for the design and ``docs/herd.md`` for the
equivalence contract against the agent engine.
"""

from repro.herd.engine import (FULL_TRACE_THRESHOLD, HerdSimulation,
                               HerdUnsupportedError)
from repro.herd.oracles import HERD_ORACLES, attach_herd_oracles
from repro.herd.rngpool import DrawPools
from repro.herd.topo import TreeIndex
from repro.herd.wave import HerdWave

__all__ = [
    "FULL_TRACE_THRESHOLD",
    "HERD_ORACLES",
    "HerdSimulation",
    "HerdUnsupportedError",
    "DrawPools",
    "TreeIndex",
    "HerdWave",
    "attach_herd_oracles",
]
