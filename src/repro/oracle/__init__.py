"""Online protocol-invariant checkers and the scenario fuzzer.

``repro.oracle`` watches live simulation runs through the trace stream
and validates the paper's behavioral claims — eventual delivery,
request/repair timer legality, exponential backoff, the 3·d repair
hold-down, and TTL/administrative scoping. Attach the suite to any
network (``SessionOracleSuite.attach``), run, then ``verify()``.

``repro.oracle.fuzz`` hunts for violations at scale: random scenarios
executed in parallel through ``repro.runner``, with greedy shrinking so
failures land minimized and seed-reproducible. See ``docs/oracles.md``.
"""

from repro.oracle.base import (
    EPSILON,
    Oracle,
    OracleViolationError,
    SessionOracleSuite,
    Violation,
    ViolationReport,
    check_mode_enabled,
)
from repro.oracle.checkers import (
    DeliveryConsistencyOracle,
    RepairHolddownOracle,
    RequestTimerOracle,
    SchedulerMonotonicityOracle,
    ScopeTtlOracle,
    SuppressionOracle,
    TraceSchemaOracle,
    default_oracles,
    passive_oracles,
)

__all__ = [
    "EPSILON",
    "Oracle",
    "OracleViolationError",
    "SessionOracleSuite",
    "Violation",
    "ViolationReport",
    "check_mode_enabled",
    "DeliveryConsistencyOracle",
    "RepairHolddownOracle",
    "RequestTimerOracle",
    "SchedulerMonotonicityOracle",
    "ScopeTtlOracle",
    "SuppressionOracle",
    "TraceSchemaOracle",
    "default_oracles",
    "passive_oracles",
]
