"""repro.fleet: controller + worker agents behind the ``spec/v3`` API.

The fleet turns the one-machine :mod:`repro.runner` into a service:

* :mod:`repro.fleet.wire` — the frozen ``spec/v3`` JSON wire schema for
  :class:`~repro.experiments.common.ExperimentSpec` and
  :class:`~repro.experiments.common.RunResult` (explicit
  ``to_json``/``from_json``, schema-version field, unknown-field
  rejection), a table on :mod:`repro.codec`. The same encoding keys
  the runner's result cache.
* :mod:`repro.fleet.controller` — a thin stdlib HTTP service that
  accepts serialized spec sweeps, schedules tasks onto registered
  workers (lease + heartbeat on the runner's
  :class:`~repro.runner.lease.LeaseTable`; an expiry spends an attempt
  and reschedules), stores results in
  the shared content-addressed :class:`~repro.runner.cache.ResultCache`,
  and serves its event feed as JSONL from a ``?since=`` cursor, which a
  minimal live dashboard page polls.
* :mod:`repro.fleet.worker` — the pull-based worker agent: register,
  lease, execute via :func:`~repro.experiments.common.run_experiment`,
  report, heartbeat while busy.
* :mod:`repro.fleet.client` — :class:`FleetClient` (submit / status /
  results / events) and :class:`FleetRunner`, the
  :class:`~repro.runner.executor.ExperimentRunner` subclass that ships
  a figure sweep through a controller instead of a local pool.

Determinism is the contract: a sweep run through the fleet — worker
crashes included — produces RunMetrics bundles identical to the serial
``repro.runner`` run. See ``docs/fleet.md``.
"""

from repro.fleet.client import FleetClient, FleetError, FleetRunner
from repro.fleet.controller import FleetController, serve_forever
from repro.fleet.wire import (
    WIRE_SCHEMA,
    WireFormatError,
    result_from_wire,
    result_to_wire,
    spec_from_wire,
    spec_to_wire,
)
from repro.fleet.worker import FleetWorker

__all__ = [
    "WIRE_SCHEMA",
    "WireFormatError",
    "spec_to_wire",
    "spec_from_wire",
    "result_to_wire",
    "result_from_wire",
    "FleetController",
    "serve_forever",
    "FleetWorker",
    "FleetClient",
    "FleetRunner",
    "FleetError",
]
