"""The frozen ``spec/v3`` wire schema for experiment specs and results.

This module is the single serialization boundary for the
``ExperimentSpec → RunResult`` API: every fleet HTTP payload, runner
cache key and cache entry goes through it, never through ad-hoc pickling
of in-process conventions. The schema is one table: :data:`SCHEMA` holds,
per wired class, the ``(attribute, wire key, codec)`` rows of its
:func:`~repro.codec.record`, so it gets the codec's guarantees — rows
that name exactly their class's fields or this module does not import,
closed key sets, exact types, and :class:`WireFormatError` (naming the
path to the bad node) as the only refusal, whatever the JSON value.
Nothing is derived from ``repr`` or pickle, so the wire format cannot
drift when an in-memory class grows a cache slot. On top of those:

* **Versioned.** Every top-level payload carries ``"schema": "spec/v3"``
  (a ``tag`` row) and decoding any other version raises
  :class:`WireFormatError`. The schema is *frozen*: changing the meaning
  of an existing field requires a ``spec/v4``, not an edit
  (``tests/data/spec_v3_golden.json`` pins the bytes).
* **Exact.** Floats ride as JSON numbers (Python's shortest-round-trip
  repr), so a decoded spec fingerprints and simulates bit-identically
  to the original — the property the fleet's determinism guarantee
  rests on.

The table covers every spec used by the figure, scaling and fuzz
suites: recovery and scoped kinds, direct/hop/herd engines, adaptive
configs, and the full result path (round outcomes with their per-member
loss-event reports, metrics bundles, scoped-recovery artifacts).

Beside the schema sit the records of the controller's four POST bodies
(:data:`SUBMIT` … :data:`REPORT`), outside ``wire-schema.lock``.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, cast

from repro.codec import (
    BOOL,
    FLOAT,
    INT,
    OBJECT,
    SCALAR,
    STR,
    Codec,
    Row,
    Rows,
    WireFormatError,
    build,
    dumps_canonical,
    int_keyed,
    list_of,
    omittable,
    optional,
    record,
    tag,
    tuple_of,
)
from repro.core.config import AdaptiveBounds, SrmConfig
from repro.core.local import LocalRecoveryOutcome
from repro.core.messages import PAGE
from repro.core.names import AduName
from repro.experiments.common import (
    ExperimentSpec,
    RoundOutcome,
    RunResult,
    Scenario,
)
from repro.metrics.bundle import BUNDLE
from repro.metrics.events import LossEventReport, MemberTiming
from repro.topology.spec import TopologySpec

#: The frozen schema tag carried by every top-level payload.
WIRE_SCHEMA = "spec/v3"

__all__ = [
    "WIRE_SCHEMA",
    "WireFormatError",
    "spec_to_wire",
    "spec_from_wire",
    "spec_to_json",
    "spec_from_json",
    "result_to_wire",
    "result_from_wire",
    "result_to_json",
    "result_from_json",
    "dumps_canonical",
]


def _encode_artifact(value: Any) -> Any:
    if isinstance(value, LocalRecoveryOutcome):
        return SCOPED.encode(value)
    if isinstance(value, (list, tuple)):
        return [_encode_artifact(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _encode_artifact(item)
                for key, item in value.items()}
    # Anything else has no spec/v3 form until a codec is added for it.
    return SCALAR.encode(value)


def _decode_artifact(wire: Any) -> Any:
    if isinstance(wire, dict):
        if wire.get("__kind__") == SCOPED_OUTCOME:
            return SCOPED.decode(wire)
        return {key: _decode_artifact(item) for key, item in wire.items()}
    if isinstance(wire, list):
        return [_decode_artifact(item) for item in wire]
    return wire


def _scalars(cls: type, **nested: Codec) -> Rows:
    """Rows for a dataclass of scalar knobs, read off its field list:
    ``SrmConfig`` / ``AdaptiveBounds`` ride field-by-field under their
    own names, so their rows follow the dataclass by construction."""
    return tuple((f.name, f.name, nested.get(f.name, SCALAR))
                 for f in dataclasses.fields(cls))


# ----------------------------------------------------------------------
# The schema: one row per field of every wired class.
# ----------------------------------------------------------------------

#: A ``spec/v4`` field is one new row here, plus the ``WIRE_SCHEMA`` bump
#: and a re-pinned ``wire-schema.lock`` (docs/fleet.md, "Schema
#: evolution"). Both top-level types, so a result's spec too, are tagged.
SCHEMA: Dict[type, Rows] = {}


def _wired(cls: type, *rows: Row) -> Codec:
    """``cls``'s record, its rows entered in :data:`SCHEMA`."""
    SCHEMA[cls] = rows
    return record(cls, rows)


SCHEMA_TAG = tag(WIRE_SCHEMA, "wire schema")
SCOPED_OUTCOME = "scoped-outcome"
INT_LIST = list_of(INT)
INT_PAIR = tuple_of(INT, INT)
INT_SET = Codec(sorted, lambda wire: frozenset(INT_LIST.decode(wire)))
#: Kind-specific extras: JSON values, plus tagged scoped outcomes.
ARTIFACTS = Codec(_encode_artifact,
                  lambda wire: _decode_artifact(OBJECT.decode(wire)))

TOPOLOGY = _wired(
    TopologySpec,
    ("name", "name", STR),
    ("num_nodes", "num_nodes", INT),
    ("edges", "edges", list_of(INT_PAIR)),
    # Free-form annotations: any JSON object.
    ("metadata", "metadata", OBJECT),
)
SCENARIO = _wired(
    Scenario,
    ("spec", "topology", TOPOLOGY),
    ("members", "members", INT_LIST),
    ("source", "source", INT),
    ("drop_edge", "drop_edge", INT_PAIR),
)
ADAPTIVE_BOUNDS = _wired(AdaptiveBounds, *_scalars(AdaptiveBounds))
CONFIG = _wired(SrmConfig,
                *_scalars(SrmConfig, adaptive_bounds=ADAPTIVE_BOUNDS))
SPEC = _wired(
    ExperimentSpec,
    (None, "schema", SCHEMA_TAG),
    ("scenario", "scenario", SCENARIO),
    ("config", "config", optional(CONFIG)),
    ("rounds", "rounds", INT),
    ("seed", "seed", INT),
    ("engine", "engine", STR),
    ("experiment", "experiment", STR),
    ("kind", "kind", STR),
    ("scoped_mode", "scoped_mode", optional(STR)),
    ("trigger_gap", "trigger_gap", FLOAT),
)
NAME = _wired(
    AduName,
    ("source", "source", INT),
    ("page", "page", PAGE),
    ("seq", "seq", INT),
)
TIMINGS = int_keyed(_wired(
    MemberTiming,
    ("member", "member", INT),
    ("delay", "delay", FLOAT),
    ("rtt", "rtt", FLOAT),
    ("ratio", "ratio", FLOAT),
    ("at", "at", FLOAT),
    ("via", "via", STR),
))
REPORT = _wired(
    LossEventReport,
    ("name", "name", NAME),
    ("requests", "requests", INT),
    ("repairs", "repairs", INT),
    ("second_step_repairs", "second_step_repairs", INT),
    ("losses_detected", "losses_detected", INT),
    ("recoveries", "recoveries", TIMINGS),
    ("request_waits", "request_waits", TIMINGS),
)
OUTCOME = _wired(
    RoundOutcome,
    ("report", "report", REPORT),
    ("name", "name", NAME),
    ("requests", "requests", INT),
    ("repairs", "repairs", INT),
    ("duplicate_requests", "duplicate_requests", INT),
    ("duplicate_repairs", "duplicate_repairs", INT),
    ("last_member_ratio", "last_member_ratio", optional(FLOAT)),
    ("closest_request_ratio", "closest_request_ratio", optional(FLOAT)),
    ("recovered", "recovered", BOOL),
)
SCOPED = _wired(
    LocalRecoveryOutcome,
    (None, "__kind__", tag(SCOPED_OUTCOME, "artifact kind")),
    ("requester", "requester", INT),
    ("replier", "replier", INT),
    ("request_ttl", "request_ttl", INT),
    ("loss_members", "loss_members", INT_SET),
    ("repair_reached", "repair_reached", INT_SET),
    ("session_size", "session_size", INT),
)
RESULT = _wired(
    RunResult,
    (None, "schema", SCHEMA_TAG),
    ("spec", "spec", SPEC),
    ("outcomes", "outcomes", list_of(OUTCOME)),
    ("metrics", "metrics", optional(BUNDLE)),
    ("artifacts", "artifacts", ARTIFACTS),
)


def spec_to_wire(spec: ExperimentSpec) -> Dict[str, Any]:
    """Encode one :class:`ExperimentSpec` as a spec/v3 payload."""
    return cast(Dict[str, Any], SPEC.encode(spec))


def spec_from_wire(payload: Any) -> ExperimentSpec:
    """Decode a spec/v3 payload back into an :class:`ExperimentSpec`."""
    return cast(ExperimentSpec, SPEC.decode(payload))


def spec_to_json(spec: ExperimentSpec) -> str:
    return dumps_canonical(spec_to_wire(spec))


def spec_from_json(text: str | bytes) -> ExperimentSpec:
    return spec_from_wire(build(json.loads, text))


def result_to_wire(result: RunResult) -> Dict[str, Any]:
    """Encode one :class:`RunResult` as a spec/v3 payload."""
    return cast(Dict[str, Any], RESULT.encode(result))


def result_from_wire(payload: Any) -> RunResult:
    """Decode a spec/v3 payload back into a :class:`RunResult`."""
    return cast(RunResult, RESULT.decode(payload))


def result_to_json(result: RunResult) -> str:
    return dumps_canonical(result_to_wire(result))


def result_from_json(text: str | bytes) -> RunResult:
    return result_from_wire(build(json.loads, text))


# ----------------------------------------------------------------------
# The fleet controller's request bodies (docs/fleet.md, "API").
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Submit:
    """``POST /api/v1/jobs``: one experiment's sweep of specs."""

    experiment: str
    specs: List[ExperimentSpec]
    env: Dict[str, str]              # the submitter's repro.env.snapshot()
    salt: str                        # the submitter's cache salt

    def __post_init__(self) -> None:
        if not self.experiment:
            raise ValueError("submit requires a non-empty 'experiment'")
        if not self.specs:
            raise ValueError("submit requires a non-empty 'specs' list")


@dataclass(frozen=True)
class Register:
    """``POST /api/v1/workers/register``."""

    name: str


@dataclass(frozen=True)
class Lease:
    """``POST /api/v1/lease``."""

    worker: str


@dataclass(frozen=True)
class Report:
    """``POST /api/v1/results``: a leased task's result, or its error."""

    worker: str
    job: str
    index: int
    duration: float
    result: Optional[RunResult]
    error: Optional[str]

    def __post_init__(self) -> None:
        if (self.result is None) == (self.error is None):
            raise ValueError("a report carries exactly one of 'result' "
                             "and 'error'")


#: An env block: knob names to values.
ENV = Codec(dict, lambda wire: {name: STR.decode(value) for name, value
                                in OBJECT.decode(wire).items()})

SUBMIT = record(
    Submit,
    (
        ("experiment", "experiment", STR),
        ("specs", "specs", list_of(SPEC)),
        ("env", "env", omittable(ENV, {})),
        ("salt", "salt", omittable(STR, "")),
    ))
REGISTER = record(Register, (("name", "name", omittable(STR, "")),))
LEASE = record(Lease, (("worker", "worker", STR),))
REPORT = record(
    Report,
    (
        ("worker", "worker", STR),
        ("job", "job", STR),
        ("index", "index", INT),
        ("duration", "duration", omittable(FLOAT, 0.0)),
        ("result", "result", omittable(optional(RESULT), None)),
        ("error", "error", omittable(optional(STR), None)),
    ))
