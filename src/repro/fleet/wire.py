"""The frozen ``spec/v3`` wire schema for experiment specs and results.

This module is the single serialization boundary for the
``ExperimentSpec → RunResult`` API: every fleet HTTP payload and every
runner cache key goes through it, never through ad-hoc pickling of
in-process conventions. The schema is one table: :data:`SCHEMA` holds,
per wired class, ``(attribute, wire key, codec)`` rows built from a
handful of combinators (:data:`INT` … :func:`record`), and :func:`_encode`
/ :func:`_decode` are the only code that builds or takes apart a
payload — a class is framed once, in its rows. The rules:

* **Versioned.** Every top-level payload carries ``"schema": "spec/v3"``
  (a :func:`tag` row) and decoding any other version raises
  :class:`WireFormatError`. The schema is *frozen*: changing the meaning
  of an existing field requires a ``spec/v4``, not an edit
  (``tests/data/spec_v3_golden.json`` pins the bytes).
* **Explicit.** Rows name exactly their class's fields or this module
  does not import (:func:`_check_rows`): a field added to a dataclass
  but not to the table cannot fingerprint, let alone ship. Nothing is
  derived from ``repr`` or pickle, so the wire format cannot drift when
  an in-memory class grows a cache slot.
* **Closed.** ``_decode`` requires every row's key and rejects any
  other, so a newer, incompatible peer fails loudly at the boundary —
  and whatever the JSON value, only ever as :class:`WireFormatError`.
* **Exact.** Floats ride as JSON numbers (Python's shortest-round-trip
  repr), so a decoded spec fingerprints and simulates bit-identically
  to the original — the property the fleet's determinism guarantee
  rests on.

The table covers every spec used by the figure, scaling and fuzz
suites: recovery and scoped kinds, direct/hop/herd engines, adaptive
configs, and the full result path (round outcomes with their per-member
loss-event reports, metrics bundles, scoped-recovery artifacts).
"""

from __future__ import annotations

import dataclasses
import json
from functools import partial
from typing import Any, Callable, Dict, Mapping, NamedTuple, Optional, Tuple, Type, TypeVar

from repro.core.config import AdaptiveBounds, SrmConfig
from repro.core.local import LocalRecoveryOutcome
from repro.core.names import AduName, PageId
from repro.experiments.common import (
    ExperimentSpec,
    RoundOutcome,
    RunResult,
    Scenario,
)
from repro.metrics.bundle import RunMetrics
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


class WireFormatError(ValueError):
    """A payload violates the spec/v3 schema (version, fields, types)."""


def dumps_canonical(payload: Mapping[str, Any]) -> str:
    """The canonical JSON rendering: sorted keys, no whitespace.

    Fingerprints hash this rendering, so it must stay byte-stable for a
    given payload across processes and Python versions.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


# ----------------------------------------------------------------------
# Codecs: how one value rides, and the combinators that build them.
# ----------------------------------------------------------------------


class Codec(NamedTuple):
    """``encode(value) -> JSON`` and ``decode(JSON) -> value``; either
    raises :class:`WireFormatError` on a value with no spec/v3 form."""

    encode: Callable[[Any], Any]
    decode: Callable[[Any], Any]


#: ``(attribute, wire key, codec)``; a None attribute is a :func:`tag`.
Row = Tuple[Optional[str], str, Codec]
T = TypeVar("T")


def _same(value: Any) -> Any:
    return value


def _expects(what: str, *kinds: type) -> Callable[[Any], Any]:
    def check(wire: Any) -> Any:
        # Exact JSON types: isinstance() would call a bool an int.
        if type(wire) in kinds:
            return wire
        raise WireFormatError(f"expected {what}, got {wire!r}")

    return check


_scalar = _expects("a scalar (bool/int/float/str/null)",
                   bool, int, float, str, type(None))
_number = _expects("a number", int, float)
_object = _expects("a JSON object", dict)
_list = _expects("a list", list)

INT = Codec(_same, _expects("an integer", int))
# A conversion's own ValueError / OverflowError (``float(10**400)``,
# ``int("x")`` in int_keyed) is reported by _decode like any other.
FLOAT = Codec(_same, lambda wire: float(_number(wire)))
STR = Codec(_same, _expects("a string", str))
BOOL = Codec(_same, _expects("a boolean", bool))
#: Config knobs: checked in both directions, so a future non-scalar
#: knob must get a codec of its own deliberately.
SCALAR = Codec(_scalar, _scalar)


def tag(value: str, what: str) -> Codec:
    """A constant every payload of the class carries; no attribute."""

    def decode(wire: Any) -> None:
        if wire != value:
            raise WireFormatError(f"unsupported {what} {wire!r} "
                                  f"(this build speaks {value!r})")

    return Codec(lambda _: value, decode)


def optional(item: Codec) -> Codec:
    """``item``, or JSON null for None."""
    return Codec(lambda value: None if value is None else item.encode(value),
                 lambda wire: None if wire is None else item.decode(wire))


def list_of(item: Codec) -> Codec:
    """A JSON list of ``item`` (a plain copy when items ride as-is)."""
    encode: Callable[[Any], Any] = list if item.encode is _same else (
        lambda value: [item.encode(element) for element in value])
    return Codec(encode,
                 lambda wire: [item.decode(element) for element in _list(wire)])


def pair_of(item: Codec) -> Codec:
    """A two-element JSON list, decoded to a tuple."""
    items = list_of(item)

    def decode(wire: Any) -> Tuple[Any, Any]:
        first, second = items.decode(wire)  # ValueError unless exactly two
        return first, second

    return Codec(items.encode, decode)


def int_keyed(item: Codec) -> Codec:
    """``{int: item}`` as a JSON object keyed by the decimal string."""
    return Codec(
        lambda value: {str(member): item.encode(element)
                       for member, element in sorted(value.items())},
        lambda wire: {int(member): item.decode(element)
                      for member, element in _object(wire).items()})


def record(cls: type) -> Codec:
    """A nested wired class: its :data:`SCHEMA` rows as a JSON object."""
    return Codec(partial(_encode, cls), partial(_decode, cls))


def _encode(cls: type, obj: Any) -> Dict[str, Any]:
    """``obj`` as the JSON object its :data:`SCHEMA` rows describe."""
    payload: Dict[str, Any] = {}
    key = ""
    try:
        for attribute, key, codec in SCHEMA[cls]:
            payload[key] = codec.encode(
                None if attribute is None else getattr(obj, attribute))
    except WireFormatError as exc:
        raise WireFormatError(f"{key}: {exc}") from None
    return payload


def _decode(cls: Type[T], payload: Any) -> T:
    """The ``cls`` a JSON value describes, or :class:`WireFormatError`.

    Owns every check: the value is an object, each row's key is there
    and satisfies its codec (a tag is the first row, so a foreign version
    is refused before anything else is read), no other key is. Failures
    are prefixed with their key on the way out: a path from the root.
    """
    found, rows = _object(payload), SCHEMA[cls]
    values: Dict[str, Any] = {}
    key = ""
    try:
        for attribute, key, codec in rows:
            if key not in found:
                raise WireFormatError("missing required field")
            value = codec.decode(found[key])
            if attribute is not None:
                values[attribute] = value
    except (ValueError, OverflowError) as exc:
        raise WireFormatError(f"{key}: {exc}") from None
    if len(found) != len(rows):
        known = {key for _, key, _ in rows}
        unknown = ", ".join(sorted(str(key) for key in found.keys() - known))
        raise WireFormatError(f"unknown field(s) {unknown}")
    return _build(cls, **values)


def _build(make: Callable[..., T], *args: Any, **fields: Any) -> T:
    """``make(...)``; its own refusal (``TopologySpec`` of a self-loop,
    ``RunMetrics.from_dict`` of a foreign bundle, ``json.loads`` of
    anything but JSON) is a schema violation like any other."""
    try:
        return make(*args, **fields)
    except (TypeError, ValueError) as exc:
        raise WireFormatError(
            f"{make.__module__}.{make.__qualname__}: {exc}") from exc


def _encode_artifact(value: Any) -> Any:
    if isinstance(value, LocalRecoveryOutcome):
        return _encode(LocalRecoveryOutcome, value)
    if isinstance(value, (list, tuple)):
        return [_encode_artifact(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _encode_artifact(item)
                for key, item in value.items()}
    # Anything else has no spec/v3 form until a codec is added for it.
    return _scalar(value)


def _decode_artifact(wire: Any) -> Any:
    if isinstance(wire, dict):
        if wire.get("__kind__") == SCOPED_OUTCOME:
            return _decode(LocalRecoveryOutcome, wire)
        return {key: _decode_artifact(item) for key, item in wire.items()}
    if isinstance(wire, list):
        return [_decode_artifact(item) for item in wire]
    return wire


def _scalars(cls: type, **nested: Codec) -> Tuple[Row, ...]:
    """Rows for a dataclass of scalar knobs, read off its field list:
    ``SrmConfig`` / ``AdaptiveBounds`` ride field-by-field under their
    own names, so their rows follow the dataclass by construction."""
    return tuple((f.name, f.name, nested.get(f.name, SCALAR))
                 for f in dataclasses.fields(cls))


# ----------------------------------------------------------------------
# The schema: one row per field of every wired class.
# ----------------------------------------------------------------------

SCHEMA_TAG = tag(WIRE_SCHEMA, "wire schema")
SCOPED_OUTCOME = "scoped-outcome"
INT_LIST = list_of(INT)
INT_PAIR = pair_of(INT)
INT_SET = Codec(sorted, lambda wire: frozenset(INT_LIST.decode(wire)))
PAGE = Codec(list, lambda wire: PageId(*INT_PAIR.decode(wire)))
TIMINGS = int_keyed(record(MemberTiming))
#: Free-form annotations (``TopologySpec.metadata``): any JSON object.
OBJECT = Codec(dict, lambda wire: dict(_object(wire)))
METRICS = Codec(RunMetrics.to_dict,
                lambda wire: _build(RunMetrics.from_dict, _object(wire)))
#: Kind-specific extras: JSON values, plus tagged scoped outcomes.
ARTIFACTS = Codec(_encode_artifact,
                  lambda wire: _decode_artifact(_object(wire)))

#: A ``spec/v4`` field is one new row here, plus the ``WIRE_SCHEMA`` bump
#: and a re-pinned ``wire-schema.lock`` (docs/fleet.md, "Schema
#: evolution"). Both top-level types, so a result's spec too, are tagged.
SCHEMA: Dict[type, Tuple[Row, ...]] = {
    TopologySpec: (
        ("name", "name", STR),
        ("num_nodes", "num_nodes", INT),
        ("edges", "edges", list_of(INT_PAIR)),
        ("metadata", "metadata", OBJECT),
    ),
    Scenario: (
        ("spec", "topology", record(TopologySpec)),
        ("members", "members", INT_LIST),
        ("source", "source", INT),
        ("drop_edge", "drop_edge", INT_PAIR),
    ),
    AdaptiveBounds: _scalars(AdaptiveBounds),
    SrmConfig: _scalars(SrmConfig, adaptive_bounds=record(AdaptiveBounds)),
    ExperimentSpec: (
        (None, "schema", SCHEMA_TAG),
        ("scenario", "scenario", record(Scenario)),
        ("config", "config", optional(record(SrmConfig))),
        ("rounds", "rounds", INT),
        ("seed", "seed", INT),
        ("engine", "engine", STR),
        ("experiment", "experiment", STR),
        ("kind", "kind", STR),
        ("scoped_mode", "scoped_mode", optional(STR)),
        ("trigger_gap", "trigger_gap", FLOAT),
    ),
    AduName: (
        ("source", "source", INT),
        ("page", "page", PAGE),
        ("seq", "seq", INT),
    ),
    MemberTiming: (
        ("member", "member", INT),
        ("delay", "delay", FLOAT),
        ("rtt", "rtt", FLOAT),
        ("ratio", "ratio", FLOAT),
        ("at", "at", FLOAT),
        ("via", "via", STR),
    ),
    LossEventReport: (
        ("name", "name", record(AduName)),
        ("requests", "requests", INT),
        ("repairs", "repairs", INT),
        ("second_step_repairs", "second_step_repairs", INT),
        ("losses_detected", "losses_detected", INT),
        ("recoveries", "recoveries", TIMINGS),
        ("request_waits", "request_waits", TIMINGS),
    ),
    RoundOutcome: (
        ("report", "report", record(LossEventReport)),
        ("name", "name", record(AduName)),
        ("requests", "requests", INT),
        ("repairs", "repairs", INT),
        ("duplicate_requests", "duplicate_requests", INT),
        ("duplicate_repairs", "duplicate_repairs", INT),
        ("last_member_ratio", "last_member_ratio", optional(FLOAT)),
        ("closest_request_ratio", "closest_request_ratio", optional(FLOAT)),
        ("recovered", "recovered", BOOL),
    ),
    LocalRecoveryOutcome: (
        (None, "__kind__", tag(SCOPED_OUTCOME, "artifact kind")),
        ("requester", "requester", INT),
        ("replier", "replier", INT),
        ("request_ttl", "request_ttl", INT),
        ("loss_members", "loss_members", INT_SET),
        ("repair_reached", "repair_reached", INT_SET),
        ("session_size", "session_size", INT),
    ),
    RunResult: (
        (None, "schema", SCHEMA_TAG),
        ("spec", "spec", record(ExperimentSpec)),
        ("outcomes", "outcomes", list_of(record(RoundOutcome))),
        ("metrics", "metrics", optional(METRICS)),
        ("artifacts", "artifacts", ARTIFACTS),
    ),
}


def _check_rows(cls: type, rows: Tuple[Row, ...]) -> None:
    """Raise unless ``rows`` name each field of ``cls`` exactly once; run
    over the table at import, so a dataclass field without a row (or a
    row whose field is gone) stops this module from loading."""
    # AduName is tuple-backed (``_fields``); the rest are dataclasses.
    fields = sorted(getattr(cls, "_fields", None)
                    or [f.name for f in dataclasses.fields(cls)])
    named = sorted(name for name, _, _ in rows if name is not None)
    if named != fields:
        raise TypeError(f"SCHEMA[{cls.__name__}] rows name {named}, "
                        f"but the class's fields are {fields}")


for _cls, _rows in SCHEMA.items():
    _check_rows(_cls, _rows)


def spec_to_wire(spec: ExperimentSpec) -> Dict[str, Any]:
    """Encode one :class:`ExperimentSpec` as a spec/v3 payload."""
    return _encode(ExperimentSpec, spec)


def spec_from_wire(payload: Any) -> ExperimentSpec:
    """Decode a spec/v3 payload back into an :class:`ExperimentSpec`."""
    return _decode(ExperimentSpec, payload)


def spec_to_json(spec: ExperimentSpec) -> str:
    return dumps_canonical(spec_to_wire(spec))


def spec_from_json(text: str) -> ExperimentSpec:
    return spec_from_wire(_build(json.loads, text))


def result_to_wire(result: RunResult) -> Dict[str, Any]:
    """Encode one :class:`RunResult` as a spec/v3 payload."""
    return _encode(RunResult, result)


def result_from_wire(payload: Any) -> RunResult:
    """Decode a spec/v3 payload back into a :class:`RunResult`."""
    return _decode(RunResult, payload)


def result_to_json(result: RunResult) -> str:
    return dumps_canonical(result_to_wire(result))


def result_from_json(text: str) -> RunResult:
    return result_from_wire(_build(json.loads, text))
