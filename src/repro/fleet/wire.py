"""The frozen ``spec/v3`` wire schema for experiment specs and results.

This module is the single serialization boundary for the
``ExperimentSpec → RunResult`` API: every fleet HTTP payload and every
runner cache key goes through these codecs, never through ad-hoc
pickling of in-process conventions.

Design rules, enforced here and tested by the round-trip suite:

* **Versioned.** Every top-level payload carries ``"schema": "spec/v3"``
  and decoding any other version raises :class:`WireFormatError`. The
  schema is *frozen*: changing the meaning of an existing field requires
  a ``spec/v4``, not an edit.
* **Explicit.** Each type has a hand-written encoder/decoder with a
  fixed field list. Nothing is derived from ``repr`` or pickle, so the
  wire format cannot drift when an in-memory class grows a cache slot.
* **Closed.** Decoders reject unknown fields instead of ignoring them:
  a payload from a newer, incompatible peer fails loudly at the
  boundary rather than silently dropping semantics.
* **Exact.** Floats ride as JSON numbers (Python's shortest-round-trip
  repr), so a decoded spec fingerprints and simulates bit-identically
  to the original — the property the fleet's determinism guarantee
  rests on.

The codecs cover every spec used by the figure, scaling and fuzz
suites: recovery and scoped kinds, direct/hop/herd engines, adaptive
configs, and the full result path (round outcomes with their per-member
loss-event reports, metrics bundles, scoped-recovery artifacts).
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict, List, Mapping, Optional, Tuple

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
# Decoding helpers: closed field sets, light type validation.
# ----------------------------------------------------------------------


class _Reader:
    """Pop-only view of a payload dict that rejects leftovers."""

    def __init__(self, payload: Any, context: str) -> None:
        if not isinstance(payload, dict):
            raise WireFormatError(
                f"{context}: expected a JSON object, got "
                f"{type(payload).__name__}")
        self._data = dict(payload)
        self._context = context

    def take(self, name: str) -> Any:
        try:
            return self._data.pop(name)
        except KeyError:
            raise WireFormatError(
                f"{self._context}: missing required field {name!r}"
            ) from None

    def take_opt(self, name: str, default: Any = None) -> Any:
        return self._data.pop(name, default)

    def close(self) -> None:
        if self._data:
            unknown = ", ".join(sorted(self._data))
            raise WireFormatError(
                f"{self._context}: unknown field(s) {unknown}")


def _expect_schema(reader: _Reader, context: str) -> None:
    schema = reader.take("schema")
    if schema != WIRE_SCHEMA:
        raise WireFormatError(
            f"{context}: unsupported wire schema {schema!r} "
            f"(this build speaks {WIRE_SCHEMA!r})")


def _int(value: Any, context: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise WireFormatError(f"{context}: expected an integer, "
                              f"got {value!r}")
    return value


def _float(value: Any, context: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise WireFormatError(f"{context}: expected a number, got {value!r}")
    return float(value)


def _opt_float(value: Any, context: str) -> Optional[float]:
    return None if value is None else _float(value, context)


def _str(value: Any, context: str) -> str:
    if not isinstance(value, str):
        raise WireFormatError(f"{context}: expected a string, got {value!r}")
    return value


def _bool(value: Any, context: str) -> bool:
    if not isinstance(value, bool):
        raise WireFormatError(f"{context}: expected a boolean, "
                              f"got {value!r}")
    return value


def _int_list(value: Any, context: str) -> List[int]:
    if not isinstance(value, list):
        raise WireFormatError(f"{context}: expected a list, got {value!r}")
    return [_int(item, context) for item in value]


def _edge(value: Any, context: str) -> Tuple[int, int]:
    pair = _int_list(value, context)
    if len(pair) != 2:
        raise WireFormatError(f"{context}: expected an [a, b] pair, "
                              f"got {value!r}")
    return (pair[0], pair[1])


# ----------------------------------------------------------------------
# Topology / scenario / config.
# ----------------------------------------------------------------------


def _topology_to_wire(spec: TopologySpec) -> Dict[str, Any]:
    return {
        "name": spec.name,
        "num_nodes": spec.num_nodes,
        "edges": [[a, b] for a, b in spec.edges],
        "metadata": dict(spec.metadata),
    }


def _topology_from_wire(payload: Any) -> TopologySpec:
    reader = _Reader(payload, "topology")
    metadata = reader.take_opt("metadata", {})
    if not isinstance(metadata, dict):
        raise WireFormatError("topology.metadata: expected an object")
    spec = TopologySpec(
        name=_str(reader.take("name"), "topology.name"),
        num_nodes=_int(reader.take("num_nodes"), "topology.num_nodes"),
        edges=[_edge(edge, "topology.edges")
               for edge in reader.take("edges")],
        metadata=dict(metadata),
    )
    reader.close()
    return spec


def _scenario_to_wire(scenario: Scenario) -> Dict[str, Any]:
    return {
        "topology": _topology_to_wire(scenario.spec),
        "members": list(scenario.members),
        "source": scenario.source,
        "drop_edge": list(scenario.drop_edge),
    }


def _scenario_from_wire(payload: Any) -> Scenario:
    reader = _Reader(payload, "scenario")
    scenario = Scenario(
        spec=_topology_from_wire(reader.take("topology")),
        members=_int_list(reader.take("members"), "scenario.members"),
        source=_int(reader.take("source"), "scenario.source"),
        drop_edge=_edge(reader.take("drop_edge"), "scenario.drop_edge"),
    )
    reader.close()
    return scenario


#: SrmConfig / AdaptiveBounds ride field-by-field. The field lists are
#: pinned at import from the dataclass definitions; every value is a
#: scalar (bool/int/float/str/None), which the round-trip tests enforce
#: so a future non-scalar knob must extend the codec deliberately.
_BOUNDS_FIELDS = tuple(f.name for f in dataclasses.fields(AdaptiveBounds))
_CONFIG_SCALARS = tuple(f.name for f in dataclasses.fields(SrmConfig)
                        if f.name != "adaptive_bounds")


def _scalar(value: Any, context: str) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise WireFormatError(
        f"{context}: config values must be scalars, got "
        f"{type(value).__name__}")


def _bounds_to_wire(bounds: AdaptiveBounds) -> Dict[str, Any]:
    return {name: _scalar(getattr(bounds, name), f"adaptive_bounds.{name}")
            for name in _BOUNDS_FIELDS}


def _bounds_from_wire(payload: Any) -> AdaptiveBounds:
    reader = _Reader(payload, "adaptive_bounds")
    values = {name: _scalar(reader.take(name), f"adaptive_bounds.{name}")
              for name in _BOUNDS_FIELDS}
    reader.close()
    return AdaptiveBounds(**values)


def _config_to_wire(config: SrmConfig) -> Dict[str, Any]:
    payload = {name: _scalar(getattr(config, name), f"config.{name}")
               for name in _CONFIG_SCALARS}
    payload["adaptive_bounds"] = _bounds_to_wire(config.adaptive_bounds)
    return payload


def _config_from_wire(payload: Any) -> SrmConfig:
    reader = _Reader(payload, "config")
    values = {name: _scalar(reader.take(name), f"config.{name}")
              for name in _CONFIG_SCALARS}
    values["adaptive_bounds"] = _bounds_from_wire(
        reader.take("adaptive_bounds"))
    reader.close()
    return SrmConfig(**values)


# ----------------------------------------------------------------------
# ExperimentSpec.
# ----------------------------------------------------------------------


def spec_to_wire(spec: ExperimentSpec) -> Dict[str, Any]:
    """Encode one :class:`ExperimentSpec` as a spec/v3 payload."""
    return {
        "schema": WIRE_SCHEMA,
        "scenario": _scenario_to_wire(spec.scenario),
        "config": None if spec.config is None
        else _config_to_wire(spec.config),
        "rounds": spec.rounds,
        "seed": spec.seed,
        "engine": spec.engine,
        "experiment": spec.experiment,
        "kind": spec.kind,
        "scoped_mode": spec.scoped_mode,
        "trigger_gap": spec.trigger_gap,
    }


def spec_from_wire(payload: Any) -> ExperimentSpec:
    """Decode a spec/v3 payload back into an :class:`ExperimentSpec`."""
    reader = _Reader(payload, "spec")
    _expect_schema(reader, "spec")
    config = reader.take("config")
    scoped_mode = reader.take("scoped_mode")
    spec = ExperimentSpec(
        scenario=_scenario_from_wire(reader.take("scenario")),
        config=None if config is None else _config_from_wire(config),
        rounds=_int(reader.take("rounds"), "spec.rounds"),
        seed=_int(reader.take("seed"), "spec.seed"),
        engine=_str(reader.take("engine"), "spec.engine"),
        experiment=_str(reader.take("experiment"), "spec.experiment"),
        kind=_str(reader.take("kind"), "spec.kind"),
        scoped_mode=None if scoped_mode is None
        else _str(scoped_mode, "spec.scoped_mode"),
        trigger_gap=_float(reader.take("trigger_gap"), "spec.trigger_gap"),
    )
    reader.close()
    return spec


def spec_to_json(spec: ExperimentSpec) -> str:
    return dumps_canonical(spec_to_wire(spec))


def spec_from_json(text: str) -> ExperimentSpec:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise WireFormatError(f"spec: not valid JSON ({exc})") from exc
    return spec_from_wire(payload)


# ----------------------------------------------------------------------
# Results: member timings, loss-event reports, outcomes, artifacts.
# ----------------------------------------------------------------------


def _name_to_wire(name: AduName) -> Dict[str, Any]:
    return {"source": name.source, "page": [name.page.creator,
                                            name.page.number],
            "seq": name.seq}


def _name_from_wire(payload: Any) -> AduName:
    reader = _Reader(payload, "adu_name")
    creator, number = _edge(reader.take("page"), "adu_name.page")
    name = AduName(source=_int(reader.take("source"), "adu_name.source"),
                   page=PageId(creator=creator, number=number),
                   seq=_int(reader.take("seq"), "adu_name.seq"))
    reader.close()
    return name


def _timing_to_wire(timing: MemberTiming) -> Dict[str, Any]:
    return {"member": timing.member, "delay": timing.delay,
            "rtt": timing.rtt, "ratio": timing.ratio, "at": timing.at,
            "via": timing.via}


def _timing_from_wire(payload: Any) -> MemberTiming:
    reader = _Reader(payload, "member_timing")
    timing = MemberTiming(
        member=_int(reader.take("member"), "member_timing.member"),
        delay=_float(reader.take("delay"), "member_timing.delay"),
        rtt=_float(reader.take("rtt"), "member_timing.rtt"),
        ratio=_float(reader.take("ratio"), "member_timing.ratio"),
        at=_float(reader.take("at"), "member_timing.at"),
        via=_str(reader.take_opt("via", ""), "member_timing.via"))
    reader.close()
    return timing


def _timing_map_to_wire(timings: Dict[int, MemberTiming]
                        ) -> Dict[str, Any]:
    return {str(member): _timing_to_wire(timing)
            for member, timing in sorted(timings.items())}


def _timing_map_from_wire(payload: Any, context: str
                          ) -> Dict[int, MemberTiming]:
    if not isinstance(payload, dict):
        raise WireFormatError(f"{context}: expected an object")
    return {int(member): _timing_from_wire(timing)
            for member, timing in payload.items()}


def _report_to_wire(report: LossEventReport) -> Dict[str, Any]:
    return {
        "name": _name_to_wire(report.name),
        "requests": report.requests,
        "repairs": report.repairs,
        "second_step_repairs": report.second_step_repairs,
        "losses_detected": report.losses_detected,
        "recoveries": _timing_map_to_wire(report.recoveries),
        "request_waits": _timing_map_to_wire(report.request_waits),
    }


def _report_from_wire(payload: Any) -> LossEventReport:
    reader = _Reader(payload, "loss_event")
    report = LossEventReport(
        name=_name_from_wire(reader.take("name")),
        requests=_int(reader.take("requests"), "loss_event.requests"),
        repairs=_int(reader.take("repairs"), "loss_event.repairs"),
        second_step_repairs=_int(reader.take("second_step_repairs"),
                                 "loss_event.second_step_repairs"),
        losses_detected=_int(reader.take("losses_detected"),
                             "loss_event.losses_detected"),
        recoveries=_timing_map_from_wire(reader.take("recoveries"),
                                         "loss_event.recoveries"),
        request_waits=_timing_map_from_wire(reader.take("request_waits"),
                                            "loss_event.request_waits"),
    )
    reader.close()
    return report


def _outcome_to_wire(outcome: RoundOutcome) -> Dict[str, Any]:
    return {
        "report": _report_to_wire(outcome.report),
        "name": _name_to_wire(outcome.name),
        "requests": outcome.requests,
        "repairs": outcome.repairs,
        "duplicate_requests": outcome.duplicate_requests,
        "duplicate_repairs": outcome.duplicate_repairs,
        "last_member_ratio": outcome.last_member_ratio,
        "closest_request_ratio": outcome.closest_request_ratio,
        "recovered": outcome.recovered,
    }


def _outcome_from_wire(payload: Any) -> RoundOutcome:
    reader = _Reader(payload, "outcome")
    outcome = RoundOutcome(
        report=_report_from_wire(reader.take("report")),
        name=_name_from_wire(reader.take("name")),
        requests=_int(reader.take("requests"), "outcome.requests"),
        repairs=_int(reader.take("repairs"), "outcome.repairs"),
        duplicate_requests=_int(reader.take("duplicate_requests"),
                                "outcome.duplicate_requests"),
        duplicate_repairs=_int(reader.take("duplicate_repairs"),
                               "outcome.duplicate_repairs"),
        last_member_ratio=_opt_float(reader.take("last_member_ratio"),
                                     "outcome.last_member_ratio"),
        closest_request_ratio=_opt_float(
            reader.take("closest_request_ratio"),
            "outcome.closest_request_ratio"),
        recovered=_bool(reader.take("recovered"), "outcome.recovered"),
    )
    reader.close()
    return outcome


def _artifact_to_wire(value: Any, context: str) -> Any:
    if isinstance(value, LocalRecoveryOutcome):
        return {
            "__kind__": "scoped-outcome",
            "requester": value.requester,
            "replier": value.replier,
            "request_ttl": value.request_ttl,
            "loss_members": sorted(value.loss_members),
            "repair_reached": sorted(value.repair_reached),
            "session_size": value.session_size,
        }
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_artifact_to_wire(item, context) for item in value]
    if isinstance(value, dict):
        return {str(key): _artifact_to_wire(item, f"{context}.{key}")
                for key, item in value.items()}
    raise WireFormatError(
        f"{context}: artifact type {type(value).__name__} has no spec/v3 "
        "encoding; extend repro.fleet.wire deliberately")


def _artifact_from_wire(value: Any, context: str) -> Any:
    if isinstance(value, dict):
        if value.get("__kind__") == "scoped-outcome":
            reader = _Reader(value, context)
            reader.take("__kind__")
            outcome = LocalRecoveryOutcome(
                requester=_int(reader.take("requester"),
                               f"{context}.requester"),
                replier=_int(reader.take("replier"), f"{context}.replier"),
                request_ttl=_int(reader.take("request_ttl"),
                                 f"{context}.request_ttl"),
                loss_members=frozenset(_int_list(
                    reader.take("loss_members"),
                    f"{context}.loss_members")),
                repair_reached=frozenset(_int_list(
                    reader.take("repair_reached"),
                    f"{context}.repair_reached")),
                session_size=_int(reader.take("session_size"),
                                  f"{context}.session_size"))
            reader.close()
            return outcome
        return {key: _artifact_from_wire(item, f"{context}.{key}")
                for key, item in value.items()}
    if isinstance(value, list):
        return [_artifact_from_wire(item, context) for item in value]
    return value


# ----------------------------------------------------------------------
# RunResult.
# ----------------------------------------------------------------------


def result_to_wire(result: RunResult) -> Dict[str, Any]:
    """Encode one :class:`RunResult` as a spec/v3 payload."""
    return {
        "schema": WIRE_SCHEMA,
        "spec": spec_to_wire(result.spec),
        "outcomes": [_outcome_to_wire(outcome)
                     for outcome in result.outcomes],
        "metrics": None if result.metrics is None
        else result.metrics.to_dict(),
        "artifacts": {str(key): _artifact_to_wire(value,
                                                  f"artifacts.{key}")
                      for key, value in result.artifacts.items()},
    }


def result_from_wire(payload: Any) -> RunResult:
    """Decode a spec/v3 payload back into a :class:`RunResult`."""
    reader = _Reader(payload, "result")
    _expect_schema(reader, "result")
    metrics = reader.take("metrics")
    outcomes = reader.take("outcomes")
    if not isinstance(outcomes, list):
        raise WireFormatError("result.outcomes: expected a list")
    result = RunResult(
        spec=spec_from_wire(reader.take("spec")),
        outcomes=[_outcome_from_wire(outcome) for outcome in outcomes],
        metrics=None if metrics is None else RunMetrics.from_dict(metrics),
        artifacts=_artifact_from_wire(reader.take("artifacts"),
                                      "artifacts"),
    )
    reader.close()
    return result


def result_to_json(result: RunResult) -> str:
    return dumps_canonical(result_to_wire(result))


def result_from_json(text: str) -> RunResult:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise WireFormatError(f"result: not valid JSON ({exc})") from exc
    return result_from_wire(payload)
