"""RunMetrics: one run's observability bundle, persisted as JSON.

A :class:`RunMetrics` holds everything the paper's evaluation (and the
repo's CI gate) cares about for one run — or, merged, for a whole sweep:

* per-loss-event request/repair counts and duplicate counts,
* the raw recovery-delay, request-delay and last-member-delay RTT
  ratios (kept raw so merges stay exact and percentiles are lossless),
* protocol timer activity (sets, fires, backoffs, suppressions),
* control-traffic bandwidth per member, and
* the :mod:`repro.sim.perf` kernel counters for the run.

``headline()`` distills the bundle into the flat scalar dict that
``repro report`` prints and ``repro compare`` gates on. Saved files and
the ``metrics`` of every spec/v3 ``RunResult`` share one closed JSON
form, the record :data:`BUNDLE` (docs/metrics.md, "Persistence and
caching"); ``kernel`` stays an open object.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, cast

from repro.codec import FLOAT, INT, OBJECT, STR, Codec, WireFormatError, build, list_of, record, tag
from repro.metrics.events import percentile_sorted

#: Format tag written into every persisted bundle.
BUNDLE_SCHEMA = "run-metrics/v1"

def _summary(values: List[float]) -> Dict[str, Optional[float]]:
    if not values:
        return {"count": 0, "mean": None, "p50": None, "p90": None,
                "max": None}
    ordered = sorted(values)
    return {"count": len(ordered),
            "mean": sum(ordered) / len(ordered),
            "p50": percentile_sorted(ordered, 0.5),
            "p90": percentile_sorted(ordered, 0.9),
            "max": ordered[-1]}


@dataclass
class RunMetrics:
    """Aggregated metrics for one run (or a merge of many runs)."""

    experiment: str = ""
    rounds: int = 0
    loss_events: int = 0

    # Request/repair totals across all loss events.
    requests: int = 0
    repairs: int = 0
    second_step_repairs: int = 0
    duplicate_requests: int = 0
    duplicate_repairs: int = 0
    losses_detected: int = 0
    recoveries: int = 0

    # Raw RTT-ratio observations (exact merge, lossless percentiles).
    recovery_ratios: List[float] = field(default_factory=list)
    request_ratios: List[float] = field(default_factory=list)
    last_member_ratios: List[float] = field(default_factory=list)

    #: Rows per trace kind with the ``timer`` role (repro.sim.trace).
    timers: Dict[str, int] = field(default_factory=dict)

    #: Control packets multicast per member (node id, stringified) and
    #: the total control bytes they account for.
    control_packets: Dict[str, int] = field(default_factory=dict)
    control_bytes: int = 0

    #: :mod:`repro.sim.perf` counter deltas for the run.
    kernel: Dict[str, Any] = field(default_factory=dict)

    #: One row per loss event (name, requests, repairs, duplicates,
    #: losses_detected, recoveries, last_member_ratio).
    events: List[Dict[str, Any]] = field(default_factory=list)

    #: Free-form run facts (seed, engine, config summary, ...).
    meta: Dict[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------------

    def headline(self) -> Dict[str, Optional[float]]:
        """The flat scalar card ``report`` prints and ``compare`` gates on.

        Every key is either a count, a per-loss-event mean, a percentile
        of an RTT-ratio distribution, or a per-member bandwidth figure;
        distribution keys are None when no sample exists.
        """
        events = self.loss_events
        per_event = (lambda total: total / events) if events else \
            (lambda total: 0.0)
        recovery = _summary(self.recovery_ratios)
        request = _summary(self.request_ratios)
        last = _summary(self.last_member_ratios)
        members = len(self.control_packets)
        return {
            "loss_events": float(self.loss_events),
            "requests_mean": per_event(self.requests),
            "repairs_mean": per_event(self.repairs),
            "duplicate_requests_mean": per_event(self.duplicate_requests),
            "duplicate_repairs_mean": per_event(self.duplicate_repairs),
            "recovery_ratio_p50": recovery["p50"],
            "recovery_ratio_p90": recovery["p90"],
            "recovery_ratio_max": recovery["max"],
            "request_ratio_p50": request["p50"],
            "request_ratio_p90": request["p90"],
            "request_ratio_max": request["max"],
            "last_member_ratio_p50": last["p50"],
            "last_member_ratio_p90": last["p90"],
            "last_member_ratio_max": last["max"],
            "control_bytes_per_member":
                (self.control_bytes / members) if members else 0.0,
        }

    def summaries(self) -> Dict[str, Dict[str, Optional[float]]]:
        """p50/p90/max cards for each RTT-ratio distribution."""
        return {
            "recovery_ratio": _summary(self.recovery_ratios),
            "request_ratio": _summary(self.request_ratios),
            "last_member_ratio": _summary(self.last_member_ratios),
        }

    # ------------------------------------------------------------------

    def merge(self, other: "RunMetrics") -> None:
        """Fold another bundle into this one, in place."""
        self.rounds += other.rounds
        self.loss_events += other.loss_events
        self.requests += other.requests
        self.repairs += other.repairs
        self.second_step_repairs += other.second_step_repairs
        self.duplicate_requests += other.duplicate_requests
        self.duplicate_repairs += other.duplicate_repairs
        self.losses_detected += other.losses_detected
        self.recoveries += other.recoveries
        self.recovery_ratios.extend(other.recovery_ratios)
        self.request_ratios.extend(other.request_ratios)
        self.last_member_ratios.extend(other.last_member_ratios)
        for kind, count in other.timers.items():
            self.timers[kind] = self.timers.get(kind, 0) + count
        for member, count in other.control_packets.items():
            self.control_packets[member] = \
                self.control_packets.get(member, 0) + count
        self.control_bytes += other.control_bytes
        self._merge_kernel(other.kernel)
        self.events.extend(other.events)

    def _merge_kernel(self, other: Dict[str, Any]) -> None:
        """Sum every integer counter; ``PerfCounters.as_dict()`` is the
        one place that says which counters exist."""
        kernel = self.kernel
        for key, value in other.items():
            if isinstance(value, int):
                kernel[key] = kernel.get(key, 0) + value
        by_kind = kernel.setdefault("packets_by_kind", {})
        for kind, count in other.get("packets_by_kind", {}).items():
            by_kind[kind] = by_kind.get(kind, 0) + count

    @classmethod
    def merged(cls, bundles: Iterable[Optional["RunMetrics"]],
               experiment: str = "") -> "RunMetrics":
        """A fresh bundle folding every non-None input together."""
        total = cls(experiment=experiment)
        for bundle in bundles:
            if bundle is None:
                continue
            if not total.experiment:
                total.experiment = bundle.experiment
            total.merge(bundle)
        return total

    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """The bundle's JSON form (:data:`BUNDLE`)."""
        return cast(Dict[str, Any], BUNDLE.encode(self))


#: ``{str: int}``: rows per trace kind, packets per member.
_COUNTS = Codec(dict, lambda wire: {key: INT.decode(count) for key, count
                                    in OBJECT.decode(wire).items()})
_RATIOS = list_of(FLOAT)
#: ``headline`` and ``summaries``: computed from the bundle on encode; on
#: decode only checked to be objects, since the decoded bundle recomputes
#: them.
_DERIVED = OBJECT.decode

#: The bundle's one JSON form, for files and for the spec/v3 wire alike.
BUNDLE = record(
    RunMetrics,
    (
        (None, "schema", tag(BUNDLE_SCHEMA, "metrics bundle schema")),
        ("experiment", "experiment", STR),
        ("rounds", "rounds", INT),
        ("loss_events", "loss_events", INT),
        ("requests", "requests", INT),
        ("repairs", "repairs", INT),
        ("second_step_repairs", "second_step_repairs", INT),
        ("duplicate_requests", "duplicate_requests", INT),
        ("duplicate_repairs", "duplicate_repairs", INT),
        ("losses_detected", "losses_detected", INT),
        ("recoveries", "recoveries", INT),
        ("recovery_ratios", "recovery_ratios", _RATIOS),
        ("request_ratios", "request_ratios", _RATIOS),
        ("last_member_ratios", "last_member_ratios", _RATIOS),
        ("timers", "timers", _COUNTS),
        ("control_packets", "control_packets", _COUNTS),
        ("control_bytes", "control_bytes", INT),
        ("kernel", "kernel", OBJECT),
        ("events", "events", list_of(OBJECT)),
        ("meta", "meta", OBJECT),
        (None, "headline", Codec(RunMetrics.headline, _DERIVED)),
        (None, "summaries", Codec(RunMetrics.summaries, _DERIVED)),
    ))


def save_bundle(bundle: RunMetrics, path: "str | os.PathLike") -> Path:
    """Write a bundle as pretty JSON; parent directories are created."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(bundle.to_dict(), indent=2,
                                 sort_keys=True) + "\n", encoding="utf-8")
    return target


def load_bundle(path: "str | os.PathLike") -> RunMetrics:
    """The bundle saved at ``path``; :class:`~repro.codec.WireFormatError`
    naming the file and the bad key if it is not one."""
    try:
        return cast(RunMetrics, BUNDLE.decode(
            build(json.loads, Path(path).read_bytes())))
    except WireFormatError as exc:
        raise WireFormatError(f"{path}: {exc}") from None
