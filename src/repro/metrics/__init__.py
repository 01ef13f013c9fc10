"""repro.metrics — the observability layer.

Everything a run measures flows through here: the offline per-loss-event
analysis (:mod:`repro.metrics.events`), the streaming
:class:`MetricsCollector` driven by the trace stream, the persisted
:class:`RunMetrics` JSON bundle, and the report/compare renderers behind
``repro report`` / ``repro compare``.
"""

from repro.metrics.bundle import (
    BUNDLE_SCHEMA,
    RunMetrics,
    load_bundle,
    save_bundle,
)
from repro.metrics.collector import (
    MetricsCollector,
    MetricsConsistencyError,
    check_against_trace,
    collect_from_trace,
)
from repro.metrics.compare import (
    DEFAULT_THRESHOLD,
    GATED_KEYS,
    ComparisonReport,
    compare_bundles,
)
from repro.metrics.events import (
    LossEventReport,
    MemberTiming,
    analyze_loss_event,
    mean,
    percentile,
    quantiles,
)
from repro.metrics.report import format_metrics_report

__all__ = [
    "BUNDLE_SCHEMA",
    "ComparisonReport",
    "DEFAULT_THRESHOLD",
    "GATED_KEYS",
    "LossEventReport",
    "MemberTiming",
    "MetricsCollector",
    "MetricsConsistencyError",
    "RunMetrics",
    "analyze_loss_event",
    "check_against_trace",
    "collect_from_trace",
    "compare_bundles",
    "format_metrics_report",
    "load_bundle",
    "mean",
    "percentile",
    "quantiles",
    "save_bundle",
]
