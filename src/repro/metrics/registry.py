"""A lightweight metric registry: counters, gauges, histograms.

The observability layer's primitives. Deliberately tiny — a metric is a
named number (or list of observations) with no labels, no time series,
no export protocol. :class:`repro.metrics.collector.MetricsCollector`
drives a registry from the trace stream; a finished run is snapshotted
into a :class:`repro.metrics.bundle.RunMetrics`.

All three primitives share the registry's get-or-create access pattern::

    registry = MetricsRegistry()
    registry.counter("requests").inc()
    registry.gauge("members").set(1042)
    registry.histogram("recovery_ratio").observe(1.25)
    registry.as_dict()   # {"counters": ..., "gauges": ..., "histograms": ...}
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.metrics.events import percentile_sorted


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease "
                             f"(inc by {amount})")
        self.value += amount


class Gauge:
    """A point-in-time number (last write wins; ``high()`` keeps maxima)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def high(self, value: float) -> None:
        """Record a high-water mark: keep the larger of old and new."""
        if value > self.value:
            self.value = value


class Histogram:
    """Raw observations with percentile summaries.

    Observations are kept raw (not bucketed): run sizes here are a few
    thousand samples at most, exact percentiles merge losslessly across
    bundles, and the JSON stays small enough to commit as a baseline.
    """

    __slots__ = ("name", "values")

    def __init__(self, name: str) -> None:
        self.name = name
        self.values: List[float] = []

    def observe(self, value: float) -> None:
        self.values.append(value)

    @property
    def count(self) -> int:
        return len(self.values)

    def mean(self) -> Optional[float]:
        if not self.values:
            return None
        return sum(self.values) / len(self.values)

    def quantile(self, q: float) -> Optional[float]:
        if not self.values:
            return None
        return percentile_sorted(sorted(self.values), q)

    def summary(self) -> Dict[str, Optional[float]]:
        """The standard p50/p90/max card used throughout the reports."""
        if not self.values:
            return {"count": 0, "mean": None, "p50": None, "p90": None,
                    "max": None}
        ordered = sorted(self.values)
        return {
            "count": len(ordered),
            "mean": sum(ordered) / len(ordered),
            "p50": percentile_sorted(ordered, 0.5),
            "p90": percentile_sorted(ordered, 0.9),
            "max": ordered[-1],
        }


class MetricsRegistry:
    """Get-or-create store for the three primitives, by name."""

    def __init__(self) -> None:
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        counter = self.counters.get(name)
        if counter is None:
            counter = self.counters[name] = Counter(name)
        return counter

    def gauge(self, name: str) -> Gauge:
        gauge = self.gauges.get(name)
        if gauge is None:
            gauge = self.gauges[name] = Gauge(name)
        return gauge

    def histogram(self, name: str) -> Histogram:
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram(name)
        return histogram

    def reset(self) -> None:
        self.counters.clear()
        self.gauges.clear()
        self.histograms.clear()

    def as_dict(self) -> Dict[str, dict]:
        """Flat, JSON-able snapshot of everything registered."""
        return {
            "counters": {name: c.value
                         for name, c in sorted(self.counters.items())},
            "gauges": {name: g.value
                       for name, g in sorted(self.gauges.items())},
            "histograms": {name: h.summary()
                           for name, h in sorted(self.histograms.items())},
        }
