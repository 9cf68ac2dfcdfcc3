"""Metrics registry: counters, gauges, and quantile sketches.

Prometheus-flavoured naming and label semantics, scaled down to what a
deterministic simulator needs: every metric supports a fixed tuple of
label names, and each observed label combination materializes a child
series. Distributions have one type, :class:`Sketch` — the
:class:`~repro.obs.sketch.QuantileSketch` every result, sweep and
dashboard already uses (relative accuracy at every scale, from
nanosecond latencies to packet counts, and exactly mergeable).
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from repro.obs.sketch import QuantileSketch

LabelValues = Tuple[Any, ...]


class Metric:
    """Base: a named family of labelled series."""

    kind = "metric"

    def __init__(self, name: str, help: str = "", labelnames: Tuple[str, ...] = ()):
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._series: Dict[LabelValues, Any] = {}

    def _key(self, labels: Dict[str, Any]) -> LabelValues:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"{self.name}: expected labels {self.labelnames}, got {tuple(labels)}"
            )
        return tuple(labels[n] for n in self.labelnames)

    def snapshot(self) -> dict:
        """JSON-ready view: one entry per label combination."""
        return {
            "name": self.name,
            "kind": self.kind,
            "help": self.help,
            "labelnames": list(self.labelnames),
            "series": [
                {"labels": list(key), "value": self._series_value(value)}
                for key, value in sorted(self._series.items(), key=lambda kv: str(kv[0]))
            ],
        }

    def _series_value(self, value: Any) -> Any:
        return value


class Counter(Metric):
    """Monotonically increasing count."""

    kind = "counter"

    def inc(self, amount: float = 1, **labels: Any) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = self._key(labels)
        self._series[key] = self._series.get(key, 0) + amount


class Gauge(Metric):
    """A value that can go up and down (last write wins)."""

    kind = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        self._series[self._key(labels)] = value


class Sketch(Metric):
    """A labelled family of :class:`~repro.obs.sketch.QuantileSketch`\\ s.

    A sketch series guarantees *relative* accuracy
    (:data:`~repro.obs.sketch.DEFAULT_ALPHA`) at every scale and merges
    exactly across workers — the snapshot reports p50/p90/p99/p999
    alongside the full serialized state, so per-worker snapshots can be
    recombined without losing resolution.
    """

    kind = "sketch"

    def observe(self, value: float, **labels: Any) -> None:
        key = self._key(labels)
        state = self._series.get(key)
        if state is None:
            state = self._series[key] = QuantileSketch()
        state.add(value)

    def _series_value(self, state: QuantileSketch) -> Any:
        return {
            "count": state.count,
            "sum": state.stats.total,
            "min": state.stats.minimum,
            "max": state.stats.maximum,
            "percentiles": state.percentiles(),
            "state": state.to_dict(),
        }


class MetricsRegistry:
    """The metric families of one telemetry instance."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    def _register(self, metric: Metric):
        self._metrics[metric.name] = metric
        return metric

    def counter(self, name: str, help: str = "", labelnames: Tuple[str, ...] = ()) -> Counter:
        """Create a counter family."""
        return self._register(Counter(name, help=help, labelnames=labelnames))

    def gauge(self, name: str, help: str = "", labelnames: Tuple[str, ...] = ()) -> Gauge:
        """Create a gauge family."""
        return self._register(Gauge(name, help=help, labelnames=labelnames))

    def sketch(self, name: str, help: str = "", labelnames: Tuple[str, ...] = ()) -> Sketch:
        """Create a quantile-sketch family (snapshot reports
        p50/p90/p99/p999)."""
        return self._register(Sketch(name, help=help, labelnames=labelnames))

    def snapshot(self) -> dict:
        """JSON-ready dump of every family, name-sorted (deterministic)."""
        return {name: self._metrics[name].snapshot() for name in sorted(self._metrics)}
