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

from typing import Any, Dict, List, Optional, Tuple

from repro.obs.sketch import DEFAULT_ALPHA, QuantileSketch

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

    def series(self) -> Dict[LabelValues, Any]:
        """label-values -> current value (scalar or sketch)."""
        return dict(self._series)

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

    def value(self, **labels: Any) -> float:
        return self._series.get(self._key(labels), 0)

    def total(self) -> float:
        """Sum across every label combination."""
        return sum(self._series.values())


class Gauge(Metric):
    """A value that can go up and down (last write wins)."""

    kind = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        self._series[self._key(labels)] = value

    def add(self, delta: float, **labels: Any) -> None:
        key = self._key(labels)
        self._series[key] = self._series.get(key, 0) + delta

    def value(self, **labels: Any) -> Optional[float]:
        return self._series.get(self._key(labels))


class Sketch(Metric):
    """A labelled family of :class:`~repro.obs.sketch.QuantileSketch`\\ s.

    A sketch series guarantees *relative* accuracy (``alpha``) at every
    scale and merges exactly across workers — the snapshot reports
    p50/p90/p99/p999 alongside the full serialized state, so per-worker
    snapshots can be recombined without losing resolution.
    """

    kind = "sketch"

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: Tuple[str, ...] = (),
        alpha: float = DEFAULT_ALPHA,
    ):
        super().__init__(name, help=help, labelnames=labelnames)
        self.alpha = alpha

    def observe(self, value: float, **labels: Any) -> None:
        key = self._key(labels)
        state = self._series.get(key)
        if state is None:
            state = self._series[key] = QuantileSketch(alpha=self.alpha)
        state.add(value)

    def sketch(self, **labels: Any) -> Optional[QuantileSketch]:
        """The underlying sketch of one label combination (None if the
        series never observed a value)."""
        return self._series.get(self._key(labels))

    def count(self, **labels: Any) -> int:
        state = self._series.get(self._key(labels))
        return state.count if state is not None else 0

    def quantile(self, q: float, **labels: Any) -> Optional[float]:
        state = self._series.get(self._key(labels))
        return state.quantile(q) if state is not None else None

    def merge_series(self, other: "Sketch") -> None:
        """Fold every series of ``other`` into this family (exact —
        bucket counts are integers)."""
        if other.labelnames != self.labelnames or other.alpha != self.alpha:
            raise ValueError(f"sketch family {self.name!r}: shape mismatch on merge")
        for key, state in other._series.items():
            mine = self._series.get(key)
            if mine is None:
                self._series[key] = QuantileSketch.from_dict(state.to_dict())
            else:
                mine.merge(state)

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

    def _register(self, cls, name: str, help: str, labelnames: Tuple[str, ...], **shape):
        existing = self._metrics.get(name)
        if existing is not None:
            if (
                not isinstance(existing, cls)
                or existing.labelnames != tuple(labelnames)
                or any(getattr(existing, key) != value for key, value in shape.items())
            ):
                raise ValueError(f"metric {name!r} already registered with a different shape")
            return existing
        metric = cls(name, help=help, labelnames=labelnames, **shape)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "", labelnames: Tuple[str, ...] = ()) -> Counter:
        """Get-or-create a counter family."""
        return self._register(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames: Tuple[str, ...] = ()) -> Gauge:
        """Get-or-create a gauge family."""
        return self._register(Gauge, name, help, labelnames)

    def sketch(
        self,
        name: str,
        help: str = "",
        labelnames: Tuple[str, ...] = (),
        alpha: float = DEFAULT_ALPHA,
    ) -> Sketch:
        """Get-or-create a quantile-sketch family (relative accuracy
        ``alpha``; snapshot reports p50/p90/p99/p999)."""
        return self._register(Sketch, name, help, labelnames, alpha=alpha)

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def snapshot(self) -> dict:
        """JSON-ready dump of every family, name-sorted (deterministic)."""
        return {name: self._metrics[name].snapshot() for name in sorted(self._metrics)}
