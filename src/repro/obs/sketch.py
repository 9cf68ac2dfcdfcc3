"""Mergeable, constant-memory streaming aggregates.

Campaign-scale runs (the ROADMAP's 10M-flow workload engine and 10k-run
sweep fabric) cannot keep per-sample lists: a million FCTs per variant
per load point stops fitting in memory long before the simulation stops
fitting in time. This module provides the two streaming summaries the
rest of the stack builds on:

* :class:`StreamStats` — count/sum/min/max plus Welford mean/M2, so
  mean and variance come out of O(1) state.
* :class:`QuantileSketch` — a DDSketch-style log-bucketed quantile
  sketch with **relative-accuracy** guarantee: ``quantile(q)`` is within
  a factor ``(1 ± alpha)`` of the exact q-quantile of everything
  ``add()``-ed, using O(log(max/min)/alpha) integer buckets. Buckets
  carry signed indices, so sub-1 values (seconds-scale FCTs expressed in
  seconds, ratios, fractions) resolve just as finely as large ones.

Both are:

* **merge-associative** — ``a.merge(b)`` accumulates exactly (bucket
  counts are integers), so per-worker partial sketches combine into the
  same quantile answers regardless of merge order or sharding;
* **JSON-round-trippable** — ``from_dict(to_dict(s))`` restores the
  exact state, and :meth:`to_json` emits key-sorted, separator-stable
  bytes so identical seeded runs serialize byte-identically.

Only non-negative values are accepted (every stream we sketch — FCTs,
latencies, byte counts, per-day event counts — is non-negative);
values below ``min_value`` (including exact zeros) land in a dedicated
zero bucket and report as 0.0.

:func:`quantile` is the exact answer for a sample small enough to keep
whole (a figure's per-day counts, a test's few hundred latencies).
"""

from __future__ import annotations

import json
import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "QuantileSketch",
    "StreamStats",
    "sketch_from_samples",
    "quantile",
    "DEFAULT_ALPHA",
    "PERCENTILE_LABELS",
]

#: Default relative accuracy: quantile estimates within ±1%.
DEFAULT_ALPHA = 0.01

#: The snapshot percentiles every consumer reports.
PERCENTILE_LABELS: Tuple[Tuple[str, float], ...] = (
    ("p50", 0.50),
    ("p90", 0.90),
    ("p99", 0.99),
    ("p999", 0.999),
)


class StreamStats:
    """Count/sum/min/max/mean/M2 in O(1) state (Welford online update,
    Chan et al. parallel merge)."""

    __slots__ = ("count", "total", "minimum", "maximum", "mean", "m2")

    def __init__(self) -> None:
        self.count: int = 0
        self.total: float = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None
        self.mean: float = 0.0
        self.m2: float = 0.0

    def add(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        self.minimum = value if self.minimum is None else min(self.minimum, value)
        self.maximum = value if self.maximum is None else max(self.maximum, value)
        delta = value - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (value - self.mean)

    def merge(self, other: "StreamStats") -> "StreamStats":
        """Fold ``other`` into this instance (in place; returns self)."""
        if other.count == 0:
            return self
        if self.count == 0:
            self.count = other.count
            self.total = other.total
            self.minimum = other.minimum
            self.maximum = other.maximum
            self.mean = other.mean
            self.m2 = other.m2
            return self
        delta = other.mean - self.mean
        count = self.count + other.count
        self.mean += delta * other.count / count
        self.m2 += other.m2 + delta * delta * self.count * other.count / count
        self.count = count
        self.total += other.total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)
        return self

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "mean": self.mean,
            "m2": self.m2,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "StreamStats":
        stats = cls()
        stats.count = int(data["count"])
        stats.total = float(data["sum"])
        stats.minimum = None if data["min"] is None else float(data["min"])
        stats.maximum = None if data["max"] is None else float(data["max"])
        stats.mean = float(data["mean"])
        stats.m2 = float(data["m2"])
        return stats

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StreamStats):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __repr__(self) -> str:
        return (
            f"StreamStats(count={self.count}, mean={self.mean:.6g}, "
            f"min={self.minimum}, max={self.maximum})"
        )


class QuantileSketch:
    """DDSketch-style quantile sketch with relative-accuracy ``alpha``.

    A value ``v >= min_value`` lands in bucket ``ceil(log_gamma(v))``
    with ``gamma = (1 + alpha) / (1 - alpha)``; the bucket's
    representative value ``2 * gamma^i / (gamma + 1)`` (the geometric
    bucket midpoint) is then within a relative factor ``alpha`` of every
    value the bucket holds. Indices are signed, so sub-1 values get
    negative buckets instead of collapsing. Values in ``[0, min_value)``
    count into a dedicated zero bucket reported as 0.0; negative values
    raise ``ValueError``.

    The bucket map is a plain ``dict[int, int]``; memory is bounded by
    the dynamic range of the data, not its volume (~920 buckets span
    1 ns..1000 s at ``alpha=0.01``).
    """

    __slots__ = ("alpha", "min_value", "gamma", "_log_gamma", "zero_count", "buckets", "stats")

    def __init__(self, alpha: float = DEFAULT_ALPHA, min_value: float = 1e-9) -> None:
        if not (0.0 < alpha < 1.0):
            raise ValueError("alpha must be in (0, 1)")
        if min_value <= 0.0:
            raise ValueError("min_value must be positive")
        self.alpha = float(alpha)
        self.min_value = float(min_value)
        self.gamma = (1.0 + self.alpha) / (1.0 - self.alpha)
        self._log_gamma = math.log(self.gamma)
        self.zero_count: int = 0
        self.buckets: Dict[int, int] = {}
        self.stats = StreamStats()

    # ------------------------------------------------------------------
    # Ingest / merge
    # ------------------------------------------------------------------
    def bucket_index(self, value: float) -> int:
        """The signed log-bucket index of a value >= ``min_value``."""
        return math.ceil(math.log(value) / self._log_gamma)

    def add(self, value: float, count: int = 1) -> None:
        if value < 0.0:
            raise ValueError(f"QuantileSketch takes non-negative values, got {value}")
        if count < 1:
            raise ValueError("count must be >= 1")
        for _ in range(count):
            self.stats.add(value)
        if value < self.min_value:
            self.zero_count += count
            return
        index = self.bucket_index(value)
        self.buckets[index] = self.buckets.get(index, 0) + count

    def extend(self, values: Iterable[float]) -> None:
        """``add(float(v))`` for every value, as one loop over local
        state: the same updates in the same order, so the resulting
        state is bit-identical to per-value adds. The bucket index is
        recomputed only when a value differs from the one before it
        (runs of equal samples are the common case: the hosts of a rack
        share a notification latency). State is written back even when
        a value is rejected, so everything before it stays ingested.
        """
        stats = self.stats
        count = stats.count
        total = stats.total
        minimum = stats.minimum
        maximum = stats.maximum
        mean = stats.mean
        m2 = stats.m2
        zero_count = self.zero_count
        buckets = self.buckets
        min_value = self.min_value
        log_gamma = self._log_gamma
        log = math.log
        ceil = math.ceil
        previous = None
        index = 0
        try:
            for value in values:
                value = float(value)
                if value < 0.0:
                    raise ValueError(f"QuantileSketch takes non-negative values, got {value}")
                count += 1
                total += value
                if minimum is None:
                    minimum = maximum = value
                else:
                    if value < minimum:
                        minimum = value
                    if value > maximum:
                        maximum = value
                delta = value - mean
                mean += delta / count
                m2 += delta * (value - mean)
                if value < min_value:
                    zero_count += 1
                    continue
                if value != previous:
                    index = ceil(log(value) / log_gamma)
                    previous = value
                buckets[index] = buckets.get(index, 0) + 1
        finally:
            stats.count = count
            stats.total = total
            stats.minimum = minimum
            stats.maximum = maximum
            stats.mean = mean
            stats.m2 = m2
            self.zero_count = zero_count

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """Fold ``other`` into this sketch (in place; returns self).

        Bucket counts are integers, so the merged bucket state — and
        therefore every quantile answer — is exactly associative and
        commutative across any merge tree. The float ``sum``/``mean``
        carried by :class:`StreamStats` merge with ordinary float
        arithmetic (associative only up to rounding).
        """
        if (other.alpha, other.min_value) != (self.alpha, self.min_value):
            raise ValueError(
                f"cannot merge sketches with different shapes: "
                f"(alpha={self.alpha}, min_value={self.min_value}) vs "
                f"(alpha={other.alpha}, min_value={other.min_value})"
            )
        self.zero_count += other.zero_count
        for index, count in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + count
        self.stats.merge(other.stats)
        return self

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        return self.zero_count + sum(self.buckets.values())

    def bucket_value(self, index: int) -> float:
        """The representative (relative-error-minimizing) value of one
        bucket: the geometric midpoint ``2 * gamma^i / (gamma + 1)``."""
        return 2.0 * self.gamma ** index / (self.gamma + 1.0)

    def quantile(self, q: float) -> Optional[float]:
        """The q-quantile estimate (None for an empty sketch).

        Within relative error ``alpha`` of the exact quantile, clamped
        to the observed [min, max] so degenerate tails cannot escape the
        data range.
        """
        if not (0.0 <= q <= 1.0):
            raise ValueError("quantile must be in [0, 1]")
        total = self.count
        if total == 0:
            return None
        if q == 0.0:
            return self.stats.minimum
        if q == 1.0:
            return self.stats.maximum
        rank = q * (total - 1)
        if rank < self.zero_count:
            return 0.0
        cumulative = self.zero_count
        estimate = 0.0
        for index in sorted(self.buckets):
            cumulative += self.buckets[index]
            if cumulative > rank:
                estimate = self.bucket_value(index)
                break
        else:
            estimate = self.bucket_value(max(self.buckets))
        low = self.stats.minimum if self.stats.minimum is not None else estimate
        high = self.stats.maximum if self.stats.maximum is not None else estimate
        return min(max(estimate, low), high)

    def percentiles(self) -> Dict[str, Optional[float]]:
        """The standard snapshot percentiles (p50/p90/p99/p999)."""
        return {label: self.quantile(q) for label, q in PERCENTILE_LABELS}

    def cdf_points(self) -> List[Tuple[float, float]]:
        """The sketch's empirical CDF as ``(value, P[X <= value])``
        pairs, one per occupied bucket in increasing value order.

        Values are bucket representatives (geometric midpoints), so each
        point is within relative error ``alpha`` of the exact curve; the
        zero bucket contributes a leading ``(0.0, p)`` step. Empty
        sketch -> empty list. The walk is over sorted integer bucket
        indices with integer cumulative counts, so the same state always
        yields the same points (merge-order independent).
        """
        total = self.count
        if total == 0:
            return []
        points: List[Tuple[float, float]] = []
        cumulative = 0
        if self.zero_count:
            cumulative += self.zero_count
            points.append((0.0, cumulative / total))
        for index in sorted(self.buckets):
            cumulative += self.buckets[index]
            points.append((self.bucket_value(index), cumulative / total))
        return points

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "kind": "ddsketch",
            "alpha": self.alpha,
            "min_value": self.min_value,
            "zero_count": self.zero_count,
            "buckets": [[index, self.buckets[index]] for index in sorted(self.buckets)],
            "stats": self.stats.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "QuantileSketch":
        if data.get("kind") != "ddsketch":
            raise ValueError(f"not a ddsketch payload: kind={data.get('kind')!r}")
        sketch = cls(alpha=float(data["alpha"]), min_value=float(data["min_value"]))
        sketch.zero_count = int(data["zero_count"])
        sketch.buckets = {int(index): int(count) for index, count in data["buckets"]}
        sketch.stats = StreamStats.from_dict(data["stats"])
        return sketch

    def to_json(self) -> str:
        """Canonical byte-stable encoding (key-sorted, fixed separators):
        identical states serialize to identical bytes."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "QuantileSketch":
        return cls.from_dict(json.loads(text))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuantileSketch):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __len__(self) -> int:
        return len(self.buckets) + (1 if self.zero_count else 0)

    def __repr__(self) -> str:
        return (
            f"QuantileSketch(alpha={self.alpha}, count={self.count}, "
            f"buckets={len(self.buckets)})"
        )


def sketch_from_samples(
    samples: Iterable[float],
    alpha: float = DEFAULT_ALPHA,
    min_value: float = 1e-9,
) -> QuantileSketch:
    """Stream a sample iterable into a fresh sketch (convenience for
    migrating list-based collectors)."""
    sketch = QuantileSketch(alpha=alpha, min_value=min_value)
    sketch.extend(samples)
    return sketch


def quantile(samples: Sequence[float], q: float) -> float:
    """The exact q-quantile (0..1) of a small sample held in full, such
    as Figure 10's few dozen per-day counts; 0.0 for empty input.

    This is NumPy's default ("linear") quantile, rounded as NumPy rounds
    it: ``a + (b - a) * t``, or ``b - (b - a) * (1 - t)`` once ``t >= 0.5``.
    """
    if not (0.0 <= q <= 1.0):
        raise ValueError("quantile must be within [0, 1]")
    if len(samples) == 0:
        return 0.0
    ordered = sorted(float(x) for x in samples)
    position = (len(ordered) - 1) * q
    below = int(position)
    if below >= len(ordered) - 1:
        return ordered[-1]
    a, b = ordered[below], ordered[below + 1]
    t = position - below
    return a + (b - a) * t if t < 0.5 else b - (b - a) * (1 - t)
