"""Quantile sketches and streaming stats: merge associativity, JSON
round trips, the relative-accuracy guarantee against exact numpy
quantiles, byte-stable serialization, and the registry's sketch
family."""

import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import MetricsRegistry
from repro.obs.sketch import (
    DEFAULT_ALPHA,
    PERCENTILE_LABELS,
    QuantileSketch,
    StreamStats,
    quantile,
    sketch_from_samples,
)

# Positive magnitudes spanning the scales the simulator produces
# (sub-microsecond latencies in seconds up to giant byte counts).
values_st = st.floats(min_value=1e-6, max_value=1e12, allow_nan=False, allow_infinity=False)
samples_st = st.lists(values_st, min_size=1, max_size=200)


class TestStreamStats:
    def test_moments_match_numpy(self):
        rng = random.Random(7)
        data = [rng.uniform(0, 1000) for _ in range(500)]
        stats = StreamStats()
        for v in data:
            stats.add(v)
        assert stats.count == 500
        assert stats.minimum == min(data)
        assert stats.maximum == max(data)
        assert stats.mean == pytest.approx(np.mean(data))
        assert stats.m2 / stats.count == pytest.approx(np.var(data))

    @given(samples_st, samples_st)
    @settings(max_examples=50, deadline=None)
    def test_merge_equals_concatenation(self, a, b):
        left = StreamStats()
        for v in a:
            left.add(v)
        right = StreamStats()
        for v in b:
            right.add(v)
        both = StreamStats()
        for v in a + b:
            both.add(v)
        left.merge(right)
        assert left.count == both.count
        assert left.minimum == both.minimum
        assert left.maximum == both.maximum
        assert left.mean == pytest.approx(both.mean)
        assert left.m2 == pytest.approx(both.m2, rel=1e-9, abs=1e-6)

    def test_merge_empty_either_side(self):
        stats = StreamStats()
        stats.add(4.0)
        empty = StreamStats()
        assert empty.merge(stats).to_dict() == stats.to_dict()
        assert stats.merge(StreamStats()).count == 1

    @given(samples_st)
    @settings(max_examples=50, deadline=None)
    def test_round_trip(self, samples):
        stats = StreamStats()
        for v in samples:
            stats.add(v)
        assert StreamStats.from_dict(json.loads(json.dumps(stats.to_dict()))) == stats


class TestQuantileSketch:
    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            QuantileSketch(alpha=0.0)
        with pytest.raises(ValueError):
            QuantileSketch(alpha=1.0)
        with pytest.raises(ValueError):
            QuantileSketch(min_value=0.0)
        with pytest.raises(ValueError):
            QuantileSketch().add(-1.0)
        with pytest.raises(ValueError):
            QuantileSketch().quantile(1.5)

    def test_empty_sketch(self):
        sketch = QuantileSketch()
        assert sketch.count == 0
        assert sketch.quantile(0.5) is None
        assert sketch.percentiles() == {label: None for label, _q in PERCENTILE_LABELS}

    def test_zero_and_tiny_values(self):
        sketch = QuantileSketch(min_value=1e-9)
        sketch.add(0.0)
        sketch.add(1e-12)
        sketch.add(5.0)
        assert sketch.zero_count == 2
        assert sketch.count == 3
        assert sketch.quantile(0.25) == 0.0
        assert sketch.quantile(1.0) == 5.0

    def test_merge_shape_mismatch(self):
        with pytest.raises(ValueError):
            QuantileSketch(alpha=0.01).merge(QuantileSketch(alpha=0.02))

    @given(samples_st)
    @settings(max_examples=50, deadline=None)
    def test_relative_accuracy_vs_numpy(self, samples):
        alpha = DEFAULT_ALPHA
        sketch = sketch_from_samples(samples, alpha=alpha)
        ordered = np.sort(np.asarray(samples, dtype=float))
        n = len(ordered)
        for q in (0.0, 0.25, 0.5, 0.9, 0.99, 1.0):
            estimate = sketch.quantile(q)
            rank = q * (n - 1)
            lo = ordered[math.floor(rank)]
            hi = ordered[math.ceil(rank)]
            # The DDSketch contract: within relative alpha of a value
            # adjacent to the exact order statistic (eps covers float
            # rounding at the bucket boundary).
            eps = 1e-9
            assert estimate >= lo * (1.0 - alpha - eps)
            assert estimate <= hi * (1.0 + alpha + eps)

    def test_p50_p99_bound_on_lognormal_fcts(self):
        # The acceptance-criteria check in miniature: a heavy-tailed
        # FCT-like sample, sketch p50/p99 vs exact numpy quantiles.
        rng = np.random.default_rng(42)
        fcts = np.exp(rng.normal(5.0, 1.5, size=20_000))
        sketch = sketch_from_samples(fcts.tolist())
        for q in (0.5, 0.99):
            exact = float(np.quantile(fcts, q))
            assert abs(sketch.quantile(q) - exact) / exact <= 2 * DEFAULT_ALPHA

    @given(samples_st, samples_st, samples_st)
    @settings(max_examples=50, deadline=None)
    def test_merge_associative_and_commutative(self, a, b, c):
        def sk(values):
            return sketch_from_samples(values)

        left = sk(a).merge(sk(b)).merge(sk(c))
        right = sk(a).merge(sk(b).merge(sk(c)))
        swapped = sk(c).merge(sk(a)).merge(sk(b))
        # Integer bucket state is exactly associative and commutative…
        for other in (right, swapped):
            assert left.buckets == other.buckets
            assert left.zero_count == other.zero_count
            assert left.count == other.count
            assert left.stats.minimum == other.stats.minimum
            assert left.stats.maximum == other.stats.maximum
        # …so every quantile answer is, too.
        for q in (0.0, 0.5, 0.99, 1.0):
            assert left.quantile(q) == right.quantile(q) == swapped.quantile(q)

    @given(samples_st)
    @settings(max_examples=50, deadline=None)
    def test_json_round_trip(self, samples):
        sketch = sketch_from_samples(samples)
        restored = QuantileSketch.from_json(sketch.to_json())
        assert restored == sketch
        assert restored.quantile(0.9) == sketch.quantile(0.9)

    def test_byte_identical_serialization_across_seeded_runs(self):
        def build(seed):
            rng = random.Random(seed)
            sketch = QuantileSketch()
            for _ in range(1000):
                sketch.add(rng.expovariate(1.0 / 500.0))
            return sketch

        assert build(123).to_json() == build(123).to_json()
        assert build(123).to_json() != build(124).to_json()

    def test_constant_memory(self):
        sketch = QuantileSketch()
        rng = random.Random(1)
        for _ in range(50_000):
            sketch.add(rng.uniform(1.0, 1e9))
        # ~2100 buckets cover 9 decades at alpha=1%; the point is that
        # 50k samples did not produce 50k buckets.
        assert len(sketch.buckets) < 2500

    # extend() is a fused loop; per-value add() is its reference. Runs
    # of equal values, zeros, sub-min_value and int samples are the
    # cases the fused loop treats specially.
    @given(
        st.lists(
            st.one_of(
                values_st,
                st.sampled_from([0.0, 1e-12, 1.0, 5303.0]),
                st.integers(min_value=0, max_value=10**9),
            ).flatmap(lambda v: st.lists(st.just(v), min_size=1, max_size=4)),
            max_size=60,
        ),
        st.integers(min_value=0, max_value=60),
    )
    @settings(max_examples=100, deadline=None)
    def test_extend_is_bit_identical_to_adds(self, runs, split):
        samples = [value for run in runs for value in run]
        by_add = QuantileSketch()
        for value in samples:
            by_add.add(float(value))
        by_extend = QuantileSketch()
        by_extend.extend(samples[:split])  # second call resumes from state
        by_extend.extend(samples[split:])
        assert by_extend.to_json() == by_add.to_json()

    def test_extend_keeps_samples_before_a_rejected_one(self):
        sketch = QuantileSketch()
        with pytest.raises(ValueError):
            sketch.extend([3.0, 0.0, 7.0, -1.0, 9.0])
        assert sketch == sketch_from_samples([3.0, 0.0, 7.0])

    def test_from_dict_rejects_foreign_payload(self):
        with pytest.raises(ValueError):
            QuantileSketch.from_dict({"kind": "histogram"})


class TestExactQuantile:
    @given(
        st.one_of(
            st.lists(st.integers(-10**9, 10**9), min_size=1, max_size=300),
            st.lists(
                st.floats(-1e12, 1e12, allow_nan=False, allow_infinity=False),
                min_size=1, max_size=300,
            ),
        ),
        st.floats(0.0, 1.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_equals_numpy(self, samples, q):
        assert quantile(samples, q) == float(np.quantile(np.asarray(samples, dtype=float), q))

    def test_range_is_checked_before_the_empty_answer(self):
        assert quantile([], 0.5) == 0.0
        for q in (-0.1, 1.5, float("nan")):
            with pytest.raises(ValueError):
                quantile([], q)
            with pytest.raises(ValueError):
                QuantileSketch().quantile(q)


class TestSketchMetricFamily:
    def test_observe_and_snapshot_percentiles(self):
        registry = MetricsRegistry()
        family = registry.sketch("fct_us", labelnames=("variant",))
        for v in range(1, 101):
            family.observe(float(v), variant="tdtcp")
        snap = registry.snapshot()["fct_us"]
        assert snap["kind"] == "sketch"
        series = snap["series"][0]["value"]
        assert series["count"] == 100
        assert set(series["percentiles"]) == {label for label, _q in PERCENTILE_LABELS}
        assert series["percentiles"]["p50"] == pytest.approx(50, rel=0.05)
        # The full state rides along, so snapshots merge losslessly.
        assert QuantileSketch.from_dict(series["state"]).count == 100
