"""Empirical flow-size distributions and the mixed workload."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.tracegen import (
    DATA_MINING_CDF,
    EmpiricalFlowSizes,
    EmpiricalWorkload,
    WEB_SEARCH_CDF,
)
from repro.metrics.cdf import quantile
from repro.sim.rng import SeededRandom
from repro.units import gbps, msec, usec

from tests.helpers import two_hosts


class TestEmpiricalFlowSizes:
    def test_websearch_median_in_published_band(self):
        sampler = EmpiricalFlowSizes(WEB_SEARCH_CDF, SeededRandom(5))
        samples = [sampler.sample() for _ in range(20_000)]
        # Published CDF: ~50% of flows below ~100 KB.
        median = quantile(samples, 0.5)
        assert 30_000 < median < 300_000

    def test_datamining_is_heavy_tailed(self):
        sampler = EmpiricalFlowSizes(DATA_MINING_CDF, SeededRandom(5))
        samples = [sampler.sample() for _ in range(20_000)]
        # Most flows tiny, a few enormous: mean >> median.
        median = quantile(samples, 0.5)
        mean = sum(samples) / len(samples)
        assert median < 2_000
        assert mean > median * 100

    def test_samples_within_support(self):
        sampler = EmpiricalFlowSizes(WEB_SEARCH_CDF, SeededRandom(5))
        for _ in range(2_000):
            size = sampler.sample()
            assert WEB_SEARCH_CDF[0][1] <= size <= WEB_SEARCH_CDF[-1][1]

    def test_deterministic_given_seed(self):
        a = EmpiricalFlowSizes(WEB_SEARCH_CDF, SeededRandom(9))
        b = EmpiricalFlowSizes(WEB_SEARCH_CDF, SeededRandom(9))
        assert [a.sample() for _ in range(50)] == [b.sample() for _ in range(50)]

    def test_invalid_cdfs_rejected(self):
        with pytest.raises(ValueError):
            EmpiricalFlowSizes([(0.0, 10)], SeededRandom(1))
        with pytest.raises(ValueError):
            EmpiricalFlowSizes([(0.1, 10), (1.0, 20)], SeededRandom(1))
        with pytest.raises(ValueError):
            EmpiricalFlowSizes([(0.0, 10), (0.6, 20), (0.5, 30), (1.0, 40)], SeededRandom(1))

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=20)
    def test_mean_finite_positive(self, seed):
        sampler = EmpiricalFlowSizes(DATA_MINING_CDF, SeededRandom(seed))
        assert sampler.mean() > 0


class TestClosedFormMean:
    def test_matches_million_sample_monte_carlo(self):
        # The closed form (probability-weighted logarithmic bin means)
        # replaced the old 2,000-sample estimate; pin it against a
        # 1M-sample Monte-Carlo within 1%.
        for cdf in (WEB_SEARCH_CDF, DATA_MINING_CDF):
            sampler = EmpiricalFlowSizes(cdf, SeededRandom(7))
            exact = sampler.mean()
            n = 1_000_000
            mc = sum(sampler.sample() for _ in range(n)) / n
            assert abs(mc - exact) / exact < 0.01

    def test_degenerate_bin_uses_its_size(self):
        sampler = EmpiricalFlowSizes(((0.0, 500), (1.0, 500)), SeededRandom(1))
        assert sampler.mean() == pytest.approx(500.0)

    def test_mean_is_deterministic(self):
        # No sampling left in the mean: independent instances agree to
        # the bit, whatever their RNG state.
        a = EmpiricalFlowSizes(WEB_SEARCH_CDF, SeededRandom(1))
        b = EmpiricalFlowSizes(WEB_SEARCH_CDF, SeededRandom(999))
        b.sample()
        assert a.mean() == b.mean()


class TestEmpiricalWorkload:
    def test_flows_sample_varied_sizes(self):
        """Heavy-tailed sizes mean sparse arrivals (~60 flows/s at 10G,
        30% load): a few hundred ms of simulated time is needed."""
        sim, a, b, _ab, _ba = two_hosts()
        workload = EmpiricalWorkload(
            sim, a, b, SeededRandom(3),
            cdf=DATA_MINING_CDF, load=0.5, capacity_bps=gbps(10),
        )
        workload.start()
        sim.run(until=msec(400))
        workload.stop()
        sizes = {r.size_bytes for r in workload.stats.records}
        assert len(workload.stats.records) > 5
        assert len(sizes) > 3  # genuinely varied

    def test_small_flows_complete(self):
        sim, a, b, _ab, _ba = two_hosts()
        workload = EmpiricalWorkload(
            sim, a, b, SeededRandom(3),
            cdf=DATA_MINING_CDF, load=0.5, capacity_bps=gbps(10),
        )
        workload.start()
        sim.run(until=msec(400))
        workload.stop()
        sim.run(until=msec(450))
        small = [r for r in workload.stats.records if r.size_bytes < 50_000]
        assert small
        done = [r for r in small if r.completed]
        assert len(done) / len(small) > 0.8

    def test_invalid_load(self):
        sim, a, b, _ab, _ba = two_hosts()
        for load in (1.5, 0.0, -0.1):
            with pytest.raises(ValueError):
                EmpiricalWorkload(
                    sim, a, b, SeededRandom(3),
                    cdf=DATA_MINING_CDF, load=load, capacity_bps=gbps(10),
                )

    def test_full_load_accepted(self):
        # load == 1.0 (line rate) used to be rejected by an exclusive
        # upper bound; it is a legitimate operating point.
        sim, a, b, _ab, _ba = two_hosts()
        workload = EmpiricalWorkload(
            sim, a, b, SeededRandom(3),
            cdf=DATA_MINING_CDF, load=1.0, capacity_bps=gbps(10),
        )
        assert workload.mean_interarrival_ns >= 1

    def test_interarrival_rounds_to_nearest(self):
        # Truncation biased every gap short, inflating achieved load;
        # the gap is now round(SEC / rate). A fixed 1000-byte CDF at
        # capacity 3 Gbps, load 1.0: rate = 375_000 flows/s, so the
        # exact gap is 2666.67 ns -> 2667, not 2666.
        sim, a, b, _ab, _ba = two_hosts()
        workload = EmpiricalWorkload(
            sim, a, b, SeededRandom(3),
            cdf=((0.0, 1_000), (1.0, 1_000)), load=1.0, capacity_bps=3e9,
        )
        assert workload.mean_interarrival_ns == 2667
