"""Empirical flow-size distributions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.tracegen import (
    DATA_MINING_CDF,
    EmpiricalFlowSizes,
    WEB_SEARCH_CDF,
)
from repro.obs.sketch import quantile
from repro.sim.rng import SeededRandom


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
