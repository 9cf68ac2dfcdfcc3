"""Fairness: Jain-index utility plus end-to-end fairness of competing
flows (§3.5: "We expect CCAs used within each TDN to have similar
fairness properties as their single-path siblings")."""

from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import ExperimentConfig, run_experiment


def jain_index(allocations: Sequence[float]) -> float:
    """Jain's fairness index: 1.0 = perfectly fair, 1/n = one flow
    takes everything; 0.0 for empty or all-zero input."""
    values = [max(float(v), 0.0) for v in allocations]
    total = sum(values)
    if total == 0.0:
        return 0.0
    return total * total / (len(values) * sum(v * v for v in values))


def max_min_ratio(allocations: Sequence[float]) -> float:
    """max/min allocation ratio (1.0 = equal); inf when a flow starves."""
    values = [float(v) for v in allocations]
    if not values:
        return 1.0
    low, high = min(values), max(values)
    if low <= 0.0:
        return float("inf") if high > 0 else 1.0
    return high / low


class TestJainIndex:
    def test_perfect_fairness(self):
        assert jain_index([5, 5, 5, 5]) == pytest.approx(1.0)

    def test_total_unfairness(self):
        assert jain_index([10, 0, 0, 0]) == pytest.approx(0.25)

    def test_empty_and_zero(self):
        assert jain_index([]) == 0.0
        assert jain_index([0, 0]) == 0.0

    def test_single_flow(self):
        assert jain_index([42]) == pytest.approx(1.0)

    @given(st.lists(st.floats(0.1, 1000), min_size=1, max_size=30))
    @settings(max_examples=100)
    def test_bounds(self, allocations):
        index = jain_index(allocations)
        assert 1.0 / len(allocations) - 1e-9 <= index <= 1.0 + 1e-9

    @given(st.floats(0.1, 1000), st.integers(1, 20))
    @settings(max_examples=50)
    def test_scale_invariance(self, value, n):
        assert jain_index([value] * n) == pytest.approx(1.0)


class TestMaxMinRatio:
    def test_equal(self):
        assert max_min_ratio([3, 3, 3]) == 1.0

    def test_skewed(self):
        assert max_min_ratio([1, 4]) == 4.0

    def test_starved_flow(self):
        assert max_min_ratio([0, 5]) == float("inf")

    def test_empty(self):
        assert max_min_ratio([]) == 1.0


class TestEndToEndFairness:
    @pytest.mark.parametrize("variant", ["cubic", "tdtcp"])
    def test_competing_flows_share_fairly(self, variant):
        """§3.5: per-TDN CUBIC should be roughly as fair as plain
        CUBIC. Long-run per-flow deliveries must be balanced."""
        cfg = ExperimentConfig(variant=variant, n_flows=4, weeks=24, warmup_weeks=6)
        result = run_experiment(cfg)
        index = jain_index(result.flow_delivered)
        assert index > 0.85, f"{variant} flows diverged: {result.flow_delivered}"

    def test_tdtcp_fairness_comparable_to_cubic(self):
        cubic = run_experiment(ExperimentConfig(variant="cubic", n_flows=4, weeks=24, warmup_weeks=6))
        tdtcp = run_experiment(ExperimentConfig(variant="tdtcp", n_flows=4, weeks=24, warmup_weeks=6))
        assert jain_index(tdtcp.flow_delivered) > jain_index(cubic.flow_delivered) - 0.15
