"""Figure measurements: step interpolation, week folding, analytic
curves, exact quantiles and CDFs, the per-day counter and the VOQ
recorder."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.figures import constant_rate_curve, optimal_curve, tile_weeks
from repro.experiments.runner import (
    count_per_week,
    fold_series_by_week,
    record_queue_length,
    step_interpolate,
    week_grid,
)
from repro.net.packet import Packet
from repro.net.queues import DropTailQueue
from repro.obs.sketch import quantile
from repro.rdcn.schedule import TDNSchedule
from repro.sim import Simulator
from repro.units import gbps, usec


def empirical_cdf(samples):
    """Sorted values and the fraction of samples <= each one."""
    if len(samples) == 0:
        return np.asarray([]), np.asarray([])
    x = np.sort(np.asarray(samples, dtype=float))
    return x, np.arange(1, len(x) + 1) / len(x)


def fraction_at_or_below(samples, threshold):
    """Fraction of samples <= threshold; 0.0 for empty input."""
    if len(samples) == 0:
        return 0.0
    return float(np.mean(np.asarray(samples, dtype=float) <= threshold))


class TestStepInterpolate:
    def test_previous_value_semantics(self):
        times = np.array([10, 20, 30])
        values = np.array([1.0, 2.0, 3.0])
        grid = np.array([5, 10, 15, 25, 40])
        out = step_interpolate(times, values, grid, initial=0.0)
        assert list(out) == [0.0, 1.0, 1.0, 2.0, 3.0]

    def test_empty_series(self):
        out = step_interpolate(np.array([]), np.array([]), np.array([1, 2]), initial=7.0)
        assert list(out) == [7.0, 7.0]


class TestFoldByWeek:
    def test_constant_rate_folds_to_line(self):
        week = 1000
        samples = [(t, t * 2.0) for t in range(0, 10 * week, 50)]
        curve, progress = fold_series_by_week(samples, week, 10, warmup_weeks=2)
        assert progress == pytest.approx(2.0 * week, rel=0.05)
        # Within-week curve is linear from 0.
        assert curve[0] == pytest.approx(0.0, abs=110)
        assert curve[-1] == pytest.approx(2.0 * week_grid(week)[-1], rel=0.1)

    def test_level_series_averages(self):
        week = 1000
        # Queue length alternates 5 in the first half-week, 10 in the second.
        samples = []
        for w in range(6):
            samples.append((w * week, 5))
            samples.append((w * week + 500, 10))
        curve, progress = fold_series_by_week(
            samples, week, 6, warmup_weeks=1, cumulative=False
        )
        assert progress == 0.0
        assert curve[0] == pytest.approx(5.0)
        assert curve[-1] == pytest.approx(10.0)

    def test_needs_post_warmup_weeks(self):
        with pytest.raises(ValueError):
            fold_series_by_week([(0, 0)], 1000, 2, warmup_weeks=2)

    @given(st.integers(1, 5), st.integers(3, 8))
    @settings(max_examples=30)
    def test_periodic_input_reproduced_exactly(self, rate, weeks):
        """A strictly periodic cumulative series folds to its one-week
        shape regardless of how many weeks are averaged."""
        week = 700
        samples = [(t, (t // 7) * rate) for t in range(0, weeks * week, 7)]
        curve, progress = fold_series_by_week(samples, week, weeks, warmup_weeks=1)
        assert len(curve) == len(week_grid(week)) == 400
        assert progress == pytest.approx(week / 7 * rate, rel=0.05)


class TestTileWeeks:
    def test_tiling_offsets(self):
        grid = np.array([0, 100, 200])
        curve = np.array([0.0, 1.0, 2.0])
        times, values = tile_weeks(grid, curve, mean_week_progress=3.0, week_ns=300, n_weeks=2)
        assert list(times) == [0, 100, 200, 300, 400, 500]
        assert list(values) == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]


class TestAnalyticCurves:
    def schedule(self):
        return TDNSchedule.uniform((0, 0, 1), usec(100), usec(10))

    def test_optimal_curve_total(self):
        s = self.schedule()
        times, values = optimal_curve(s, [gbps(10), gbps(100)], n_weeks=1, grid_points_per_week=330)
        # Total bytes over a week: 2 * 100us at 10G + 100us at 100G.
        expected = (2 * 100e-6 * 10e9 + 100e-6 * 100e9) / 8
        assert values[-1] == pytest.approx(expected, rel=0.02)

    def test_optimal_flat_during_nights(self):
        s = self.schedule()
        times, values = optimal_curve(s, [gbps(10), gbps(100)], n_weeks=1, grid_points_per_week=660)
        # Sample inside the first night (100..110 us).
        inside = [v for t, v in zip(times, values) if usec(101) <= t < usec(109)]
        assert max(inside) - min(inside) < 1500  # essentially flat

    def test_optimal_steeper_on_optical(self):
        s = self.schedule()
        times, values = optimal_curve(s, [gbps(10), gbps(100)], n_weeks=1, grid_points_per_week=660)
        def slope(t0, t1):
            i0 = np.searchsorted(times, t0)
            i1 = np.searchsorted(times, t1)
            return (values[i1] - values[i0]) / (times[i1] - times[i0])
        packet_slope = slope(usec(10), usec(90))
        optical_slope = slope(usec(230), usec(310))
        assert optical_slope == pytest.approx(10 * packet_slope, rel=0.05)

    def test_constant_rate_curve(self):
        times, values = constant_rate_curve(gbps(10), usec(1000), grid_points=100)
        assert values[0] == 0.0
        # slope = 10G/8 bytes per second.
        assert values[-1] == pytest.approx(10e9 / 8 * times[-1] / 1e9, rel=0.01)

    def test_multi_week_continuity(self):
        s = self.schedule()
        times, values = optimal_curve(s, [gbps(10), gbps(100)], n_weeks=3, grid_points_per_week=330)
        assert all(np.diff(values) >= -1e-9)  # monotone non-decreasing


class TestCDF:
    def test_empirical_cdf(self):
        x, p = empirical_cdf([3, 1, 2])
        assert list(x) == [1, 2, 3]
        assert list(p) == pytest.approx([1 / 3, 2 / 3, 1.0])

    def test_empty(self):
        x, p = empirical_cdf([])
        assert len(x) == 0 and len(p) == 0
        assert quantile([], 0.5) == 0.0
        assert fraction_at_or_below([], 1) == 0.0

    def test_quantile(self):
        samples = list(range(1, 101))
        assert quantile(samples, 0.5) == pytest.approx(50.5)
        assert quantile(samples, 1.0) == 100
        with pytest.raises(ValueError):
            quantile(samples, 1.5)

    def test_fraction_at_or_below(self):
        assert fraction_at_or_below([0, 0, 1, 2], 0) == 0.5
        assert fraction_at_or_below([5], 4) == 0.0

    @given(st.lists(st.integers(0, 100), min_size=1, max_size=100))
    @settings(max_examples=50)
    def test_cdf_properties(self, samples):
        x, p = empirical_cdf(samples)
        assert list(x) == sorted(samples)
        assert p[-1] == pytest.approx(1.0)
        assert all(np.diff(p) > 0 - 1e-12)


class TestCollectors:
    WEEK_NS = TDNSchedule.uniform((0, 1), usec(100), usec(10)).week_ns

    def test_queue_collector_records_changes(self):
        sim = Simulator()
        q = DropTailQueue(4)
        samples = record_queue_length(sim, q)
        q.push(Packet("a", "b", 1), sim.now)
        sim.now = 100
        q.push(Packet("a", "b", 1), sim.now)
        sim.now = 200
        q.pop()
        assert samples == [(0, 0), (0, 1), (100, 2), (200, 1)]

    def test_event_counter_buckets_by_week(self):
        times = [usec(50), usec(250), usec(250), usec(260)]  # weeks 0, 1, 1, 1
        assert count_per_week(times, self.WEEK_NS, total_weeks=3) == [1, 3, 0]

    def test_event_counter_warmup_skipped(self):
        times = [usec(50), usec(250), usec(999)]  # the last is past the horizon
        assert count_per_week(times, self.WEEK_NS, total_weeks=3, warmup_weeks=1) == [1, 0]

    def test_zero_days_present(self):
        assert count_per_week([], self.WEEK_NS, total_weeks=4) == [0, 0, 0, 0]
