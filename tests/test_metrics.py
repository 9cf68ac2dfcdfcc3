"""Figure measurements: step interpolation, week folding, analytic
curves, exact quantiles and CDFs, the per-day counter and the VOQ
recorder."""

import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.experiments import figures
from repro.experiments.figures import constant_rate_curve, optimal_curve, tile_weeks
from repro.experiments.runner import (
    WeekFolder,
    count_per_week,
    step_interpolate,
    watch_queue_length,
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


# NumPy formulas for the figure arithmetic: the oracle the package's
# pure-Python versions must equal bit for bit (``==``, not approx), or
# the figure CSV goldens move.
def np_week_grid(week_ns):
    return np.linspace(0, week_ns, 400, endpoint=False).astype(np.int64)


def np_step_interpolate(times, values, grid):
    idx = np.searchsorted(times, grid, side="right") - 1
    return np.where(idx >= 0, values[np.clip(idx, 0, None)], 0.0).astype(float)


def np_fold_series_by_week(samples, week_ns, total_weeks, warmup_weeks, cumulative):
    times = np.asarray([t for t, _v in samples], dtype=np.int64)
    values = np.asarray([v for _t, v in samples], dtype=float)
    grid = np_week_grid(week_ns)
    curves, progresses = [], []
    for week in range(warmup_weeks, total_weeks):
        start = week * week_ns
        curve = np_step_interpolate(times, values, grid + start)
        if cumulative:
            base = np_step_interpolate(times, values, np.asarray([start]))[0]
            end = np_step_interpolate(times, values, np.asarray([start + week_ns]))[0]
            curve = curve - base
            progresses.append(end - base)
        curves.append(curve)
    mean_progress = float(np.mean(progresses)) if progresses else 0.0
    return np.mean(np.asarray(curves), axis=0).tolist(), mean_progress


def fold(samples, week_ns, total_weeks, warmup_weeks, cumulative=True):
    """Feed a WeekFolder sample by sample and take its result."""
    folder = WeekFolder(week_ns, total_weeks, warmup_weeks, cumulative)
    for time_ns, value in samples:
        folder.add(time_ns, value)
    return folder.result()


@st.composite
def step_series(draw):
    """A time-sorted step series with the awkward cases drawn often:
    samples on grid points (ties, several at one instant), repeated
    values and samples past the horizon."""
    week_ns = draw(st.integers(400, 10**6))
    warmup = draw(st.integers(0, 3))
    total = warmup + draw(st.integers(1, 12))
    horizon = total * week_ns
    grid = week_grid(week_ns)
    on_grid = st.builds(
        lambda week, j: week * week_ns + grid[j], st.integers(0, total), st.integers(0, 399)
    )
    times = draw(st.lists(
        st.one_of(on_grid, st.integers(0, horizon + week_ns)), min_size=1, max_size=4 * total
    ))
    values = draw(st.lists(
        st.sampled_from([0.0, 1.0, 2.5]) | st.floats(0, 1e9, allow_nan=False),
        min_size=len(times), max_size=len(times),
    ))
    return sorted(times), values, week_ns, total, warmup


def np_optimal_curve(schedule, rates_bps, n_weeks, grid_points_per_week):
    pieces = schedule.rate_profile(list(rates_bps))
    grid = np.linspace(
        0, n_weeks * schedule.week_ns, n_weeks * grid_points_per_week, endpoint=False
    )
    week_bytes = 0.0
    boundaries = []
    for start, end, rate in pieces:
        boundaries.append((start, week_bytes, rate))
        week_bytes += rate / 8.0 * (end - start) / 1e9
    times = np.asarray(grid, dtype=np.int64)
    out = np.empty(len(times), dtype=float)
    starts = np.asarray([b[0] for b in boundaries], dtype=np.int64)
    for i, t in enumerate(times):
        week, phase = divmod(int(t), schedule.week_ns)
        j = int(np.searchsorted(starts, phase, side="right") - 1)
        start, cum, rate = boundaries[j]
        out[i] = week * week_bytes + cum + rate / 8.0 * (phase - start) / 1e9
    return times.tolist(), out.tolist()


def np_constant_rate_curve(rate_bps, duration_ns, grid_points):
    times = np.linspace(0, duration_ns, grid_points, endpoint=False)
    return times.astype(np.int64).tolist(), (rate_bps / 8.0 * times / 1e9).tolist()


class TestNumpyOracle:
    @given(st.integers(1, 10**13))
    @settings(max_examples=50)
    def test_week_grid(self, week_ns):
        assert week_grid(week_ns) == np_week_grid(week_ns).tolist()

    @given(
        post_warmup=st.integers(1, 140),
        warmup=st.integers(0, 3),
        week_ns=st.integers(400, 10**8),
        seed=st.integers(0, 2**32 - 1),
        cumulative=st.booleans(),
    )
    # NumPy's pairwise summation changes order at 8 and above 128 values.
    @example(post_warmup=7, warmup=1, week_ns=7_919, seed=1, cumulative=True)
    @example(post_warmup=8, warmup=1, week_ns=7_919, seed=2, cumulative=True)
    @example(post_warmup=128, warmup=2, week_ns=7_919, seed=3, cumulative=True)
    @example(post_warmup=140, warmup=2, week_ns=7_919, seed=4, cumulative=True)
    @settings(max_examples=10, deadline=None)
    def test_fold_series_by_week(self, post_warmup, warmup, week_ns, seed, cumulative):
        rng = random.Random(seed)
        total = warmup + post_warmup
        level = 0.0
        samples = []
        for t in sorted(rng.randrange(total * week_ns) for _ in range(3 * total)):
            level = level + rng.random() * 1e6 if cumulative else rng.random() * 1e3
            samples.append((t, level))
        args = (samples, week_ns, total, warmup)
        assert fold(*args, cumulative=cumulative) == np_fold_series_by_week(*args, cumulative)

    @given(series=step_series(), cumulative=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_folder_fed_sample_by_sample(self, series, cumulative):
        """Ties at grid points, samples past the horizon, repeated
        values and no warm-up: the online fold still equals the oracle
        over the whole series."""
        times, values, week_ns, total, warmup = series
        if cumulative:
            values = [sum(values[: i + 1]) for i in range(len(values))]
        samples = list(zip(times, values))
        args = (samples, week_ns, total, warmup)
        assert fold(*args, cumulative=cumulative) == np_fold_series_by_week(*args, cumulative)

    @given(
        pattern=st.lists(st.integers(0, 2), min_size=1, max_size=6),
        day_ns=st.integers(1_000, 10**6),
        night_ns=st.integers(0, 10**5),
        rates=st.lists(st.floats(1e6, 1e12), min_size=3, max_size=3),
        n_weeks=st.integers(1, 3),
        points=st.integers(1, 400),
    )
    @settings(max_examples=20, deadline=None)
    def test_analytic_curves(self, pattern, day_ns, night_ns, rates, n_weeks, points):
        schedule = TDNSchedule.uniform(pattern, day_ns, night_ns)
        duration_ns = n_weeks * schedule.week_ns
        with mock.patch.multiple(
            figures, OPTIMAL_POINTS_PER_WEEK=points, PACKET_ONLY_POINTS=points
        ):
            assert optimal_curve(schedule, rates, n_weeks=n_weeks) == np_optimal_curve(
                schedule, rates, n_weeks, points
            )
            assert constant_rate_curve(rates[0], duration_ns) == np_constant_rate_curve(
                rates[0], duration_ns, points
            )


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
        curve, progress = fold(samples, week, 10, warmup_weeks=2)
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
        curve, progress = fold(samples, week, 6, warmup_weeks=1, cumulative=False)
        assert progress == 0.0
        assert curve[0] == pytest.approx(5.0)
        assert curve[-1] == pytest.approx(10.0)

    def test_needs_post_warmup_weeks(self):
        with pytest.raises(ValueError):
            fold([(0, 0)], 1000, 2, warmup_weeks=2)

    @given(st.integers(1, 5), st.integers(3, 8))
    @settings(max_examples=30)
    def test_periodic_input_reproduced_exactly(self, rate, weeks):
        """A strictly periodic cumulative series folds to its one-week
        shape regardless of how many weeks are averaged."""
        week = 700
        samples = [(t, (t // 7) * rate) for t in range(0, weeks * week, 7)]
        curve, progress = fold(samples, week, weeks, warmup_weeks=1)
        assert len(curve) == len(week_grid(week)) == 400
        assert progress == pytest.approx(week / 7 * rate, rel=0.05)

    def test_backwards_timestamp_raises(self):
        folder = WeekFolder(1000, 3, warmup_weeks=1)
        folder.add(500, 1.0)
        folder.add(500, 2.0)  # a tie is in order
        with pytest.raises(ValueError, match="after one at 500 ns"):
            folder.add(499, 3.0)
        # Also once the sample has passed a grid point.
        folder.add(1_600, 4.0)
        with pytest.raises(ValueError):
            folder.add(1_599, 5.0)

    def test_no_weeks_keeps_only_the_maximum(self):
        folder = WeekFolder(1000, 0, 0, cumulative=False)
        for time_ns, value in [(0, 3), (10, 9), (2_000_000, 4)]:
            folder.add(time_ns, value)
        assert folder.max == 9
        with pytest.raises(ValueError):
            folder.result()


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
        times, values = optimal_curve(s, [gbps(10), gbps(100)], n_weeks=1)
        # Total bytes over a week: 2 * 100us at 10G + 100us at 100G.
        expected = (2 * 100e-6 * 10e9 + 100e-6 * 100e9) / 8
        assert values[-1] == pytest.approx(expected, rel=0.02)

    def test_optimal_flat_during_nights(self):
        s = self.schedule()
        times, values = optimal_curve(s, [gbps(10), gbps(100)], n_weeks=1)
        # Sample inside the first night (100..110 us).
        inside = [v for t, v in zip(times, values) if usec(101) <= t < usec(109)]
        assert max(inside) - min(inside) < 1500  # essentially flat

    def test_optimal_steeper_on_optical(self):
        s = self.schedule()
        times, values = optimal_curve(s, [gbps(10), gbps(100)], n_weeks=1)
        def slope(t0, t1):
            i0 = np.searchsorted(times, t0)
            i1 = np.searchsorted(times, t1)
            return (values[i1] - values[i0]) / (times[i1] - times[i0])
        packet_slope = slope(usec(10), usec(90))
        optical_slope = slope(usec(230), usec(310))
        assert optical_slope == pytest.approx(10 * packet_slope, rel=0.05)

    def test_constant_rate_curve(self):
        times, values = constant_rate_curve(gbps(10), usec(1000))
        assert values[0] == 0.0
        # slope = 10G/8 bytes per second.
        assert values[-1] == pytest.approx(10e9 / 8 * times[-1] / 1e9, rel=0.01)

    def test_multi_week_continuity(self):
        s = self.schedule()
        times, values = optimal_curve(s, [gbps(10), gbps(100)], n_weeks=3)
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
        week = 400  # one grid point per ns
        folder = WeekFolder(week, 1, 0, cumulative=False)
        watch_queue_length(sim, q, folder)
        q.push(Packet("a", "b", 1), sim.now)
        sim.now = 100
        q.push(Packet("a", "b", 1), sim.now)
        sim.now = 200
        q.pop()
        curve, _ = folder.result()
        assert curve == [1.0] * 100 + [2.0] * 100 + [1.0] * 200
        assert folder.max == 2

    def test_event_counter_buckets_by_week(self):
        times = [usec(50), usec(250), usec(250), usec(260)]  # weeks 0, 1, 1, 1
        assert count_per_week(times, self.WEEK_NS, total_weeks=3) == [1, 3, 0]

    def test_event_counter_warmup_skipped(self):
        times = [usec(50), usec(250), usec(999)]  # the last is past the horizon
        assert count_per_week(times, self.WEEK_NS, total_weeks=3, warmup_weeks=1) == [1, 0]

    def test_zero_days_present(self):
        assert count_per_week([], self.WEEK_NS, total_weeks=4) == [0, 0, 0, 0]
