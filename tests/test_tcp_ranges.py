"""RangeSet: unit and property-based tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tcp.ranges import RangeSet


def range_set(*ranges):
    rs = RangeSet()
    for start, end in ranges:
        rs.add(start, end)
    return rs


class TestRangeSetBasics:
    def test_empty(self):
        rs = RangeSet()
        assert not rs
        assert rs.coverage() == 0
        assert rs.ranges() == []

    def test_single_add(self):
        rs = RangeSet()
        assert rs.add(10, 20) == (10, 20)
        assert rs.ranges() == [(10, 20)]
        assert rs.coverage() == 10

    def test_empty_range_ignored(self):
        rs = RangeSet()
        rs.add(5, 5)
        assert not rs

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            RangeSet().add(10, 5)

    def test_merge_overlapping(self):
        rs = range_set((0, 10), (5, 15))
        assert rs.ranges() == [(0, 15)]

    def test_merge_adjacent(self):
        rs = range_set((0, 10), (10, 20))
        assert rs.ranges() == [(0, 20)]

    def test_disjoint_stay_separate(self):
        rs = range_set((0, 10), (20, 30))
        assert rs.ranges() == [(0, 10), (20, 30)]

    def test_bridge_merge(self):
        rs = range_set((0, 10), (20, 30))
        merged = rs.add(8, 22)
        assert merged == (0, 30)
        assert rs.ranges() == [(0, 30)]

    def test_covers(self):
        rs = range_set((0, 10), (20, 30))
        assert rs.covers(2, 8)
        assert rs.covers(0, 10)
        assert not rs.covers(5, 25)
        assert rs.covers(7, 7)  # empty range trivially covered

    def test_remove_below(self):
        rs = range_set((0, 10), (20, 30))
        rs.remove_below(5)
        assert rs.ranges() == [(5, 10), (20, 30)]
        rs.remove_below(15)
        assert rs.ranges() == [(20, 30)]
        rs.remove_below(100)
        assert rs.ranges() == []

    def test_equality(self):
        assert range_set((0, 5)).ranges() == range_set((0, 3), (3, 5)).ranges()


ranges_strategy = st.lists(
    st.tuples(st.integers(0, 300), st.integers(1, 40)).map(lambda t: (t[0], t[0] + t[1])),
    min_size=0,
    max_size=25,
)


class TestRangeSetProperties:
    @given(ranges_strategy)
    @settings(max_examples=200)
    def test_invariants_sorted_disjoint_nonempty(self, ranges):
        rs = range_set(*ranges)
        out = rs.ranges()
        for start, end in out:
            assert start < end
        for (s1, e1), (s2, e2) in zip(out, out[1:]):
            assert e1 < s2  # disjoint and non-adjacent

    @given(ranges_strategy)
    @settings(max_examples=200)
    def test_coverage_matches_set_semantics(self, ranges):
        rs = range_set(*ranges)
        expected = set()
        for start, end in ranges:
            expected.update(range(start, end))
        assert rs.coverage() == len(expected)
        for point in list(expected)[:50]:
            assert rs.covers(point, point + 1)

    @given(ranges_strategy, st.integers(0, 340))
    @settings(max_examples=200)
    def test_remove_below_drops_exactly(self, ranges, threshold):
        rs = range_set(*ranges)
        expected = set()
        for start, end in ranges:
            expected.update(range(start, end))
        rs.remove_below(threshold)
        kept = {p for p in expected if p >= threshold}
        assert rs.coverage() == len(kept)

    @given(ranges_strategy)
    @settings(max_examples=100)
    def test_insertion_order_irrelevant(self, ranges):
        forward = range_set(*ranges)
        backward = range_set(*reversed(ranges))
        assert forward.ranges() == backward.ranges()


class _LinearRangeSet:
    """The pre-bisect RangeSet (sorted list, linear merge), embedded
    verbatim as the differential-testing oracle. Kept deliberately
    independent of :mod:`repro.tcp.ranges` so a bug in the bisect
    version cannot hide in a shared helper."""

    def __init__(self, ranges=()):
        self._ranges = []
        for start, end in ranges:
            self.add(start, end)

    def add(self, start, end):
        if start > end:
            raise ValueError(f"invalid range [{start}, {end})")
        if start == end:
            return (start, end)
        merged_start, merged_end = start, end
        out = []
        inserted = False
        for r_start, r_end in self._ranges:
            if r_end < merged_start or r_start > merged_end:
                if r_start > merged_end and not inserted:
                    out.append((merged_start, merged_end))
                    inserted = True
                out.append((r_start, r_end))
            else:
                merged_start = min(merged_start, r_start)
                merged_end = max(merged_end, r_end)
        if not inserted:
            out.append((merged_start, merged_end))
        out.sort()
        self._ranges = out
        return (merged_start, merged_end)

    def remove_below(self, threshold):
        out = []
        for start, end in self._ranges:
            if end <= threshold:
                continue
            out.append((max(start, threshold), end))
        self._ranges = out

    def covers(self, start, end):
        if start >= end:
            return True
        for r_start, r_end in self._ranges:
            if r_start <= start and end <= r_end:
                return True
            if r_start > start:
                break
        return False

    def coverage(self):
        return sum(end - start for start, end in self._ranges)

    def ranges(self):
        return list(self._ranges)


class TestRangeSetDifferential:
    """Seeded randomized differential test: the bisect RangeSet must
    agree with the old linear implementation on every operation of a
    10k-op random program (the tentpole swapped the implementation;
    this pins the behaviour)."""

    SPAN = 4000  # small coordinate space forces heavy merging

    @pytest.mark.parametrize("seed", [1, 7, 20260806])
    def test_10k_random_ops(self, seed):
        import random

        rng = random.Random(seed)
        fast = RangeSet()
        slow = _LinearRangeSet()
        span = self.SPAN
        for op_index in range(10_000):
            roll = rng.random()
            if roll < 0.55:
                a = rng.randrange(span)
                b = a + rng.randrange(0, 60)
                assert fast.add(a, b) == slow.add(a, b)
            elif roll < 0.65:
                t = rng.randrange(span)
                fast.remove_below(t)
                slow.remove_below(t)
            else:
                a = rng.randrange(span)
                b = a + rng.randrange(0, 80)
                assert fast.covers(a, b) == slow.covers(a, b)
            # Full-state agreement after every mutation is what makes a
            # divergence bisectable to the op that introduced it.
            assert fast.ranges() == slow.ranges(), f"divergence at op {op_index}"
            assert fast.coverage() == slow.coverage(), f"coverage drift at op {op_index}"
