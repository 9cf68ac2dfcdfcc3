"""Disjoint byte-range set.

Shared by the receiver's reassembly buffer and the sender's SACK
scoreboard. Ranges are half-open ``[start, end)``; adjacent and
overlapping ranges merge.

The set is stored as two parallel sorted lists (``_starts``/``_ends``)
so point and cover queries are a single ``bisect`` (O(log n)) and
``add`` splices the merged neighbourhood in place instead of rebuilding
and re-sorting the whole list. Because ranges are disjoint and sorted,
both lists are individually sorted, which is what makes the bisect
queries valid.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import List, Tuple

Range = Tuple[int, int]


class RangeSet:
    """A set of disjoint, sorted, half-open integer ranges."""

    __slots__ = ("_starts", "_ends", "_cov")

    def __init__(self):
        self._starts: List[int] = []
        self._ends: List[int] = []
        self._cov = 0  # total covered integers, maintained incrementally

    def __bool__(self) -> bool:
        return bool(self._starts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RangeSet({list(zip(self._starts, self._ends))})"

    def add(self, start: int, end: int) -> Range:
        """Insert ``[start, end)``; returns the merged range it became.

        Empty ranges are ignored (returned unchanged).
        """
        if start > end:
            raise ValueError(f"invalid range [{start}, {end})")
        if start == end:
            return (start, end)
        starts = self._starts
        ends = self._ends
        # Ranges overlapping or adjacent to [start, end): those with
        # r_end >= start and r_start <= end.
        lo = bisect_left(ends, start)
        hi = bisect_right(starts, end)
        if lo < hi:
            merged_start = starts[lo]
            if start < merged_start:
                merged_start = start
            merged_end = ends[hi - 1]
            if end > merged_end:
                merged_end = end
            absorbed = 0
            for i in range(lo, hi):
                absorbed += ends[i] - starts[i]
            self._cov += (merged_end - merged_start) - absorbed
            starts[lo:hi] = (merged_start,)
            ends[lo:hi] = (merged_end,)
            return (merged_start, merged_end)
        starts.insert(lo, start)
        ends.insert(lo, end)
        self._cov += end - start
        return (start, end)

    def remove_below(self, threshold: int) -> None:
        """Drop all coverage strictly below ``threshold``."""
        starts = self._starts
        ends = self._ends
        idx = bisect_right(ends, threshold)
        if idx:
            removed = 0
            for i in range(idx):
                removed += ends[i] - starts[i]
            self._cov -= removed
            del starts[:idx]
            del ends[:idx]
        if starts and starts[0] < threshold:
            self._cov -= threshold - starts[0]
            starts[0] = threshold

    def covers(self, start: int, end: int) -> bool:
        """True when ``[start, end)`` is entirely covered by one range."""
        if start >= end:
            return True
        i = bisect_right(self._starts, start) - 1
        return i >= 0 and end <= self._ends[i]

    def coverage(self) -> int:
        """Total number of integers covered (maintained, not summed)."""
        return self._cov

    def ranges(self) -> List[Range]:
        return list(zip(self._starts, self._ends))
