"""Trace collectors.

:class:`QueueOccupancyCollector` hooks a queue's length-change callback
and records a (time, length) step series — Figure 7b/8b/13/14 material.

:class:`EventCounterCollector` buckets timestamped events (reordering
events, retransmission marks) into per-optical-day counts for the
Figure 10 CDFs.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.net.queues import DropTailQueue
from repro.rdcn.schedule import TDNSchedule
from repro.sim.simulator import Simulator


class QueueOccupancyCollector:
    """Records every queue-length change as a step series.

    A thin adapter over the queue's multi-listener observation hook
    (:meth:`DropTailQueue.subscribe_length`), so it coexists with the
    ``queue:occupancy`` tracepoint instead of clobbering a single
    callback slot."""

    def __init__(self, sim: Simulator, queue: DropTailQueue):
        self.sim = sim
        self.queue = queue
        # Anchor the step series at the attach time, not time 0: a
        # collector attached mid-run (deferred executor attach) must not
        # claim the queue held its current length since the epoch.
        self.samples: List[Tuple[int, int]] = [(sim.now, len(queue))]
        queue.subscribe_length(self._on_change)

    def _on_change(self, length: int) -> None:
        self.samples.append((self.sim.now, length))

    def max_occupancy(self) -> int:
        return max((length for _t, length in self.samples), default=0)


class EventCounterCollector:
    """Buckets events into optical days.

    Cross-TDN reordering happens around the transition *into* the
    low-latency (optical) day, so an event at time ``t`` is attributed
    to the week containing ``t`` (equivalently, to that week's optical
    day). Days with zero events still appear in the distribution —
    crucial for the paper's "80% of transitions see no reordering".
    """

    def __init__(self, schedule: TDNSchedule):
        self.schedule = schedule
        self._buckets: Dict[int, int] = {}

    def record(self, time_ns: int, count: int = 1) -> None:
        week = time_ns // self.schedule.week_ns
        self._buckets[week] = self._buckets.get(week, 0) + count

    def record_events(self, events: List[Tuple[int, int]]) -> None:
        for time_ns, count in events:
            self.record(time_ns, count)

    def per_day_counts(self, total_weeks: int, warmup_weeks: int = 0) -> List[int]:
        """Counts per optical day across the experiment, zero-filled."""
        return [
            self._buckets.get(week, 0)
            for week in range(warmup_weeks, total_weeks)
        ]
