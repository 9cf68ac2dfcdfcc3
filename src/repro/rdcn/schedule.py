"""TDN schedules: days, nights, and weeks (§2.1).

A schedule is a cyclic sequence of *days* — each assigning one TDN to
the rack pair — separated by *nights* (reconfiguration blackouts during
which the fabric forwards nothing). The full cycle is a *week*.

:class:`ScheduleDriver` replays the schedule on a simulator and invokes
subscriber callbacks at day starts, day ends, and configurable lead
times before day starts (used by the reTCP-dyn buffer controller).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.obs.telemetry import Telemetry
from repro.sim.simulator import Simulator


@dataclass(frozen=True)
class Day:
    """One schedule entry: ``tdn_id`` active for ``duration_ns``,
    followed by a ``night_ns`` blackout."""

    tdn_id: int
    duration_ns: int
    night_ns: int

    def __post_init__(self) -> None:
        if self.tdn_id < 0:
            raise ValueError("TDN id must be non-negative")
        if self.duration_ns <= 0:
            raise ValueError("day duration must be positive")
        if self.night_ns < 0:
            raise ValueError("night duration cannot be negative")


class TDNSchedule:
    """A cyclic week of days.

    Time 0 is the start of the first day. ``active_at(t)`` answers which
    TDN is up at absolute time ``t`` (None during a night).
    """

    def __init__(self, days: Sequence[Day]):
        if not days:
            raise ValueError("schedule needs at least one day")
        self.days: Tuple[Day, ...] = tuple(days)
        # The week's layout, built once: (phase offset of the day's
        # start, day), in order. Every per-week walk iterates this.
        layout: List[Tuple[int, Day]] = []
        offset = 0
        for day in self.days:
            layout.append((offset, day))
            offset += day.duration_ns + day.night_ns
        self.layout: Tuple[Tuple[int, Day], ...] = tuple(layout)
        self.week_ns = offset
        # The week's non-empty segments for segment_at's bisect: their
        # phase starts, and (phase start, phase end, tdn or None) each.
        segments: List[Tuple[int, int, Optional[int]]] = []
        for start, day in layout:
            day_end = start + day.duration_ns
            segments.append((start, day_end, day.tdn_id))
            if day.night_ns > 0:
                segments.append((day_end, day_end + day.night_ns, None))
        self._segment_starts = [start for start, _end, _tdn in segments]
        self._segments = segments

    @classmethod
    def uniform(cls, pattern: Sequence[int], day_ns: int, night_ns: int) -> "TDNSchedule":
        """All days equal length — the paper's configuration."""
        return cls([Day(tdn, day_ns, night_ns) for tdn in pattern])

    @property
    def n_tdns(self) -> int:
        return max(day.tdn_id for day in self.days) + 1

    def active_at(self, time_ns: int) -> Optional[int]:
        """TDN active at absolute time, or None during a night."""
        return self.segment_at(time_ns)[2]

    def segment_at(self, time_ns: int) -> Tuple[int, int, Optional[int]]:
        """The schedule segment containing absolute time ``time_ns``:
        ``(abs_start_ns, abs_end_ns, tdn_id)`` with ``tdn_id`` None
        during a night. The end is exclusive — the next segment starts
        exactly there. Used by the tiered fluid fast path to bound
        analytic integration to a constant-rate interval."""
        if time_ns < 0:
            raise ValueError("time must be non-negative")
        week_base = (time_ns // self.week_ns) * self.week_ns
        start, end, tdn_id = self._segments[
            bisect_right(self._segment_starts, time_ns - week_base) - 1
        ]
        return (week_base + start, week_base + end, tdn_id)

    def rate_profile(self, rates_bps: Sequence[float]) -> List[Tuple[int, int, float]]:
        """(phase_start, phase_end, rate) pieces over one week, with rate
        0 during nights. Used by the analytic optimal curve."""
        pieces: List[Tuple[int, int, float]] = []
        for offset, day in self.layout:
            end = offset + day.duration_ns
            pieces.append((offset, end, rates_bps[day.tdn_id]))
            if day.night_ns > 0:
                pieces.append((end, end + day.night_ns, 0.0))
        return pieces


class ScheduleDriver:
    """Replays a :class:`TDNSchedule` on the simulator.

    Subscribers:

    * ``on_day_start(fn)`` — ``fn(tdn_id, day_index)`` when a day begins.
    * ``on_night_start(fn)`` — ``fn(day_index)`` when a blackout begins.
    * ``on_day_lead(lead_ns, fn, tdn_id)`` — ``fn(tdn_id, day_index)``
      fired ``lead_ns`` before each start of a ``tdn_id`` day (advance
      notice for the reTCP-dyn buffer controller). Lead callbacks for
      the first week fire only for days whose lead time is >= 0.
    """

    def __init__(self, sim: Simulator, schedule: TDNSchedule):
        self.sim = sim
        self.schedule = schedule
        self._day_start_fns: List[Callable[[int, int], None]] = []
        self._night_start_fns: List[Callable[[int], None]] = []
        self._lead_fns: List[Tuple[int, Callable[[int, int], None], Optional[int]]] = []
        self._started = False
        self._weeks_laid_out = 0
        self._base_ns = 0
        self.current_tdn: Optional[int] = None
        self.day_index = 0  # number of day starts so far
        # Fault-injection hook (repro.faults schedule_skew): called as
        # hook(phase, global_index, nominal_ns) -> extra delay in ns for
        # that day/night boundary. None = nominal timing.
        self.boundary_jitter = None
        # Skew can make boundaries fire out of order; stale ones are
        # counted and ignored (never raise), and the fabric resyncs on
        # the next in-order boundary.
        self.out_of_order_boundaries = 0
        self._tp_day_night = Telemetry.of(sim).tracepoint("rdcn:day_night")

    def on_day_start(self, fn: Callable[[int, int], None]) -> None:
        self._day_start_fns.append(fn)

    def on_night_start(self, fn: Callable[[int], None]) -> None:
        self._night_start_fns.append(fn)

    def on_day_lead(self, lead_ns: int, fn: Callable[[int, int], None], tdn_id: Optional[int] = None) -> None:
        if lead_ns < 0:
            raise ValueError("lead must be non-negative")
        if lead_ns >= self.schedule.week_ns:
            raise ValueError("lead must be shorter than a week")
        self._lead_fns.append((lead_ns, fn, tdn_id))

    def start(self) -> None:
        """Begin replaying the schedule from the current clock time.

        Weeks are laid out one week in advance so lead callbacks that
        cross a week boundary fire at the right time. Lead callbacks
        whose fire time would fall before the start are skipped (there
        is no "before the experiment").
        """
        if self._started:
            raise RuntimeError("schedule driver already started")
        self._started = True
        self._base_ns = self.sim.now
        self._lay_out_week(0)
        self._lay_out_week(1)
        self.sim.at(self._base_ns + self.schedule.week_ns, self._week_boundary)

    def _week_boundary(self) -> None:
        self._lay_out_week(self._weeks_laid_out)
        next_boundary = self._base_ns + (self._weeks_laid_out - 1) * self.schedule.week_ns
        self.sim.at(next_boundary, self._week_boundary)

    def _lay_out_week(self, week_number: int) -> None:
        week_start = self._base_ns + week_number * self.schedule.week_ns
        days_per_week = len(self.schedule.days)
        for local_index, (offset, day) in enumerate(self.schedule.layout):
            global_index = week_number * days_per_week + local_index
            start = week_start + offset
            jitter = self.boundary_jitter
            day_at = start
            night_at = start + day.duration_ns
            if jitter is not None:
                day_at = max(start + jitter("day", global_index, start), self.sim.now)
                night_at = max(night_at + jitter("night", global_index, night_at), self.sim.now)
            self.sim.at(day_at, self._day_start, day.tdn_id, global_index)
            if day.night_ns > 0:
                self.sim.at(night_at, self._night_start, global_index)
            for lead_ns, fn, want_tdn in self._lead_fns:
                if want_tdn is not None and day.tdn_id != want_tdn:
                    continue
                fire_at = start - lead_ns
                if fire_at >= self.sim.now:
                    self.sim.at(fire_at, fn, day.tdn_id, global_index)
        self._weeks_laid_out = week_number + 1

    def _day_start(self, tdn_id: int, global_index: int) -> None:
        if global_index + 1 <= self.day_index:
            # A skewed boundary arrived after a later one already fired:
            # applying it would roll the fabric back. Ignore and count.
            self.out_of_order_boundaries += 1
            return
        self.current_tdn = tdn_id
        self.day_index = global_index + 1
        if self._tp_day_night.enabled:
            self._tp_day_night.emit(
                self.sim.now, phase="day", tdn=tdn_id, day_index=global_index
            )
        for fn in self._day_start_fns:
            fn(tdn_id, global_index)

    def _night_start(self, global_index: int) -> None:
        if self.day_index > global_index + 1:
            # Stale night (a later day already started): ignore.
            self.out_of_order_boundaries += 1
            return
        self.current_tdn = None
        if self._tp_day_night.enabled:
            self._tp_day_night.emit(
                self.sim.now, phase="night", tdn=None, day_index=global_index
            )
        for fn in self._night_start_fns:
            fn(global_index)
