"""Simulator profiling: wall-time attribution per event callback.

The ROADMAP's "as fast as the hardware allows" goal needs to know where
wall time goes; :class:`SimulatorProfiler` plugs into ``Simulator.run``
(set ``sim.profiler``) and attributes the wall time and count of every
fired event to its callback's qualified name. The run loop pays two
``perf_counter()`` calls and one dict update per event while profiling
and a single hoisted ``None`` check when not.

The report gives total events/sec plus a per-callback breakdown perf
PRs can diff against.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional
from time import perf_counter


class SimulatorProfiler:
    """Accumulates per-callback wall time across ``Simulator.run`` calls."""

    def __init__(self) -> None:
        # qualname -> [count, total_wall_seconds]
        self._stats: Dict[str, List[float]] = {}
        self.run_wall_s = 0.0
        self.events = 0
        self._run_started_at: Optional[float] = None
        # Latest event-core counter snapshot (heap pushes, peak heap
        # size — see EventQueue.stats); the simulator
        # refreshes it after every profiled run.
        self.event_core: Optional[dict] = None

    # ------------------------------------------------------------------
    # Hooks the simulator calls
    # ------------------------------------------------------------------
    def run_started(self) -> None:
        self._run_started_at = perf_counter()

    def run_finished(self, processed: int) -> None:
        if self._run_started_at is not None:
            self.run_wall_s += perf_counter() - self._run_started_at
            self._run_started_at = None
        self.events += processed

    def record_event_core(self, stats: dict) -> None:
        """Store the queue's cumulative counter snapshot (the counters
        only grow, so the latest snapshot covers all profiled runs)."""
        self.event_core = dict(stats)

    def record(self, fn: Callable[..., Any], wall_s: float) -> None:
        """Attribute one fired event to its callback."""
        key = getattr(fn, "__qualname__", None) or repr(fn)
        entry = self._stats.get(key)
        if entry is None:
            self._stats[key] = [1, wall_s]
        else:
            entry[0] += 1
            entry[1] += wall_s

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    @property
    def events_per_second(self) -> float:
        return self.events / self.run_wall_s if self.run_wall_s > 0 else 0.0

    def callback_stats(self) -> List[dict]:
        """Per-callback rows, heaviest total wall time first."""
        rows = [
            {
                "callback": name,
                "count": int(count),
                "total_s": total,
                "avg_us": (total / count) * 1e6 if count else 0.0,
            }
            for name, (count, total) in self._stats.items()
        ]
        rows.sort(key=lambda row: (-row["total_s"], row["callback"]))
        return rows

    def report(self, top: Optional[int] = None) -> str:
        """Human-readable table: totals line plus per-callback rows."""
        lines = [
            f"simulator profile: {self.events:,} events in {self.run_wall_s:.3f}s wall "
            f"({self.events_per_second:,.0f} events/s)"
        ]
        core = self.event_core
        if core is not None:
            lines.append(
                f"  event core: {core.get('heap_pushes', 0):,} heap pushes"
                f" (peak heap {core.get('max_heap_len', 0):,})"
            )
        rows = self.callback_stats()
        if top is not None:
            rows = rows[:top]
        if rows:
            callback_width = max(len(row["callback"]) for row in rows)
            callback_width = min(max(callback_width, 8), 56)
            lines.append(
                f"  {'callback':<{callback_width}} {'count':>10} {'total(s)':>10} "
                f"{'avg(us)':>9} {'share':>6}"
            )
            accounted = sum(row["total_s"] for row in self.callback_stats())
            for row in rows:
                share = row["total_s"] / accounted * 100 if accounted > 0 else 0.0
                name = row["callback"]
                if len(name) > callback_width:
                    name = name[: callback_width - 1] + "…"
                lines.append(
                    f"  {name:<{callback_width}} {row['count']:>10,} {row['total_s']:>10.3f} "
                    f"{row['avg_us']:>9.2f} {share:>5.1f}%"
                )
            overhead = self.run_wall_s - accounted
            if overhead > 0:
                lines.append(
                    f"  {'(event loop overhead)':<{callback_width}} {'':>10} {overhead:>10.3f}"
                )
        return "\n".join(lines)
