"""The simulator: an integer-nanosecond clock driving an event queue."""

from __future__ import annotations

from heapq import heappop as _heappop
from time import perf_counter
from typing import Any, Callable, Optional

from repro.sim.events import Event, EventQueue


class Simulator:
    """Discrete-event simulator.

    Example::

        sim = Simulator()
        sim.schedule(1000, lambda: print("one microsecond in"))
        sim.run(until=1_000_000)

    Observability hooks (both optional, both None by default so the hot
    loop pays a single hoisted check):

    * ``profiler`` — duck-typed per-callback wall-time profiler
      (:class:`repro.obs.profiling.SimulatorProfiler`); set before
      :meth:`run`.
    * ``telemetry`` — set by :meth:`repro.obs.telemetry.Telemetry.attach`;
      instrumented objects discover it via ``Telemetry.of(sim)``.
    * heartbeat — :meth:`set_heartbeat` installs a worker-liveness hook
      fired every ~N processed events with
      ``(sim_now, lifetime_events, events_per_s, pending_events)``; the
      campaign layer relays it across process boundaries.
    """

    # ``sim.now`` is the single most-read attribute in the simulator;
    # slots keep that lookup off the instance-dict path.
    __slots__ = (
        "now", "_queue", "_event_count", "profiler", "telemetry",
        "_hb_fn", "_hb_every", "_hb_next", "_hb_last_events", "_hb_last_wall",
        "fluid_spans", "fluid_time_ns",
    )

    def __init__(self) -> None:
        self.now: int = 0
        self._queue = EventQueue()
        self._event_count = 0
        self.profiler: Optional[Any] = None
        self.telemetry: Optional[Any] = None
        # Tiered-fidelity accounting (repro.sim.fastpath): number of
        # fluid spans entered and total simulated time covered by them.
        # Zero on packet-fidelity runs.
        self.fluid_spans: int = 0
        self.fluid_time_ns: int = 0
        self._hb_fn: Optional[Callable[[int, int, float, int], None]] = None
        self._hb_every: int = 0
        self._hb_next: int = 1 << 62
        self._hb_last_events: int = 0
        self._hb_last_wall: float = 0.0

    def now_ns(self) -> int:
        """The clock as a method: what a congestion controller is given
        (:class:`repro.tcp.cc.base.CCClock`)."""
        return self.now

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Run ``fn(*args)`` ``delay`` ns from now. ``delay`` must be >= 0.

        Delegates to :meth:`EventQueue.push_event`; ``event.cancel()`` on
        the returned event is safe at any later point. A hot path that
        never cancels pushes through ``self._queue.push`` instead and
        allocates no event.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        return self._queue.push_event(self.now + delay, fn, args)

    def at(self, time: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Run ``fn(*args)`` at absolute simulation time ``time``."""
        if time < self.now:
            raise ValueError(f"cannot schedule at {time} < now {self.now}")
        return self._queue.push_event(time, fn, args)

    def schedule_fanout(self, delay: int, fn: Callable[[Any], Any], arg: Any) -> None:
        """Run ``fn(arg)`` ``delay`` ns from now as one leg of a fan-out.

        For a source that schedules the same kind of uncancellable
        callback once per receiver, back to back: consecutive legs with
        one fire time share one heap event
        (:meth:`EventQueue.push_fanout` states the rule). Callbacks run
        in exactly the order :meth:`schedule` would have run them; what
        differs is what counts heap events: ``processed_events`` and
        the heartbeat's pending count see the batch once, and
        ``max_events`` acts between events, so never inside a batch.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        self._queue.push_fanout(self.now + delay, fn, arg)

    # ------------------------------------------------------------------
    # Heartbeats
    # ------------------------------------------------------------------
    def set_heartbeat(self, fn: Callable[[int, int, float, int], None], every_events: int) -> None:
        """Install a liveness hook: ``fn(sim_now, lifetime_events,
        events_per_s, pending_events)`` fires every ``every_events``
        processed events (a due beat waits for the end of the current
        instant, so the cadence is approximate; events sharing a
        timestamp never split).

        The hook is None by default and its check is hoisted once per
        run, so an un-heartbeated run pays a single pointer comparison
        per event — see docs/performance.md for the measured cost.
        """
        if every_events < 1:
            raise ValueError("every_events must be >= 1")
        self._hb_fn = fn
        self._hb_every = every_events
        self._hb_next = self._event_count + every_events
        self._hb_last_events = self._event_count
        self._hb_last_wall = perf_counter()

    def flush_heartbeat(self) -> None:
        """Fire the heartbeat hook immediately (used at end of run so
        every executed run emits at least one heartbeat)."""
        if self._hb_fn is not None:
            self._fire_heartbeat(self._event_count)

    def _fire_heartbeat(self, total_events: int) -> None:
        wall = perf_counter()
        delta_wall = wall - self._hb_last_wall
        delta_events = total_events - self._hb_last_events
        events_per_s = delta_events / delta_wall if delta_wall > 0 else 0.0
        self._hb_last_events = total_events
        self._hb_last_wall = wall
        self._hb_next = total_events + self._hb_every
        self._hb_fn(self.now, total_events, events_per_s, len(self._queue))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Process events until the queue drains, ``until`` is reached, or
        ``max_events`` have fired. Returns the number of events processed.

        When the run reaches ``until`` (queue drained up to the horizon),
        the clock is advanced to ``until`` so that subsequent relative
        scheduling behaves intuitively. A run cut short by ``max_events``
        does **not** advance the clock — events are still
        pending before the horizon, and jumping past them would make them
        fire in the past (the chunked watchdog relies on this).

        The loop works on the event queue's heap directly: lazy discard
        of cancelled handle entries (never counted as processed), the
        ``until`` horizon check, and the pop are fused into one pass.
        """
        processed = 0
        profiler = self.profiler
        if profiler is not None:
            profiler.run_started()
        hb_fn = self._hb_fn
        base_events = self._event_count
        queue = self._queue
        heap = queue._heap
        heappop = _heappop
        limit = max_events if max_events is not None else (1 << 62)
        horizon = until if until is not None else (1 << 62)
        drained = False
        try:
            while True:
                if processed >= limit:
                    break
                if not heap:
                    drained = True
                    break
                time, _seq, fn, args = heap[0]
                if args is None:
                    # A handle entry: ``fn`` is the Event.
                    if fn.cancelled:
                        heappop(heap)
                        continue
                    if time > horizon:
                        drained = True
                        break
                    fn._queue = None
                    fn, args = fn.fn, fn.args
                elif time > horizon:
                    drained = True
                    break
                heappop(heap)
                queue._live -= 1
                self.now = time
                if profiler is None:
                    fn(*args)
                else:
                    started = perf_counter()
                    fn(*args)
                    profiler.record(fn, perf_counter() - started)
                processed += 1
                # Heartbeat: a cheap pointer test when no hook is
                # installed (the default); a due beat fires only between
                # timestamps, never inside one instant's events.
                if hb_fn is not None and base_events + processed >= self._hb_next:
                    if not (heap and heap[0][0] == time):
                        self._fire_heartbeat(base_events + processed)
        finally:
            self._event_count += processed
            if profiler is not None:
                profiler.run_finished(processed)
                hook = getattr(profiler, "record_event_core", None)
                if hook is not None:
                    hook(queue.stats())
        if drained and until is not None and self.now < until:
            self.now = until
        return processed

    @property
    def processed_events(self) -> int:
        return self._event_count
