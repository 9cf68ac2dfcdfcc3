"""Cancellable, restartable timers built on the simulator.

TCP code wants timers with "arm / rearm / cancel" semantics (RTO timer,
RACK reorder timer, TLP probe timer); this wrapper provides them without
each call site juggling raw events.

Restarts are lazy: TCP restarts its RTO/TLP timers on every ACK, almost
always pushing the deadline *further out*, and almost never letting the
timer actually expire. Instead of cancelling and re-inserting a heap
entry per restart, the timer keeps its scheduled event and records the
authoritative deadline; if the event fires before the deadline it
re-arms itself for the remainder (a cheap no-op event) — the callback
only ever runs at the true deadline. A restart therefore costs two
attribute writes in the common extend-the-deadline case.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.sim.events import Event
from repro.sim.simulator import Simulator


def _closed_timer(*_args: Any) -> None:
    raise RuntimeError("a closed timer fired: it was armed after close()")


class Timer:
    """A single-shot timer that can be restarted or cancelled.

    The callback fires once per arming; restarting an armed timer moves
    its deadline. The timer never fires after :meth:`cancel`.
    """

    __slots__ = ("_sim", "_fn", "_event", "_deadline", "_args", "name")

    def __init__(self, sim: Simulator, fn: Callable[..., Any], name: str = "timer"):
        self._sim = sim
        self._fn = fn
        self._event: Optional[Event] = None
        self._deadline: Optional[int] = None
        self._args: tuple = ()
        self.name = name

    @property
    def armed(self) -> bool:
        return self._deadline is not None

    @property
    def deadline(self) -> Optional[int]:
        """Absolute expiry time, or None when not armed."""
        return self._deadline

    def start(self, delay: int, *args: Any) -> None:
        """(Re)arm the timer ``delay`` ns from now."""
        self._arm(self._sim.now + delay, args)

    def _arm(self, time: int, args: tuple) -> None:
        """(Re)arm the timer at the absolute ``time``.

        Fast path first: with a live event already scheduled at or
        before the new deadline, recording the deadline is enough —
        ``_fire`` re-arms for the remainder. Only a deadline moved
        *earlier* than the scheduled event forces a cancel+reschedule.
        A deadline in the past is rejected before anything changes, so
        the timer keeps its previous arming.
        """
        sim = self._sim
        if time < sim.now:
            raise ValueError(f"cannot schedule at {time} < now {sim.now}")
        self._deadline = time
        self._args = args
        event = self._event
        if event is not None and not event.cancelled:
            if event.time <= time:
                return  # fires first; _fire re-arms for the remainder
            event.cancel()  # deadline moved earlier: must reschedule
        self._event = sim._queue.push_event(time, self._fire)

    def cancel(self) -> None:
        self._deadline = None
        self._args = ()
        event = self._event
        if event is not None:
            event.cancel()
            self._event = None

    def close(self) -> None:
        """Cancel for good and drop the callback, so the timer holds
        nothing of its owner (whose bound method the callback usually
        is). A closed timer must not be armed again; if it is, its
        expiry raises."""
        self.cancel()
        self._fn = _closed_timer

    def _fire(self) -> None:
        self._event = None
        deadline = self._deadline
        if deadline is None:
            return  # disarmed since this event was scheduled
        if deadline > self._sim.now:
            # Deadline was pushed out since: re-arm for the remainder.
            self._event = self._sim._queue.push_event(deadline, self._fire)
            return
        self._deadline = None
        args = self._args
        self._args = ()
        self._fn(*args)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.armed:
            return f"<Timer {self.name} armed deadline={self.deadline}>"
        return f"<Timer {self.name} idle>"
