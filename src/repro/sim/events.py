"""Event and event-queue primitives.

Events are ordered by (time, insertion sequence). The insertion sequence
guarantees that events scheduled for the same instant fire in the order
they were scheduled, which keeps simulations deterministic without
relying on heap implementation details.

The queue is one binary heap of ``(time, seq, fn, args)`` tuples: tuple
comparison runs entirely in C and never reaches ``fn`` because
``(time, seq)`` is unique, so the hot loop pays no Python-level
comparison per sift step. :meth:`EventQueue.push` is the one schedule
body and allocates nothing but the tuple: a packet hop (link, uplink,
rotor port) or a fan-out batch that nobody will cancel pushes its
callback directly.

A caller that may cancel gets an :class:`Event` handle from
:meth:`EventQueue.push_event`, the one wrapper over ``push``: the heap
entry is then ``(time, seq, event, None)`` — ``args`` of None marks a
handle entry, whose callback lives on the event so that
:meth:`Event.cancel` can drop it. A cancelled entry parked in the heap
therefore pins nothing but the empty handle.

A fan-out batch (:meth:`EventQueue.push_fanout`) is the one exception to
"one heap entry per callback": a source that schedules one uncancellable
callback per receiver for the same instant, back to back (a ToR
notifying every host of its rack), gets one heap event for the whole run
of them. The joining rule admits only legs that would have fired back to
back anyway, so the firing order is unchanged; only the event *count*
differs.
"""

from __future__ import annotations

from heapq import heappop as _heappop, heappush as _heappush
from typing import Any, Callable, Optional

_new_event = object.__new__


class Event:
    """A cancellable handle on one scheduled callback, built by
    :meth:`EventQueue.push_event`.

    User code normally only keeps a reference in order to :meth:`cancel`
    it. The event keeps a back-reference to its queue while pending, so
    cancelling it directly keeps the queue's live count exact.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "_queue")

    def cancel(self) -> None:
        """Mark the event so it is skipped when popped.

        Cancellation is O(1) and idempotent; the heap entry is lazily
        discarded by the queue, the live count is adjusted here. The
        callback and its arguments are dropped at once, so a cancelled
        entry waiting in the heap keeps nothing of its owner alive.
        """
        if self.cancelled:
            return
        self.cancelled = True
        self.fn = None
        self.args = None
        queue = self._queue
        if queue is not None:
            queue._live -= 1
            self._queue = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"<Event t={self.time} #{self.seq} {name}{state}>"


class EventQueue:
    """Min-heap of ``(time, seq, fn, args)`` entries with lazy deletion
    of cancelled handle entries."""

    __slots__ = (
        "_heap", "_seq", "_live", "_fanout_seq", "_fanout_time", "_fanout_legs",
        "heap_pushes", "max_heap_len",
    )

    def __init__(self) -> None:
        self._heap: list = []
        self._seq = 0
        self._live = 0
        # The open fan-out batch: ``_fanout_seq`` is the value ``_seq``
        # had right after the batch's event was pushed (-1: none open),
        # so any later push makes the comparison fail.
        self._fanout_seq = -1
        self._fanout_time = -1
        self._fanout_legs: list = []
        self.heap_pushes = 0
        self.max_heap_len = 0

    def __len__(self) -> int:
        return self._live

    def push(self, time: int, fn: Callable[..., Any], args: Optional[tuple] = ()) -> None:
        """Schedule ``fn(*args)`` at absolute ``time``; no handle.

        The one schedule body: ``Simulator.schedule`` / ``at``, timers,
        links, the fabric and fan-out batches all come through here.
        ``args`` of None is reserved for :meth:`push_event`'s handle
        entries.
        """
        seq = self._seq
        self._seq = seq + 1
        heap = self._heap
        _heappush(heap, (time, seq, fn, args))
        self.heap_pushes += 1
        length = len(heap)
        if length > self.max_heap_len:
            self.max_heap_len = length
        self._live += 1

    def push_event(self, time: int, fn: Callable[..., Any], args: tuple = ()) -> Event:
        """Schedule ``fn(*args)`` at absolute ``time`` through
        :meth:`push` and return the :class:`Event` that can cancel it."""
        event = _new_event(Event)
        event.time = time
        event.seq = self._seq
        event.fn = fn
        event.args = args
        event.cancelled = False
        event._queue = self
        self.push(time, event, None)
        return event

    def push_fanout(self, time: int, fn: Callable[[Any], Any], arg: Any) -> None:
        """Schedule ``fn(arg)`` at absolute ``time`` as one leg of a
        fan-out; legs cannot be cancelled, so nothing is returned.

        The leg joins the previous fan-out event iff that event was the
        most recent push (``_seq`` has not moved since) and has the same
        fire time; otherwise it opens a new event. Under that rule the
        legs of one batch would have been events with adjacent ``seq``
        and one time, which always fire back to back, so running them
        from one event is the same order. A batch closes the moment it
        fires (:meth:`_run_fanout`).
        """
        if self._seq == self._fanout_seq and time == self._fanout_time:
            self._fanout_legs.append((fn, arg))
            return
        legs = [(fn, arg)]
        self.push(time, self._run_fanout, (legs,))
        self._fanout_seq = self._seq
        self._fanout_time = time
        self._fanout_legs = legs

    def _run_fanout(self, legs: list) -> None:
        """Fire one fan-out event: every leg, in the order scheduled.

        Closes the open batch first (whichever it is — closing early
        only costs an event): a leg that schedules a fan-out for this
        same instant must open a new event, which runs after this one,
        never append to the list being consumed.
        """
        self._fanout_seq = -1
        for fn, arg in legs:
            fn(arg)

    def pop(self) -> Optional[tuple]:
        """Pop the earliest live entry as ``(time, seq, fn, args)``, or
        None if empty; a handle entry comes back with its event's
        callback and arguments.

        Cancelled entries are lazily discarded here (their live-count
        decrement already happened in :meth:`Event.cancel`)."""
        heap = self._heap
        while heap:
            time, seq, fn, args = _heappop(heap)
            if args is None:
                if fn.cancelled:
                    continue
                fn._queue = None
                fn, args = fn.fn, fn.args
            self._live -= 1
            return time, seq, fn, args
        return None

    def clear(self) -> None:
        """Drop every pending event.

        Cleared handles are marked cancelled, not merely orphaned: a
        caller that kept a reference and later calls ``cancel()`` must
        see an idempotent no-op, not a live-count decrement against
        whatever generation of the queue exists by then.
        """
        for _time, _seq, fn, args in self._heap:
            if args is None:
                fn._queue = None
                fn.cancel()
        self._heap.clear()
        self._live = 0
        self._fanout_seq = -1

    def stats(self) -> dict:
        """Event-core counters (see docs/performance.md)."""
        return {
            "heap_pushes": self.heap_pushes,
            "max_heap_len": self.max_heap_len,
            "heap_len": len(self._heap),
        }
