"""Event, channel, and event-queue primitives.

Events are ordered by (time, insertion sequence). The insertion sequence
guarantees that events scheduled for the same instant fire in the order
they were scheduled, which keeps simulations deterministic without
relying on heap implementation details.

The heap stores ``(time, seq, event)`` tuples rather than the events
themselves: tuple comparison runs entirely in C and never reaches the
event element because ``(time, seq)`` is unique, so the hot loop pays no
Python-level ``__lt__`` dispatch per sift step. ``Event`` keeps a
comparison operator only for external callers that sort event lists.

Three structural optimisations keep the heap small and the hot path
allocation-free:

* **Channels** (:class:`Channel`) — a FIFO for an event source whose
  scheduled times are monotonically non-decreasing (a link serializer,
  a propagation pipe, one TDN's circuit path). Only the channel's
  *head* lives in the global heap; the rest wait in a local deque. The
  heap therefore holds O(channels + one-shot events) entries instead of
  O(in-flight packets), every sift touches a far shallower heap, and a
  push to a busy channel is an O(1) deque append. ``seq`` is still
  assigned from the queue's global counter at push time, so the firing
  order — and every trace byte — is identical to a plain heap.

* **Event pooling** — fired, uncancelled pool-eligible events are
  recycled through a free list instead of reallocated. Each recycle
  bumps the event's ``gen`` stamp, so a holder that captured
  ``(event, gen)`` at schedule time (see :class:`repro.sim.timers.Timer`)
  can detect staleness and never cancels a recycled event by accident.
  Events handed to arbitrary callers (``EventQueue.push``,
  ``Simulator.schedule``/``at``) are *pinned* (``gen == -1``) and never
  recycled, so the public ``event.cancel()`` contract is unchanged.

* **Fan-out batches** (:meth:`EventQueue.push_fanout`) — a source that
  schedules one uncancellable callback per receiver for the same
  instant, back to back (a ToR notifying every host of its rack), gets
  one heap event for the whole run of them. The joining rule admits
  only legs that would have fired back to back anyway, so firing order
  is a plain heap's by construction; only the event *count* differs.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop as _heappop, heappush as _heappush
from typing import Any, Callable, List, Optional

_new_event = object.__new__


class Event:
    """A scheduled callback.

    Events are created through :meth:`Simulator.schedule` /
    :meth:`Simulator.at`; user code normally only keeps a reference in
    order to :meth:`cancel` it. Calling :meth:`cancel` directly is safe:
    the event keeps a back-reference to its queue so the live count
    stays exact (no separate bookkeeping call to forget).

    ``gen`` is the pooling generation stamp: ``-1`` marks a *pinned*
    event that is never recycled (everything the public scheduling APIs
    return), ``>= 0`` a pool-eligible event whose stamp increments each
    time the free list recycles it. Internal holders compare a captured
    stamp before touching the event again.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "gen", "_queue", "_channel")

    def __init__(self, time: int, seq: int, fn: Callable[..., Any], args: tuple):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.gen = -1
        self._queue: Optional["EventQueue"] = None
        self._channel: Optional["Channel"] = None

    def cancel(self) -> None:
        """Mark the event so it is skipped when popped.

        Cancellation is O(1) and idempotent; the heap (or channel
        deque) entry is lazily discarded by the queue, the live count
        is adjusted here. ``_channel`` is deliberately left intact: a
        cancelled channel head must still promote its successor when
        the heap finally discards it.
        """
        if self.cancelled:
            return
        self.cancelled = True
        queue = self._queue
        if queue is not None:
            queue._live -= 1
            self._queue = None

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"<Event t={self.time} #{self.seq} g{self.gen} {name}{state}>"


class Channel:
    """A FIFO event source with monotonically non-decreasing times.

    Created via :meth:`EventQueue.channel` / :meth:`Simulator.channel`.
    Only the earliest pending entry (the *head*) is registered in the
    owning queue's heap; later entries wait in a local deque and are
    promoted one at a time as heads leave the heap. Because entry times
    never decrease and ``seq`` is assigned from the queue's global
    counter at push time, promotion-on-pop preserves the exact global
    (time, seq) firing order of a flat heap.

    The deque stores ready-made ``(time, seq, event)`` heap entries, so
    promotion moves a tuple straight into the heap without touching the
    event object.

    Pushing a time earlier than the channel's current tail raises
    ``ValueError`` — the monotonicity contract is what makes the local
    deque sorted by construction, so a violation would silently corrupt
    event ordering and must fail loudly instead.
    """

    __slots__ = ("_queue", "_deque", "_head", "_tail_time", "name")

    def __init__(self, queue: "EventQueue", name: str = "channel"):
        self._queue = queue
        self._deque: deque = deque()
        self._head: Optional[Event] = None
        self._tail_time = -1
        self.name = name

    def __len__(self) -> int:
        """Live (non-cancelled) entries currently pending on this channel."""
        head = self._head
        count = 1 if head is not None and not head.cancelled else 0
        return count + sum(1 for entry in self._deque if not entry[2].cancelled)

    def push(self, time: int, fn: Callable[..., Any], args: tuple = ()) -> Event:
        """Schedule ``fn(*args)`` at absolute ``time`` on this channel.

        O(1) when the channel already has a registered head (the common
        case for a busy source); one shallow heap push otherwise. The
        returned event is pool-eligible: do not hold it across its fire
        time without capturing ``event.gen`` (see :class:`Event`).
        """
        queue = self._queue
        if time < self._tail_time:
            raise ValueError(
                f"channel {self.name!r}: non-monotonic push "
                f"(time {time} < tail {self._tail_time})"
            )
        self._tail_time = time
        seq = queue._seq
        queue._seq = seq + 1
        pool = queue._pool
        if pool:
            event = pool.pop()
            queue.pool_hits += 1
            event.time = time
            event.seq = seq
            event.fn = fn
            event.args = args
            event.cancelled = False
        else:
            queue.pool_misses += 1
            event = _new_event(Event)
            event.time = time
            event.seq = seq
            event.fn = fn
            event.args = args
            event.cancelled = False
            event.gen = 0
        event._queue = queue
        event._channel = self
        queue._live += 1
        entry = (time, seq, event)
        if self._head is None:
            self._head = event
            heap = queue._heap
            _heappush(heap, entry)
            queue.heap_pushes += 1
            length = len(heap)
            if length > queue.max_heap_len:
                queue.max_heap_len = length
        else:
            self._deque.append(entry)
        return event

    def _promote(self) -> None:
        """Register the next live deque entry in the global heap.

        Called (by the queue / run loop) immediately after this
        channel's previous head left the heap — whether it fired or was
        lazily discarded as cancelled. Cancelled deque entries are
        dropped here; their live-count decrement already happened in
        :meth:`Event.cancel`.
        """
        dq = self._deque
        while dq:
            entry = dq.popleft()
            event = entry[2]
            if event.cancelled:
                event._channel = None
                continue
            self._head = event
            queue = self._queue
            heap = queue._heap
            _heappush(heap, entry)
            queue.heap_pushes += 1
            length = len(heap)
            if length > queue.max_heap_len:
                queue.max_heap_len = length
            return
        self._head = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Channel {self.name} pending={len(self)}>"


class EventQueue:
    """Min-heap of ``(time, seq, Event)`` entries with lazy deletion,
    per-source channels, and an event free-list pool."""

    __slots__ = (
        "_heap", "_seq", "_live", "_pool", "_channels",
        "_fanout_seq", "_fanout_time", "_fanout_legs",
        "heap_pushes", "max_heap_len", "pool_hits", "pool_misses",
    )

    def __init__(self) -> None:
        self._heap: list = []
        self._seq = 0
        self._live = 0
        self._pool: List[Event] = []
        self._channels: List[Channel] = []
        # The open fan-out batch: ``_fanout_seq`` is the value ``_seq``
        # had right after the batch's event was pushed (-1: none open),
        # so any later push of any kind makes the comparison fail.
        self._fanout_seq = -1
        self._fanout_time = -1
        self._fanout_legs: list = []
        # Event-core counters (cheap: bumped only on actual heap pushes
        # and pool transitions, both of which the channels make rare or
        # already pay an allocation-scale cost).
        self.heap_pushes = 0
        self.max_heap_len = 0
        self.pool_hits = 0
        self.pool_misses = 0

    def __len__(self) -> int:
        return self._live

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def push(self, time: int, fn: Callable[..., Any], args: tuple = ()) -> Event:
        """Schedule ``fn(*args)`` at absolute ``time``; returns the event.

        This is THE one-shot schedule body: ``Simulator.schedule`` and
        ``Simulator.at`` delegate here (no more hand-inlined copies).
        The returned event is pinned (never pooled), so holding it and
        calling :meth:`Event.cancel` later is always safe.
        """
        seq = self._seq
        self._seq = seq + 1
        event = _new_event(Event)
        event.time = time
        event.seq = seq
        event.fn = fn
        event.args = args
        event.cancelled = False
        event.gen = -1
        event._queue = self
        event._channel = None
        heap = self._heap
        _heappush(heap, (time, seq, event))
        self.heap_pushes += 1
        length = len(heap)
        if length > self.max_heap_len:
            self.max_heap_len = length
        self._live += 1
        return event

    def push_pooled(self, time: int, fn: Callable[..., Any], args: tuple = ()) -> Event:
        """One-shot schedule through the free-list pool.

        For internal holders (timers) that guard every later access
        with a captured ``event.gen`` stamp. Arbitrary callers should
        use :meth:`push`: a pooled event's fields are recycled after it
        fires, so an unguarded ``cancel()`` could kill an unrelated
        future event.
        """
        seq = self._seq
        self._seq = seq + 1
        pool = self._pool
        if pool:
            event = pool.pop()
            self.pool_hits += 1
            event.time = time
            event.seq = seq
            event.fn = fn
            event.args = args
            event.cancelled = False
        else:
            self.pool_misses += 1
            event = _new_event(Event)
            event.time = time
            event.seq = seq
            event.fn = fn
            event.args = args
            event.cancelled = False
            event.gen = 0
        event._queue = self
        event._channel = None
        heap = self._heap
        _heappush(heap, (time, seq, event))
        self.heap_pushes += 1
        length = len(heap)
        if length > self.max_heap_len:
            self.max_heap_len = length
        self._live += 1
        return event

    def push_fanout(self, time: int, fn: Callable[[Any], Any], arg: Any) -> None:
        """Schedule ``fn(arg)`` at absolute ``time`` as one leg of a
        fan-out; legs cannot be cancelled, so nothing is returned.

        The leg joins the previous fan-out event iff that event was the
        most recent push of any kind (``_seq`` has not moved since —
        :meth:`push`, :meth:`push_pooled` and :meth:`Channel.push` all
        bump it) and has the same fire time; otherwise it opens a new
        event. Under that rule the legs of one batch would have been
        events with adjacent ``seq`` and one time, which always fire
        back to back, so running them from one event is the same order.
        A batch closes the moment it fires (:meth:`_run_fanout`).
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

    def channel(self, name: str = "channel") -> Channel:
        """Create (and register) a FIFO channel feeding this queue."""
        ch = Channel(self, name)
        self._channels.append(ch)
        return ch

    def recycle(self, event: Event) -> None:
        """Return a fired, uncancelled pool-eligible event to the pool.

        Bumps ``gen`` so stale ``(event, gen)`` holders mismatch, and
        drops the callback/args references so recycled events never pin
        packets in memory. The run loop inlines this; it is kept as the
        reference implementation (and for :meth:`pop` callers).
        """
        event.gen += 1
        event.fn = None
        event.args = None
        event._channel = None
        self._pool.append(event)

    # ------------------------------------------------------------------
    # Draining
    # ------------------------------------------------------------------
    def pop(self) -> Optional[Event]:
        """Pop the earliest non-cancelled event, or None if empty.

        Cancelled entries are lazily discarded here (their live-count
        decrement already happened in :meth:`Event.cancel`); a popped or
        discarded channel head promotes its successor into the heap.
        Popped events are NOT auto-recycled — the caller still needs
        ``fn``/``args``; hand the event to :meth:`recycle` afterwards
        if it is pool-eligible."""
        heap = self._heap
        while heap:
            event = _heappop(heap)[2]
            channel = event._channel
            if channel is not None:
                event._channel = None
                channel._promote()
            if event.cancelled:
                continue
            event._queue = None
            self._live -= 1
            return event
        return None

    def clear(self) -> None:
        """Drop every pending event, including channel-deque entries.

        Cleared events are marked cancelled, not merely orphaned: a
        caller that kept a reference and later calls ``cancel()`` must
        see an idempotent no-op, not a live-count decrement against
        whatever generation of the queue exists by then. Cleared events
        are never pooled — outstanding references may exist.
        """
        for _time, _seq, event in self._heap:
            event.cancelled = True
            event._queue = None
            event._channel = None
        self._heap.clear()
        for ch in self._channels:
            for _time, _seq, event in ch._deque:
                event.cancelled = True
                event._queue = None
                event._channel = None
            ch._deque.clear()
            ch._head = None
            ch._tail_time = -1
        self._live = 0
        self._fanout_seq = -1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Event-core counters (see docs/performance.md)."""
        hits = self.pool_hits
        total = hits + self.pool_misses
        return {
            "heap_pushes": self.heap_pushes,
            "max_heap_len": self.max_heap_len,
            "heap_len": len(self._heap),
            "pool_hits": hits,
            "pool_misses": self.pool_misses,
            "pool_hit_rate": round(hits / total, 4) if total else None,
            "pool_size": len(self._pool),
            "channels": len(self._channels),
        }
