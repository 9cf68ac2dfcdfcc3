"""Queues: one drop-tail class with runtime-resizable capacity, optional
ECN marking and optional shared-memory backing.

The ToR virtual output queue (VOQ) in the paper is a 16-packet drop-tail
queue; ``retcpdyn`` resizes it to 50 packets ahead of the circuit day.
A switch port CE-marks ECN-capable packets above a threshold K whoever
sent them (DCTCP is the sender that asks for ECT). Both behaviours live
here so the fabric code stays small.

Real switch ASICs do not carve a fixed buffer per queue: the VOQs of one
ToR draw from one shared memory, with an admission policy deciding when
a queue may still grow (see "Analyzing DCTCP and Cubic Buffer Sharing
under Diverse Router Configurations", PAPERS.md).
:class:`SharedBufferPool` models that shared memory with three pluggable
admission policies:

* ``static`` — per-queue carving: each queue gets a fixed reservation
  (fabrics build their queues with ``pool=None`` and construct no pool).
* ``complete-sharing`` — any queue may use any free cell; a packet is
  only dropped when the whole pool is full.
* ``dynamic-threshold`` — Choudhury–Hahne dynamic thresholds: a queue
  may enqueue only while its own occupancy is below
  ``alpha × (total − used)``, so a lone hot queue can borrow most of
  the pool while competing queues converge to fair shares.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, List, Optional

from repro.net.packet import Packet

#: The admission policies a shared ToR buffer supports, in the order
#: they appear in config schemas and sweep grids.
BUFFER_POLICIES = ("static", "complete-sharing", "dynamic-threshold")


class DropTailQueue:
    """A bounded FIFO in packets with runtime-resizable capacity.

    Resizing smaller does not evict already-queued packets (matching how
    switch buffer carving behaves); it only affects future enqueues.

    ``mark_threshold`` (K): an ECN-capable packet is CE-marked when it
    arrives to an instantaneous occupancy at or above K (DCTCP-style;
    equivalently post-enqueue occupancy > K). ``None`` never marks.

    ``pool``: the queue draws from a :class:`SharedBufferPool`. The
    per-queue ``capacity`` stays enforced as a hard cap on top of pool
    admission — fabrics set it to the pool total (so the pool is the
    binding constraint) and fault injection squeezes it down exactly
    like a carved queue's. A pool-admission refusal drops the packet at
    the tail (counted in both ``drops`` and the pool's ``rejections``).

    Observation points: :meth:`subscribe_length` and
    :meth:`subscribe_drop` attach any number of listeners — the
    ``queue:occupancy`` / ``queue:drop`` tracepoints hang off these (see
    :meth:`repro.obs.telemetry.Telemetry.instrument_queue`).
    """

    # Slots: a two-rack testbed carries one VOQ per (ToR, remote rack)
    # pair plus per-host access queues, and sweep/executor runs build
    # thousands of testbeds — keeping these off the instance-dict path
    # also makes every attribute read in the inlined fabric drain a
    # slot load.
    __slots__ = (
        "capacity", "name", "mark_threshold", "pool", "_fifo", "drops",
        "enqueued", "marks", "max_occupancy", "_length_listeners",
        "_drop_listeners", "_pre_squeeze_capacity", "_squeeze_capacity",
    )

    def __init__(
        self,
        capacity: int,
        name: str = "queue",
        mark_threshold: Optional[int] = None,
        pool: Optional["SharedBufferPool"] = None,
    ):
        if capacity <= 0:
            raise ValueError("queue capacity must be positive")
        if mark_threshold is not None and mark_threshold <= 0:
            raise ValueError("mark threshold must be positive")
        self.capacity = capacity
        self.name = name
        self.mark_threshold = mark_threshold
        self.pool = pool
        self._fifo: deque[Packet] = deque()
        self.drops = 0
        self.enqueued = 0
        self.marks = 0
        self.max_occupancy = 0
        self._length_listeners: List[Callable[[int], None]] = []
        self._drop_listeners: List[Callable[[Packet], None]] = []
        self._pre_squeeze_capacity: Optional[int] = None
        self._squeeze_capacity: Optional[int] = None
        if pool is not None:
            pool.queues.append(self)

    def __len__(self) -> int:
        return len(self._fifo)

    def subscribe_length(self, fn: Callable[[int], None]) -> None:
        """Add a listener called as ``fn(length)`` after every change."""
        self._length_listeners.append(fn)

    def subscribe_drop(self, fn: Callable[[Packet], None]) -> None:
        """Add a listener called as ``fn(packet)`` on every tail drop."""
        self._drop_listeners.append(fn)

    def resize(self, capacity: int) -> None:
        """Change capacity at runtime (used by the reTCP-dyn controller).

        Clamp-composes with an active :meth:`squeeze`: the resize
        becomes the value :meth:`unsqueeze` will restore, but while the
        squeeze is in force the effective capacity stays at
        ``min(squeeze, resize)`` — a fault-injected squeeze is never
        silently overridden by the buffer controller (and the later
        unsqueeze restores the *controller's* capacity, not the stale
        pre-squeeze one).
        """
        if capacity <= 0:
            raise ValueError("queue capacity must be positive")
        if self._squeeze_capacity is not None:
            self._pre_squeeze_capacity = capacity
            self.capacity = min(self._squeeze_capacity, capacity)
        else:
            self.capacity = capacity

    def squeeze(self, capacity: int) -> None:
        """Fault-injection capacity squeeze: clamps the capacity to at
        most ``capacity`` and remembers the pre-squeeze value so
        :meth:`unsqueeze` can restore it. Re-squeezing keeps the
        original saved value; a :meth:`resize` while squeezed updates
        the saved value instead of the live capacity."""
        if capacity <= 0:
            raise ValueError("queue capacity must be positive")
        if self._pre_squeeze_capacity is None:
            self._pre_squeeze_capacity = self.capacity
        self._squeeze_capacity = capacity
        self.capacity = min(capacity, self._pre_squeeze_capacity)

    def unsqueeze(self) -> None:
        """Restore the capacity saved by :meth:`squeeze` — including
        any :meth:`resize` issued while the squeeze was in force (no-op
        if not squeezed)."""
        if self._pre_squeeze_capacity is not None:
            self.capacity = self._pre_squeeze_capacity
            self._pre_squeeze_capacity = None
            self._squeeze_capacity = None

    def push(self, packet: Packet, now: int) -> bool:
        """Enqueue; False (packet flagged, tail drop and any pool
        rejection counted) when either the per-queue cap or pool
        admission says no."""
        fifo = self._fifo
        length = len(fifo)
        pool = self.pool
        admitted = pool is None or pool.admits(length)
        if length >= self.capacity or not admitted:
            packet.dropped = True
            self.drops += 1
            if not admitted:
                # The pool refused (full, or dynamic threshold hit) —
                # counted as a pool rejection even when the per-queue
                # cap binds at the same point (fabrics default the cap
                # to the pool total, so they often coincide).
                pool.reject(self)
            for fn in self._drop_listeners:
                fn(packet)
            return False
        packet.enqueued_ns = now
        k = self.mark_threshold
        if k is not None and length >= k and packet.ecn_capable:
            packet.ce = True
            self.marks += 1
        fifo.append(packet)
        self.enqueued += 1
        if pool is not None:
            pool.acquire(self)
        length += 1
        if length > self.max_occupancy:
            self.max_occupancy = length
        for fn in self._length_listeners:
            fn(length)
        return True

    def pop(self) -> Optional[Packet]:
        fifo = self._fifo
        if not fifo:
            return None
        packet = fifo.popleft()
        for fn in self._length_listeners:
            fn(len(fifo))
        if self.pool is not None:
            self.pool.release(self)
        return packet


class SharedBufferPool:
    """One ToR's shared packet memory, drawn from by pool-backed VOQs.

    The pool counts cells (packets), mirroring how the fabric's VOQ
    capacities are expressed. A queue built with ``pool=`` joins
    ``queues`` at construction; every accepted enqueue acquires one
    cell, every dequeue releases it. Admission is decided by
    :meth:`admits` per the configured policy; a refusal is a *pool
    rejection* (counted separately from per-queue drop-tail overflows,
    and surfaced through its own listener so the ``pool:reject``
    tracepoint can hang off it).

    Like :meth:`DropTailQueue.resize`, shrinking the pool never evicts:
    ``used`` may temporarily exceed ``total`` after a shrink, during
    which every admission is refused until the backlog drains.
    """

    __slots__ = (
        "total", "policy", "alpha", "name", "used", "peak_used",
        "rejections", "queues", "_occupancy_listeners", "_reject_listeners",
    )

    def __init__(
        self,
        total: int,
        policy: str = "dynamic-threshold",
        alpha: float = 1.0,
        name: str = "pool",
    ):
        if total <= 0:
            raise ValueError("pool capacity must be positive")
        if policy not in BUFFER_POLICIES:
            raise ValueError(
                f"unknown buffer policy {policy!r}; known: {BUFFER_POLICIES}"
            )
        if alpha <= 0:
            raise ValueError("dynamic-threshold alpha must be positive")
        self.total = total
        self.policy = policy
        self.alpha = alpha
        self.name = name
        self.used = 0
        self.peak_used = 0
        self.rejections = 0
        self.queues: List[DropTailQueue] = []
        self._occupancy_listeners: List[Callable[[int], None]] = []
        self._reject_listeners: List[Callable[[str, int], None]] = []

    @property
    def free(self) -> int:
        return self.total - self.used

    def subscribe_occupancy(self, fn: Callable[[int], None]) -> None:
        """Add a listener called as ``fn(used)`` after every change."""
        self._occupancy_listeners.append(fn)

    def subscribe_reject(self, fn: Callable[[str, int], None]) -> None:
        """Add a listener called as ``fn(queue_name, queue_length)`` on
        every pool-admission refusal."""
        self._reject_listeners.append(fn)

    def admits(self, queue_length: int) -> bool:
        """Would the pool accept one more cell for a queue currently
        holding ``queue_length`` packets?"""
        free = self.total - self.used
        if free <= 0:
            return False
        if self.policy == "complete-sharing":
            return True
        # dynamic-threshold (Choudhury–Hahne): T(t) = alpha * free(t).
        # ("static" pools never reach here: static fabrics carve plain
        # per-VOQ queues and construct no pool at all.)
        return queue_length < self.alpha * free

    def acquire(self, queue: DropTailQueue) -> None:
        used = self.used + 1
        self.used = used
        if used > self.peak_used:
            self.peak_used = used
        for fn in self._occupancy_listeners:
            fn(used)

    def release(self, queue: DropTailQueue) -> None:
        self.used -= 1
        used = self.used
        for fn in self._occupancy_listeners:
            fn(used)

    def reject(self, queue: DropTailQueue) -> None:
        self.rejections += 1
        if self._reject_listeners:
            length = len(queue)
            for fn in self._reject_listeners:
                fn(queue.name, length)

    def resize_total(self, total: int) -> None:
        """Grow/shrink the shared memory at runtime (the retcpdyn
        controller's pre-circuit enlargement, pool form). Registered
        queues' per-queue hard caps track the new total so the pool
        stays the binding constraint."""
        if total <= 0:
            raise ValueError("pool capacity must be positive")
        self.total = total
        for queue in self.queues:
            queue.resize(total)

    def stable_limit(self) -> float:
        """Closed-form maximum stable occupancy of the one hot member
        queue (the tiered fluid model's analytic admission check).
        Complete sharing admits until the pool is full; dynamic
        thresholds settle where ``q = alpha * free``, i.e.
        ``q = alpha * total / (1 + alpha)``."""
        if self.policy == "complete-sharing":
            return float(self.total)
        return self.alpha * self.total / (1.0 + self.alpha)


def fluid_queue_capacity(queue: DropTailQueue) -> float:
    """Effective steady-state packet capacity of ``queue`` for the fluid
    fast path: the per-queue cap, further bounded by the shared pool's
    closed-form stable limit when the queue is pool-backed."""
    if queue.pool is not None:
        return min(queue.capacity, queue.pool.stable_limit())
    return float(queue.capacity)
