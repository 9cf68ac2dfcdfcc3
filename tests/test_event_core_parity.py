"""Schedule-site parity: every path into the event core shares one body.

PR 2 hand-inlined the schedule body at seven sites (link x3, fabric x2,
simulator x2); the channel/pool tentpole replaced all of them with three
shared primitives — ``EventQueue.push`` (pinned one-shots),
``EventQueue.push_pooled`` (pool-backed one-shots), and ``Channel.push``
(FIFO sources). These tests pin the contract every path must honour —
identical ``_seq`` / ``_live`` / ``_queue`` bookkeeping — and verify the
link and fabric hot paths actually go through the shared primitives, so
the sites can never drift apart again.
"""

import pytest

from repro.net.link import Link
from repro.net.packet import Packet
from repro.net.queues import DropTailQueue
from repro.rdcn.fabric import NetworkPath, RackUplink
from repro.sim import Simulator
from repro.sim.events import Channel, EventQueue
from repro.units import gbps, usec
from tests.helpers import PlainHeapQueue


def _noop():
    pass


def _schedule_paths(sim):
    """Every public way to put an event on the queue, as
    (label, callable(time) -> Event) pairs."""
    queue = sim._queue
    channel = sim.channel("parity")
    return [
        ("queue.push", lambda t: queue.push(t, _noop)),
        ("queue.push_pooled", lambda t: queue.push_pooled(t, _noop)),
        ("channel.push", lambda t: channel.push(t, _noop)),
        ("sim.schedule", lambda t: sim.schedule(t - sim.now, _noop)),
        ("sim.at", lambda t: sim.at(t, _noop)),
    ]


class TestScheduleParity:
    def test_identical_seq_live_queue_bookkeeping(self):
        sim = Simulator()
        queue = sim._queue
        for i, (label, schedule) in enumerate(_schedule_paths(sim)):
            seq_before = queue._seq
            live_before = queue._live
            event = schedule(100 + i)
            assert event.seq == seq_before, label
            assert queue._seq == seq_before + 1, label
            assert queue._live == live_before + 1, label
            assert event._queue is queue, label
            assert event.time == 100 + i, label
            assert not event.cancelled, label

    def test_interleaved_paths_fire_in_schedule_order(self):
        # Five events at the SAME timestamp, one per schedule path:
        # (time, seq) tie-breaking must fire them in schedule order
        # regardless of which primitive created each.
        sim = Simulator()
        fired = []
        queue = sim._queue
        channel = sim.channel("order")
        queue.push(50, fired.append, ("push",))
        queue.push_pooled(50, fired.append, ("pooled",))
        channel.push(50, fired.append, ("channel",))
        sim.schedule(50, fired.append, "schedule")
        sim.at(50, fired.append, "at")
        sim.run()
        assert fired == ["push", "pooled", "channel", "schedule", "at"]

    def test_cancel_bookkeeping_identical_across_paths(self):
        sim = Simulator()
        queue = sim._queue
        for label, schedule in _schedule_paths(sim):
            event = schedule(sim.now + 100)
            live = queue._live
            event.cancel()
            assert queue._live == live - 1, label
            event.cancel()  # idempotent on every path
            assert queue._live == live - 1, label
            assert event.cancelled, label

    def test_pinned_vs_pooled_generation_stamps(self):
        # push / schedule / at hand events to arbitrary callers: pinned
        # (gen == -1, never recycled). push_pooled / channel.push are
        # for gen-guarded holders: pool-eligible (gen >= 0).
        sim = Simulator()
        queue = sim._queue
        channel = sim.channel("gen")
        assert queue.push(10, _noop).gen == -1
        assert sim.schedule(10, _noop).gen == -1
        assert sim.at(10, _noop).gen == -1
        assert queue.push_pooled(10, _noop).gen >= 0
        assert channel.push(10, _noop).gen >= 0

    def test_drain_leaves_zero_live_on_all_paths(self):
        sim = Simulator()
        queue = sim._queue
        for _label, schedule in _schedule_paths(sim):
            schedule(sim.now + 100)
        processed = sim.run()
        assert processed == 5
        assert queue._live == 0
        assert len(queue._heap) == 0


class TestHotSitesUseSharedBodies:
    """The former inline sites (link x3, fabric x2) must flow through
    the shared primitives — counted via class-level wrappers."""

    @pytest.fixture
    def counters(self, monkeypatch):
        counts = {"push": 0, "push_pooled": 0, "channel_push": 0}
        orig_push = EventQueue.push
        orig_pooled = EventQueue.push_pooled
        orig_channel = Channel.push

        def push(self, time, fn, args=()):
            counts["push"] += 1
            return orig_push(self, time, fn, args)

        def push_pooled(self, time, fn, args=()):
            counts["push_pooled"] += 1
            return orig_pooled(self, time, fn, args)

        def channel_push(self, time, fn, args=()):
            counts["channel_push"] += 1
            return orig_channel(self, time, fn, args)

        monkeypatch.setattr(EventQueue, "push", push)
        monkeypatch.setattr(EventQueue, "push_pooled", push_pooled)
        monkeypatch.setattr(Channel, "push", channel_push)
        return counts

    def test_link_serialization_and_delivery(self, counters):
        # Two packets: the first takes the idle-link send() fast path,
        # the second goes FIFO -> _start_next — both former inline
        # sites must register as push_pooled; both arrivals must ride
        # the propagation channel.
        sim = Simulator()
        got = []
        link = Link(sim, gbps(10), usec(5), lambda p: got.append(sim.now))
        link.send(Packet("a", "b", 1500))
        link.send(Packet("a", "b", 1500))
        sim.run()
        assert len(got) == 2
        assert counters["push_pooled"] == 2  # one per serialization
        assert counters["channel_push"] == 2  # one per delivery
        assert counters["push"] == 0  # nothing bypasses to the slow path

    def test_fabric_serve_and_delivery(self, counters):
        sim = Simulator()
        got = []
        paths = {
            0: NetworkPath(0, gbps(10), usec(40), name="packet"),
            1: NetworkPath(1, gbps(100), usec(10), name="optical"),
        }
        uplink = RackUplink(sim, paths, DropTailQueue(16), lambda p: got.append(sim.now))
        uplink.set_active(0)
        uplink.enqueue(Packet("a", "b", 1500))
        uplink.enqueue(Packet("a", "b", 1500))
        sim.run()
        assert len(got) == 2
        assert counters["push_pooled"] == 2  # one per _serve
        assert counters["channel_push"] == 2  # one per _tx_done delivery
        assert counters["push"] == 0


class TestChannelSemantics:
    def test_only_head_in_heap(self):
        queue = EventQueue()
        channel = queue.channel("c")
        for t in (10, 20, 30, 40):
            channel.push(t, _noop)
        assert len(queue._heap) == 1
        assert len(channel._deque) == 3
        assert len(channel) == 4
        assert len(queue) == 4

    def test_promotion_preserves_global_order(self):
        queue = EventQueue()
        fired = []
        a = queue.channel("a")
        b = queue.channel("b")
        a.push(10, fired.append, ("a10",))
        b.push(5, fired.append, ("b5",))
        a.push(20, fired.append, ("a20",))
        b.push(15, fired.append, ("b15",))
        queue.push(12, fired.append, ("q12",))
        while True:
            event = queue.pop()
            if event is None:
                break
            event.fn(*event.args)
        assert fired == ["b5", "a10", "q12", "b15", "a20"]

    def test_non_monotonic_push_rejected(self):
        queue = EventQueue()
        channel = queue.channel("c")
        channel.push(100, _noop)
        with pytest.raises(ValueError):
            channel.push(99, _noop)
        channel.push(100, _noop)  # equal times are fine (FIFO by seq)

    def test_cancelled_head_still_promotes_successor(self):
        queue = EventQueue()
        fired = []
        channel = queue.channel("c")
        head = channel.push(10, fired.append, ("head",))
        channel.push(20, fired.append, ("next",))
        head.cancel()
        sim_popped = queue.pop()
        assert sim_popped is not None
        assert sim_popped.args == ("next",)
        assert len(queue._heap) == 0

    def test_cancelled_deque_entry_skipped(self):
        queue = EventQueue()
        channel = queue.channel("c")
        channel.push(10, _noop)
        middle = channel.push(20, _noop)
        channel.push(30, _noop)
        middle.cancel()
        times = []
        while True:
            event = queue.pop()
            if event is None:
                break
            times.append(event.time)
        assert times == [10, 30]

    def test_clear_resets_channels(self):
        queue = EventQueue()
        channel = queue.channel("c")
        channel.push(10, _noop)
        stale = channel.push(20, _noop)
        queue.clear()
        assert len(queue) == 0
        assert len(channel) == 0
        stale.cancel()  # must be a no-op against the cleared generation
        assert len(queue) == 0
        channel.push(5, _noop)  # tail time was reset: earlier is fine now
        assert queue.pop().time == 5


class TestEventPool:
    def test_fired_pooled_events_recycle_through_run_loop(self):
        # Chain one pooled event into the next: every re-schedule after
        # the first should reuse the just-fired event from the pool.
        sim = Simulator()
        queue = sim._queue
        remaining = [5]

        def tick():
            remaining[0] -= 1
            if remaining[0]:
                queue.push_pooled(sim.now + 1, tick)

        queue.push_pooled(1, tick)
        sim.run()
        stats = queue.stats()
        # Two misses: the chain's first event, plus the re-schedule
        # made *inside* the first callback (the fired event returns to
        # the pool only after its callback completes). Every later
        # re-schedule is a hit.
        assert stats["pool_misses"] == 2
        assert stats["pool_hits"] == 3
        assert stats["pool_size"] == 2

    def test_recycle_bumps_generation(self):
        queue = EventQueue()
        event = queue.push_pooled(10, _noop)
        gen = event.gen
        popped = queue.pop()
        assert popped is event
        queue.recycle(event)
        assert event.gen == gen + 1
        assert event.fn is None and event.args is None
        reused = queue.push_pooled(20, _noop)
        assert reused is event  # same object, new generation

    def test_cancelled_pooled_events_never_recycled(self):
        sim = Simulator()
        queue = sim._queue
        event = queue.push_pooled(10, _noop)
        event.cancel()
        sim.run()
        assert queue.stats()["pool_size"] == 0

    def test_pinned_events_never_pooled(self):
        sim = Simulator()
        queue = sim._queue
        sim.schedule(10, _noop)
        sim.run()
        assert queue.stats()["pool_size"] == 0


class TestPlainHeapOracle:
    def test_every_push_is_a_pinned_heap_entry(self):
        # The differential suite (test_event_core_determinism.py) is only
        # worth something if its oracle shares no channel or pool logic
        # with the product it is compared against.
        queue = PlainHeapQueue()
        channel = queue.channel("c")
        for t in (10, 20, 30):
            channel.push(t, _noop)
        queue.push_pooled(40, _noop)
        assert len(queue._heap) == 4
        assert len(channel._deque) == 0
        assert all(entry[2].gen == -1 for entry in queue._heap)
        times = []
        while True:
            event = queue.pop()
            if event is None:
                break
            times.append(event.time)
        assert times == [10, 20, 30, 40]
        assert queue.stats()["pool_hits"] == 0
        assert queue.stats()["pool_misses"] == 0
