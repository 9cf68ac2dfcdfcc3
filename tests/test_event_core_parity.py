"""Schedule-site parity: every path into the event core shares one body.

``EventQueue.push`` is the one schedule body: ``Simulator.schedule`` /
``at``, ``Timer``, ``schedule_fanout`` and the link and fabric hot paths
all come through it. ``Simulator.schedule`` / ``at`` and ``Timer`` do so
via ``EventQueue.push_event``, the one wrapper that hands back a
cancellable ``Event``. These tests pin the contract every path must
honour — identical ``_seq`` / ``_live`` / ``_queue`` bookkeeping — and
verify the link and fabric hot paths actually go through the shared
body, so the sites can never drift apart again.
"""

import pytest

from repro.net.link import Link
from repro.net.packet import Packet
from repro.net.queues import DropTailQueue
from repro.rdcn.fabric import NetworkPath, RackUplink
from repro.sim import Simulator, Timer
from repro.sim.events import EventQueue
from repro.units import gbps, usec


def _noop(*_args):
    pass


def _schedule_paths(sim):
    """Every public way to put an event on the queue, as
    (label, callable(time) -> Event) pairs."""
    queue = sim._queue

    def timer(t):
        armed = Timer(sim, _noop)
        armed.start(t - sim.now)
        return armed._event

    return [
        ("queue.push_event", lambda t: queue.push_event(t, _noop)),
        ("sim.schedule", lambda t: sim.schedule(t - sim.now, _noop)),
        ("sim.at", lambda t: sim.at(t, _noop)),
        ("timer.start", timer),
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
        # Events at the SAME timestamp, one per schedule path:
        # (time, seq) tie-breaking must fire them in schedule order
        # regardless of which path created each.
        sim = Simulator()
        fired = []
        queue = sim._queue
        timer = Timer(sim, fired.append)
        queue.push(50, fired.append, ("push",))
        timer.start(50, "timer")
        sim.schedule_fanout(50, fired.append, "fanout")
        sim.schedule(50, fired.append, "schedule")
        sim.at(50, fired.append, "at")
        sim.run()
        assert fired == ["push", "timer", "fanout", "schedule", "at"]

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

    def test_timer_and_fanout_live_bookkeeping(self):
        # The two paths that hand no event back: a timer's cancel and
        # restart, and fan-out legs that join one batch.
        sim = Simulator()
        queue = sim._queue
        timer = Timer(sim, _noop)
        timer.start(100)
        assert queue._live == 1
        timer.start(200)  # extended in place: no new event
        assert queue._live == 1
        timer.start(50)  # moved earlier: old event cancelled, new one live
        assert queue._live == 1
        timer.cancel()
        assert queue._live == 0
        timer.cancel()  # idempotent
        assert queue._live == 0
        for leg in range(3):
            sim.schedule_fanout(10, _noop, leg)
        assert queue._live == 1
        sim.run()
        assert queue._live == 0

    def test_drain_leaves_zero_live_on_all_paths(self):
        sim = Simulator()
        queue = sim._queue
        for _label, schedule in _schedule_paths(sim):
            schedule(sim.now + 100)
        sim.schedule_fanout(100, _noop, None)
        processed = sim.run()
        assert processed == 5
        assert queue._live == 0
        assert len(queue._heap) == 0


class TestHotSitesUseSharedBodies:
    """The former inline sites (link x3, fabric x2) must flow through
    the shared body — counted via a class-level wrapper."""

    @pytest.fixture
    def counters(self, monkeypatch):
        counts = {"push": 0}
        orig_push = EventQueue.push

        def push(self, time, fn, args=()):
            counts["push"] += 1
            return orig_push(self, time, fn, args)

        monkeypatch.setattr(EventQueue, "push", push)
        return counts

    def test_link_serialization_and_delivery(self, counters):
        # Two packets: the first takes the idle-link send() fast path,
        # the second goes FIFO -> _start_next — both former inline
        # sites, and both arrivals, must register as a push.
        sim = Simulator()
        got = []
        link = Link(sim, gbps(10), usec(5), lambda p: got.append(sim.now))
        link.send(Packet("a", "b", 1500))
        link.send(Packet("a", "b", 1500))
        sim.run()
        assert len(got) == 2
        assert counters["push"] == 4  # one per serialization, one per delivery
        assert sim.processed_events == 4  # nothing bypasses the shared body

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
        assert counters["push"] == 4  # one per _serve, one per _tx_done delivery
        assert sim.processed_events == 4
