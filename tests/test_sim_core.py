"""Simulator core: event queue, clock, timers, RNG, traces."""

import itertools
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import SeededRandom, Simulator, Timer


class TestEventQueue:
    """The queue is drained by :meth:`Simulator.run`, which fuses the pop."""

    def test_fifo_order_same_time(self):
        sim = Simulator()
        order = []
        q = sim._queue
        q.push(10, order.append, ("a",))
        q.push(10, order.append, ("b",))
        q.push(10, order.append, ("c",))
        assert sim.run() == 3
        assert order == ["a", "b", "c"]

    def test_time_order(self):
        sim = Simulator()
        times = []
        q = sim._queue
        q.push(30, lambda: times.append(sim.now))
        q.push_event(10, lambda: times.append(sim.now))
        q.push(20, lambda: times.append(sim.now))
        sim.run()
        assert times == [10, 20, 30]

    def test_cancelled_events_skipped(self):
        sim = Simulator()
        fired = []
        q = sim._queue
        e1 = q.push_event(10, fired.append, (10,))
        q.push(20, fired.append, (20,))
        e1.cancel()
        assert len(q) == 1
        assert sim.run() == 1
        assert fired == [20]

    def test_direct_cancel_keeps_live_count_exact(self):
        # Regression: Event.cancel() used to need a separate
        # note_cancelled() bookkeeping call on the queue; forgetting it
        # desynced len(q).
        sim = Simulator()
        q = sim._queue
        e1 = q.push_event(10, lambda: None)
        e2 = q.push_event(20, lambda: None)
        e1.cancel()
        e1.cancel()  # idempotent: must not double-decrement
        assert len(q) == 1
        e2.cancel()
        assert len(q) == 0
        assert sim.run() == 0

    def test_simulator_pending_events_after_direct_cancel(self):
        sim = Simulator()
        event = sim.schedule(100, lambda: None)
        sim.schedule(200, lambda: None)
        event.cancel()
        assert len(sim._queue) == 1
        sim.run()
        assert sim.processed_events == 1

    def test_len_counts_live(self):
        sim = Simulator()
        q = sim._queue
        q.push(1, lambda: None)
        q.push_event(2, lambda: None)
        assert len(q) == 2
        sim.run(max_events=1)
        assert len(q) == 1

    def test_push_allocates_no_handle(self):
        # A packet hop nobody cancels: the heap entry is the callback
        # itself, and the loop still fires it in (time, seq) order.
        sim = Simulator()
        fired = []
        assert sim._queue.push(20, fired.append, ("hop",)) is None
        handle = sim.schedule(10, fired.append, "handle")
        assert sorted(sim._queue._heap) == [
            (10, 1, handle, None), (20, 0, fired.append, ("hop",)),
        ]
        assert sim.run() == 2
        assert fired == ["handle", "hop"]

    def test_cancel_releases_the_callback(self):
        # A cancelled entry stays in the heap until the loop reaches
        # it; it must not keep the callback's owner alive meanwhile.
        class Owner:
            def fire(self):
                raise AssertionError("a cancelled event fired")

        sim = Simulator()
        owner, timed = Owner(), Owner()
        refs = [weakref.ref(owner), weakref.ref(timed)]
        event = sim.schedule(1_000, owner.fire)
        timer = Timer(sim, timed.fire)
        timer.start(500)
        event.cancel()
        timer.cancel()
        del owner, timed, timer
        assert [ref() for ref in refs] == [None, None]
        assert len(sim._queue._heap) == 2  # both entries still parked
        assert sim.run() == 0


class TestSimulator:
    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(500, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [500]
        assert sim.now == 500

    def test_run_until_advances_clock(self):
        sim = Simulator()
        sim.run(until=1_000)
        assert sim.now == 1_000

    def test_run_until_leaves_future_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(2_000, lambda: fired.append(True))
        sim.run(until=1_000)
        assert not fired
        assert len(sim._queue) == 1
        sim.run(until=3_000)
        assert fired

    def test_schedule_in_past_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-1, lambda: None)

    def test_at_in_past_rejected(self):
        sim = Simulator()
        sim.run(until=100)
        with pytest.raises(ValueError):
            sim.at(50, lambda: None)

    def test_cancel(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(10, lambda: fired.append(True))
        event.cancel()
        sim.run()
        assert not fired

    def test_max_events(self):
        sim = Simulator()
        fired = []
        for i in range(5):
            sim.schedule(i + 1, lambda i=i: fired.append(i))
        processed = sim.run(max_events=3)
        assert processed == 3
        assert fired == [0, 1, 2]

    def test_nested_scheduling(self):
        sim = Simulator()
        seen = []

        def outer():
            seen.append(("outer", sim.now))
            sim.schedule(5, inner)

        def inner():
            seen.append(("inner", sim.now))

        sim.schedule(10, outer)
        sim.run()
        assert seen == [("outer", 10), ("inner", 15)]

    def test_processed_events_counter(self):
        sim = Simulator()
        for i in range(4):
            sim.schedule(i, lambda: None)
        sim.run()
        assert sim.processed_events == 4


def _fanout_op(depth):
    """One scheduling op: (kind, delay, which-of-two, ops issued when it fires)."""
    children = st.just(()) if depth == 0 else st.lists(_fanout_op(depth - 1), max_size=4).map(tuple)
    return st.tuples(
        st.sampled_from(["schedule", "fanout", "fanout", "timer"]),
        st.sampled_from([0, 0, 1, 1, 2, 5]),  # few distinct delays: many same-time ties
        st.integers(0, 1),
        children,
    )


def _run_fanout_program(program, coalesce):
    """Interpret ``program``; with ``coalesce`` False every
    ``schedule_fanout`` is a plain ``schedule``. Returns the fired
    ``(time, callback, arg)`` sequence and the processed-event count."""
    sim = Simulator()
    fired = []
    labels = itertools.count()

    def callback(name):
        def fire(node):
            label, children = node
            fired.append((sim.now, name, label))
            issue(children)
        return fire

    callbacks = [callback("a"), callback("b")]
    timers = [Timer(sim, callbacks[0]), Timer(sim, callbacks[1])]

    def issue(ops):
        for kind, delay, which, children in ops:
            node = (next(labels), children)
            if kind == "fanout" and coalesce:
                sim.schedule_fanout(delay, callbacks[which], node)
            elif kind in ("schedule", "fanout"):
                sim.schedule(delay, callbacks[which], node)
            else:
                timers[which].start(delay, node)

    issue(program)
    sim.run()
    assert len(sim._queue) == 0
    return fired, sim.processed_events


class TestScheduleFanout:
    """``schedule_fanout`` runs callbacks exactly when and in the order
    ``schedule`` would; only the number of heap events differs."""

    @given(st.lists(_fanout_op(3), min_size=1, max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_same_sequence_as_plain_schedule(self, program):
        as_written, fanout_events = _run_fanout_program(program, coalesce=True)
        reference, plain_events = _run_fanout_program(program, coalesce=False)
        assert as_written == reference
        assert fanout_events <= plain_events

    def test_consecutive_legs_share_one_event(self):
        sim = Simulator()
        seen = []
        for leg in range(16):
            sim.schedule_fanout(10, seen.append, leg)
        assert len(sim._queue) == 1
        assert sim.run() == 1
        assert seen == list(range(16))

    @pytest.mark.parametrize("intervening", ["schedule", "timer", "fanout_other_time"])
    def test_any_intervening_push_splits_the_batch(self, intervening):
        sim = Simulator()
        seen = []
        timer = Timer(sim, seen.append)
        sim.schedule_fanout(10, seen.append, "first")
        if intervening == "schedule":
            sim.schedule(10, seen.append, "between")
        elif intervening == "timer":
            timer.start(10, "between")
        else:
            sim.schedule_fanout(11, seen.append, "between")
        sim.schedule_fanout(10, seen.append, "second")
        assert len(sim._queue) == 3
        sim.run()
        if intervening == "fanout_other_time":
            assert seen == ["first", "second", "between"]
        else:
            assert seen == ["first", "between", "second"]

    def test_different_time_opens_a_new_event(self):
        sim = Simulator()
        seen = []
        sim.schedule_fanout(10, seen.append, "a")
        sim.schedule_fanout(20, seen.append, "b")
        sim.schedule_fanout(20, seen.append, "c")
        assert len(sim._queue) == 2
        sim.run(until=15)
        assert seen == ["a"]
        sim.run()
        assert seen == ["a", "b", "c"]

    def test_zero_delay_leg_from_a_firing_batch_runs_after_it(self):
        # The firing batch is still the most recent push and has this
        # very fire time: the new leg must not join the consumed list.
        sim = Simulator()
        seen = []

        def leg(name):
            seen.append(name)
            if name in ("a", "b"):
                sim.schedule_fanout(0, leg, name + "'")

        for name in ("a", "b", "c"):
            sim.schedule_fanout(5, leg, name)
        assert sim.run() == 2
        assert seen == ["a", "b", "c", "a'", "b'"]
        assert sim.now == 5

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule_fanout(-1, print, None)
        assert len(sim._queue) == 0


class TestTimer:
    def test_a_timer_armed_after_close_raises_when_it_fires(self):
        sim = Simulator()
        timer = Timer(sim, lambda: None)
        timer.close()
        timer.start(10)
        with pytest.raises(RuntimeError, match="armed after close"):
            sim.run()

    def test_fires_once(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(100)
        sim.run()
        assert fired == [100]
        assert not timer.armed

    def test_restart_moves_deadline(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(100)
        timer.start(200)
        sim.run()
        assert fired == [200]

    def test_cancel(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(True))
        timer.start(100)
        timer.cancel()
        sim.run()
        assert not fired

    def test_start_at_absolute(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        sim.run(until=7)
        timer._arm(77, ())
        sim.run()
        assert fired == [77]

    def test_args_passed(self):
        sim = Simulator()
        got = []
        timer = Timer(sim, lambda x, y: got.append((x, y)))
        timer.start(10, "a", 3)
        sim.run()
        assert got == [("a", 3)]


@pytest.mark.parametrize("mode", ["start", "start_at"])
class TestTimerArmParity:
    """``Timer.start`` (relative) arms through ``Timer._arm`` (absolute);
    this parameterized suite pins that both spellings behave
    identically — fast path, reschedule, cancel, and validation."""

    @staticmethod
    def _arm(timer, sim, at, mode, *args):
        if mode == "start":
            timer.start(at - sim.now, *args)
        else:
            timer._arm(at, args)

    def test_fires_at_deadline(self, mode):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        self._arm(timer, sim, 100, mode)
        sim.run()
        assert fired == [100]
        assert not timer.armed

    def test_extend_deadline_fast_path_keeps_event(self, mode):
        # Extending the deadline must NOT consume a new event: the
        # armed event fires first and _fire re-arms for the remainder.
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        self._arm(timer, sim, 100, mode)
        event = timer._event
        seq_after_arm = sim._queue._seq
        self._arm(timer, sim, 250, mode)
        assert timer._event is event  # same scheduled event
        assert sim._queue._seq == seq_after_arm  # no new event consumed
        assert timer._deadline == 250
        sim.run()
        assert fired == [250]

    def test_move_deadline_earlier_reschedules(self, mode):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        self._arm(timer, sim, 200, mode)
        first_event = timer._event
        self._arm(timer, sim, 100, mode)
        assert first_event.cancelled  # old event dead, exactly one fire
        assert timer._event is not first_event
        sim.run()
        assert fired == [100]

    def test_cancel_prevents_fire(self, mode):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(True))
        self._arm(timer, sim, 100, mode)
        timer.cancel()
        assert not timer.armed
        sim.run()
        assert not fired

    def test_rearm_replaces_args(self, mode):
        sim = Simulator()
        got = []
        timer = Timer(sim, lambda x: got.append(x))
        self._arm(timer, sim, 100, mode, "stale")
        self._arm(timer, sim, 200, mode, "fresh")
        sim.run()
        assert got == ["fresh"]

    def test_past_deadline_rejected(self, mode):
        sim = Simulator()
        sim.run(until=1_000)
        timer = Timer(sim, lambda: None)
        with pytest.raises(ValueError):
            self._arm(timer, sim, 500, mode)

    def test_rejected_deadline_keeps_the_previous_arming(self, mode):
        # A past deadline is refused before the timer changes: the
        # valid arming it already had still fires, with its args.
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda *args: fired.append((sim.now, args)))
        self._arm(timer, sim, 500, mode, "kept")
        sim.run(until=100)
        with pytest.raises(ValueError):
            self._arm(timer, sim, 50, mode, "refused")
        assert timer.armed and timer._deadline == 500
        sim.run()
        assert fired == [(500, ("kept",))]


class TestSeededRandom:
    def test_deterministic(self):
        a = SeededRandom(42)
        b = SeededRandom(42)
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_fork_independent_and_stable(self):
        a1 = SeededRandom(42).fork("x")
        a2 = SeededRandom(42).fork("x")
        b = SeededRandom(42).fork("y")
        seq1 = [a1.random() for _ in range(3)]
        assert seq1 == [a2.random() for _ in range(3)]
        assert seq1 != [b.random() for _ in range(3)]

    def test_chance_extremes(self):
        rng = SeededRandom(1)
        assert rng.chance(0.0) is False
        assert rng.chance(1.0) is True

    def test_jitter_bounds(self):
        rng = SeededRandom(1)
        for _ in range(50):
            assert 0 <= rng.jitter_ns(100) <= 100
        assert rng.jitter_ns(0) == 0
