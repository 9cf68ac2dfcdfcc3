"""reTCP: mark-driven window scaling and the dynamic-buffer controller."""

import pytest

from repro.net.packet import TCPSegment
from repro.net.queues import DropTailQueue
from repro.rdcn.fabric import NetworkPath, RackUplink
from repro.rdcn.schedule import ScheduleDriver, TDNSchedule
from repro.retcp.dynbuf import DynamicBufferController
from repro.retcp.retcp import ReTCPConnection
from repro.sim import Simulator
from repro.tcp.sockets import create_connection_pair
from repro.units import gbps, msec, usec

from tests.helpers import two_hosts


def retcp_pair(sim, a, b, **kwargs):
    client, server = create_connection_pair(
        sim, a, b, connection_cls=ReTCPConnection, **kwargs
    )
    client.start_bulk()
    return client, server


class TestRampMechanics:
    def test_ramp_up_scales_window(self):
        sim, a, b, _ab, _ba = two_hosts()
        client, _server = retcp_pair(sim, a, b, alpha=4.0)
        sim.run(until=msec(1))
        before = client.current_path.cc.cwnd
        client.ramp_up()
        assert client.current_path.cc.cwnd == pytest.approx(before * 4.0)
        assert client.circuit_active

    def test_ramp_down_restores(self):
        sim, a, b, _ab, _ba = two_hosts()
        client, _server = retcp_pair(sim, a, b, alpha=4.0)
        sim.run(until=msec(1))
        before = client.current_path.cc.cwnd
        client.ramp_up()
        client.ramp_down()
        assert client.current_path.cc.cwnd <= before
        assert not client.circuit_active

    def test_ramp_idempotent(self):
        sim, a, b, _ab, _ba = two_hosts()
        client, _server = retcp_pair(sim, a, b, alpha=4.0)
        sim.run(until=msec(1))
        client.ramp_up()
        cwnd = client.current_path.cc.cwnd
        client.ramp_up()  # no double scaling
        assert client.current_path.cc.cwnd == cwnd
        client.ramp_down()
        cwnd = client.current_path.cc.cwnd
        client.ramp_down()
        assert client.current_path.cc.cwnd == cwnd

    def test_no_ramp_during_recovery(self):
        sim, a, b, _ab, _ba = two_hosts()
        client, _server = retcp_pair(sim, a, b, alpha=4.0)
        sim.run(until=msec(1))
        path = client.current_path
        path.enter_recovery(client.snd_nxt)
        before = path.cc.cwnd
        client.ramp_up()
        assert path.cc.cwnd == before  # scaling suppressed

    def test_alpha_validation(self):
        sim, a, b, _ab, _ba = two_hosts()
        with pytest.raises(ValueError):
            ReTCPConnection(sim, a, b.address, 5001, alpha=1.0)


class TestMarkReaction:
    def _run_with_echo_pattern(self, pattern_fn):
        """Deliver ACKs with circuit_echo controlled by pattern_fn(t)."""
        sim, a, b, _ab, ba = two_hosts()
        original = ba.deliver

        def echoer(pkt):
            if pkt.is_ack:
                pkt.circuit_echo = pattern_fn(sim.now)
            original(pkt)

        ba.deliver = echoer
        client, server = retcp_pair(sim, a, b, alpha=4.0)
        return sim, client

    def test_consecutive_marks_trigger_ramp(self):
        sim, client = self._run_with_echo_pattern(lambda t: t > msec(1))
        sim.run(until=msec(1) + usec(500))
        assert client.circuit_active
        assert client.ramp_ups >= 1

    def test_single_stray_mark_ignored(self):
        # One marked ACK in a million: hysteresis ignores it.
        fired = {"done": False}

        def pattern(t):
            if not fired["done"] and t > msec(1):
                fired["done"] = True
                return True
            return False

        sim, client = self._run_with_echo_pattern(pattern)
        sim.run(until=msec(2))
        assert not client.circuit_active
        assert client.ramp_ups == 0

    def test_marks_stopping_triggers_ramp_down(self):
        sim, client = self._run_with_echo_pattern(lambda t: msec(1) < t < msec(2))
        sim.run(until=msec(3))
        assert client.ramp_ups >= 1
        assert client.ramp_downs >= 1
        assert not client.circuit_active

    def test_external_control_disables_marks(self):
        sim, client = self._run_with_echo_pattern(lambda t: t > msec(1))
        client.react_to_marks = False
        sim.run(until=msec(2))
        assert client.ramp_ups == 0


class TestDynamicBufferController:
    def _setup(self):
        sim = Simulator()
        schedule = TDNSchedule.uniform((0, 0, 1), usec(180), usec(20))
        driver = ScheduleDriver(sim, schedule)
        paths = {
            0: NetworkPath(0, gbps(10), usec(40)),
            1: NetworkPath(1, gbps(100), usec(10), is_circuit=True),
        }
        uplink = RackUplink(sim, paths, DropTailQueue(96), lambda p: None)
        controller = DynamicBufferController(
            sim, driver, [uplink],
            normal_capacity=96,
        )
        return sim, schedule, driver, uplink, controller

    def test_resizes_before_circuit_day(self):
        sim, schedule, driver, uplink, controller = self._setup()
        driver.start()
        optical_start = usec(400)  # third day
        sim.run(until=optical_start - usec(151))
        assert uplink.queue.capacity == 96
        sim.run(until=optical_start - usec(149))
        assert uplink.queue.capacity == 300

    def test_restores_after_circuit_day(self):
        sim, schedule, driver, uplink, controller = self._setup()
        driver.start()
        sim.run(until=usec(400) + usec(181))  # into the night after optical
        assert uplink.queue.capacity == 96

    def test_ramps_registered_connections(self):
        sim, schedule, driver, uplink, controller = self._setup()

        class FakeConn:
            react_to_marks = True
            ups = 0
            downs = 0

            def ramp_up(self):
                self.ups += 1

            def ramp_down(self):
                self.downs += 1

        conn = FakeConn()
        controller.register(conn)
        assert conn.react_to_marks is False
        driver.start()
        sim.run(until=usec(620))  # past the optical day and its night
        assert conn.ups == 1
        assert conn.downs == 1

    def test_repeats_weekly(self):
        sim, schedule, driver, uplink, controller = self._setup()
        driver.start()
        sim.run(until=schedule.week_ns * 3)
        assert controller.resizes == 3
