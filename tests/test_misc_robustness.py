"""Assorted robustness cases discovered during calibration, pinned."""

import pytest

from repro.core.tdtcp import TDTCPConnection
from repro.net.packet import TDNNotification
from repro.experiments.config import ExperimentConfig
from repro.tcp.config import TCPConfig
from repro.tcp.rtt import MAX_RTO_NS
from repro.tcp.sockets import create_connection_pair
from repro.units import msec, usec

from tests.helpers import assert_invariants, bulk_pair, two_hosts


class TestAccountingLeakRegressions:
    """DESIGN.md §6b item 5: the two pipe-accounting leaks, pinned."""

    def test_rto_clears_stale_retrans_out(self):
        """An RTO while retransmissions are outstanding must void their
        retrans_out so the collapsed window can still send."""
        sim, a, b, ab, _ba = two_hosts()
        client, server = bulk_pair(sim, a, b)
        sim.run(until=msec(2))
        # Drop everything for a while: losses, retransmissions, RTOs.
        original, ab.deliver = ab.deliver, lambda pkt: None
        sim.run(until=msec(8))
        ab.deliver = original
        sim.run(until=msec(40))
        assert_invariants(client)
        # The connection recovered instead of deadlocking at cwnd=1.
        assert server.recv_buffer.ooo_bytes == 0
        assert client.snd_una > 1_000_000

    def test_sack_clears_retrans_out(self):
        """A SACKed segment's outstanding retransmission leaves the
        pipe accounting (the fig-sweep wedge regression)."""
        sim, a, b, ab, _ba = two_hosts(forward_queue=16)
        client, server = bulk_pair(sim, a, b)
        sim.run(until=msec(40))
        assert_invariants(client)
        for seg in client.segments.values():
            if seg.sacked:
                assert not seg.retrans_outstanding

    def test_srtt_not_inflated_by_late_cumulative_acks(self):
        """DESIGN.md §6b item 3: recovery spanning many RTTs must not
        drag srtt up to the recovery duration."""
        sim, a, b, ab, _ba = two_hosts(forward_queue=16)
        client, server = bulk_pair(sim, a, b)
        sim.run(until=msec(40))
        # Base RTT ~40 us; with a 16-packet queue, worst honest sample
        # is well under 200 us. Recovery epochs last far longer.
        assert client.paths[0].rtt.srtt_ns < usec(400)


class TestNotificationEdgeCases:
    def test_notification_before_establishment_is_safe(self):
        sim, a, b, _ab, _ba = two_hosts()
        client, server = create_connection_pair(
            sim, a, b, connection_cls=TDTCPConnection, tdn_count=2, connect=False
        )
        a.deliver(TDNNotification("tor", a.address, tdn_id=1))
        sim.run(until=usec(10))
        assert client.current_tdn == 1
        client.connect()
        client.start_bulk()
        sim.run(until=msec(2))
        assert client.state == "established"
        assert server.stats.bytes_delivered > 0

    def test_duplicate_notifications_are_noops(self):
        sim, a, b, _ab, _ba = two_hosts()
        client, _server = create_connection_pair(
            sim, a, b, connection_cls=TDTCPConnection, tdn_count=2
        )
        sim.run(until=usec(200))
        for _ in range(5):
            a.deliver(TDNNotification("tor", a.address, tdn_id=1))
        sim.run(until=usec(210))
        assert client.tdn_state.switches == 1

    def test_rapid_flapping_notifications(self):
        """Pathological sub-RTT TDN flapping must not corrupt state."""
        sim, a, b, _ab, _ba = two_hosts()
        client, server = create_connection_pair(
            sim, a, b, connection_cls=TDTCPConnection, tdn_count=2
        )
        client.start_bulk()
        for k in range(60):
            sim.at(usec(100 + 7 * k), a.deliver, TDNNotification("tor", a.address, k % 2))
            sim.at(usec(100 + 7 * k), b.deliver, TDNNotification("tor", b.address, k % 2))
        sim.run(until=msec(5))
        assert_invariants(client)
        assert server.stats.bytes_delivered > 100_000


class TestConfigSurface:
    def test_tcp_config_validation(self):
        with pytest.raises(ValueError):
            TCPConfig(mss=0)
        with pytest.raises(ValueError):
            TCPConfig(initial_cwnd=0)
        with pytest.raises(ValueError):
            TCPConfig(min_rto_ns=0)
        with pytest.raises(ValueError):
            TCPConfig(min_rto_ns=MAX_RTO_NS + 1)
        for name in ("rwnd_packets", "send_buffer_packets"):
            for value in (0, -1):
                with pytest.raises(ValueError, match=name):
                    TCPConfig(**{name: value})
        with pytest.raises(ValueError, match="delayed_ack_ns"):
            TCPConfig(delayed_ack_ns=-1)
        TCPConfig(delayed_ack_ns=0)  # 0 is "off", not an error

    def test_negative_warmup_is_rejected(self):
        """A negative warmup would count pre-start weeks in the
        throughput denominator (a 2-week run dividing by 5 weeks)."""
        with pytest.raises(ValueError, match="warmup_weeks"):
            ExperimentConfig(weeks=2, warmup_weeks=-3)
        assert ExperimentConfig(weeks=2, warmup_weeks=0).warmup_weeks == 0

    def test_negative_warmup_is_refused_by_the_cli(self):
        from repro.experiments.cli import main

        with pytest.raises(ValueError, match="warmup_weeks"):
            main(["fig2", "--weeks", "2", "--warmup", "-3", "--flows", "1"])
