"""TCP connection edge cases: window limits, ACK validation, TLP,
reorder timer, partial progress."""

import pytest

from repro.net.packet import TCPSegment
from repro.sim import Simulator
from repro.tcp.config import TCPConfig
from repro.tcp.connection import ESTABLISHED, TCPConnection
from repro.tcp.sockets import create_connection_pair
from repro.units import msec, usec

from tests.helpers import bulk_pair, two_hosts


class TestAckValidation:
    def test_ack_with_nothing_outstanding_ignored(self):
        """§4.3 'all TDNs': an ACK is stale/malicious if no data is
        pending on any path."""
        sim, a, b, _ab, _ba = two_hosts()
        client, server = create_connection_pair(sim, a, b)
        sim.run(until=msec(1))
        assert client.total_packets_out() == 0
        snd_una = client.snd_una
        bogus = TCPSegment(
            b.address, a.address, sport=server.local_port, dport=client.local_port,
            ack=10 ** 9, is_ack=True,
        )
        client.receive(bogus)
        assert client.snd_una == snd_una  # untouched

    def test_ack_beyond_snd_nxt_ignored(self):
        sim, a, b, _ab, _ba = two_hosts()
        client, server = bulk_pair(sim, a, b)
        sim.run(until=msec(1))
        snd_una = client.snd_una
        bogus = TCPSegment(
            b.address, a.address, sport=server.local_port, dport=client.local_port,
            ack=client.snd_nxt + 10 ** 6, is_ack=True,
        )
        client.receive(bogus)
        assert client.snd_una == snd_una

    def test_old_ack_does_not_regress(self):
        sim, a, b, _ab, _ba = two_hosts()
        client, server = bulk_pair(sim, a, b)
        sim.run(until=msec(2))
        snd_una = client.snd_una
        old = TCPSegment(
            b.address, a.address, sport=server.local_port, dport=client.local_port,
            ack=1, is_ack=True,
        )
        client.receive(old)
        assert client.snd_una == snd_una


class TestWindows:
    def test_peer_rwnd_limits_sender(self):
        sim, a, b, _ab, _ba = two_hosts()
        cfg = TCPConfig(rwnd_packets=8, mss=1500)
        client, _server = bulk_pair(sim, a, b, config=cfg)
        sim.run(until=msec(5))
        assert client.snd_nxt - client.snd_una <= 9 * 1500

    def test_send_buffer_capacity_limits_sender(self):
        sim, a, b, ab, _ba = two_hosts()
        cfg = TCPConfig(send_buffer_packets=6, mss=1500)
        client, _server = bulk_pair(sim, a, b, config=cfg)
        sim.run(until=msec(5))
        assert client.snd_nxt - client.snd_una <= 6 * 1500

    def test_advertised_window_shrinks_with_ooo_data(self):
        sim, a, b, _ab, _ba = two_hosts()
        client, server = create_connection_pair(sim, a, b)
        sim.run(until=msec(1))
        full = server._advertised_window()
        server.recv_buffer.receive(50_000, 80_000)  # 30 KB out of order
        assert server._advertised_window() == full - 30_000

    def test_advertised_window_has_floor(self):
        sim, a, b, _ab, _ba = two_hosts()
        cfg = TCPConfig(rwnd_packets=4, mss=1500)
        client, server = create_connection_pair(sim, a, b, config=cfg)
        sim.run(until=msec(1))
        server.recv_buffer.receive(50_000, 50_000 + 100 * 1500)
        assert server._advertised_window() >= cfg.mss


class TestTLP:
    def test_tail_loss_probed_before_rto(self):
        """Drop the last segment of a burst: TLP retransmits it well
        before the RTO would."""
        sim, a, b, ab, _ba = two_hosts()
        state = {"armed": False, "dropped": 0}
        original = ab.deliver

        def drop_tail(pkt):
            if state["armed"] and pkt.payload_len and state["dropped"] < 1:
                state["dropped"] += 1
                pkt.dropped = True
                return
            original(pkt)

        ab.deliver = drop_tail
        client, server = create_connection_pair(sim, a, b)
        client.write(30_000)
        sim.run(until=msec(1))
        # Send one more segment and drop exactly it (a pure tail loss).
        state["armed"] = True
        client.write(1_500)
        sim.run(until=msec(1) + usec(800))
        assert state["dropped"] == 1
        assert client.stats.tlp_probes >= 1
        assert client.stats.rtos == 0
        sim.run(until=msec(5))
        assert server.stats.bytes_delivered == 31_500


class TestReorderTimerRecovery:
    def test_true_tail_loss_recovered_by_reorder_timer(self):
        """A dropped segment with deliveries after it, but fewer than
        dupthresh: the RACK reorder timer must still recover it."""
        sim, a, b, ab, _ba = two_hosts()
        state = {"phase": 0}
        original = ab.deliver

        def drop_one_of_three(pkt):
            # In a 3-segment tail, drop the first.
            if pkt.payload_len and state["phase"] == 1:
                state["phase"] = 2
                pkt.dropped = True
                return
            original(pkt)

        ab.deliver = drop_one_of_three
        client, server = create_connection_pair(sim, a, b)
        client.write(30_000)
        sim.run(until=msec(1))
        state["phase"] = 1
        client.write(4_500)  # 3 segments; the first is dropped
        sim.run(until=msec(8))
        assert server.stats.bytes_delivered == 34_500
        assert client.stats.retransmissions >= 1


class TestPartialProgress:
    def test_partial_ack_keeps_recovery(self):
        """Burst loss: partial ACKs advance snd_una without leaving
        recovery until high_seq is passed."""
        sim, a, b, ab, _ba = two_hosts()
        dropped = set()
        original = ab.deliver

        def drop_two(pkt):
            if pkt.payload_len and pkt.seq in (1 + 1500 * 10, 1 + 1500 * 14) \
                    and pkt.seq not in dropped:
                dropped.add(pkt.seq)
                pkt.dropped = True
                return
            original(pkt)

        ab.deliver = drop_two
        client, server = bulk_pair(sim, a, b)
        sim.run(until=msec(10))
        assert len(dropped) == 2
        assert client.stats.fast_recoveries >= 1
        assert server.recv_buffer.ooo_bytes == 0

class TestStats:
    def test_segments_sent_counts_first_transmissions(self):
        sim, a, b, _ab, _ba = two_hosts()
        client, server = create_connection_pair(sim, a, b)
        client.write(15_000)
        sim.run(until=msec(5))
        assert client.stats.segments_sent == 11  # SYN + 15000 / 1500

    def test_bytes_acked_tracks_payload(self):
        sim, a, b, _ab, _ba = two_hosts()
        client, server = create_connection_pair(sim, a, b)
        client.write(15_000)
        sim.run(until=msec(5))
        assert client.stats.bytes_acked == 15_000
