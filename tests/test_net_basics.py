"""Network substrate: addressing, packets, links, queues, hosts,
switches."""

import pytest

from repro.net.addressing import FlowKey, host_address, host_index_of, rack_of
from repro.net.link import Link
from repro.net.node import Host
from repro.net.packet import (
    ETH_IP_TCP_HEADER,
    Packet,
    TCPSegment,
    TDNNotification,
)
from repro.net.queues import DropTailQueue
from repro.net.switch import ToRSwitch
from repro.sim import Simulator
from repro.units import gbps, usec

from tests.helpers import BoundedLink


class TestAddressing:
    def test_host_address_roundtrip(self):
        addr = host_address(1, 7)
        assert addr == "r1h7"
        assert rack_of(addr) == 1
        assert host_index_of(addr) == 7

    def test_rack_of_rejects_garbage(self):
        with pytest.raises(ValueError):
            rack_of("nonsense")


class TestPackets:
    def test_data_segment_size_includes_headers(self):
        seg = TCPSegment("a", "b", 1, 2, seq=0, payload_len=1500)
        assert seg.size == ETH_IP_TCP_HEADER + 1500
        assert seg.end_seq == 1500

    def test_pure_ack_is_small(self):
        ack = TCPSegment("a", "b", 1, 2, ack=100, is_ack=True)
        assert ack.size == ETH_IP_TCP_HEADER
        assert ack.payload_len == 0

    def test_option_sizes_grow_wire_size(self):
        seg = TCPSegment("a", "b", 1, 2, payload_len=100)
        base = seg.size
        seg.sack_blocks = ((0, 10), (20, 30))
        seg.data_tdn = 1
        seg.add_option_sizes()
        assert seg.size > base

    def test_unique_packet_ids(self):
        a = Packet("a", "b", 100)
        b = Packet("a", "b", 100)
        assert a.pid != b.pid

    def test_notification_carries_tdn(self):
        n = TDNNotification("tor0", "r0h0", tdn_id=1, created_ns=5)
        assert n.tdn_id == 1
        assert n.generated_ns == 5
        assert n.size > 0


class TestLink:
    def test_delivery_timing(self):
        sim = Simulator()
        got = []
        link = Link(sim, gbps(10), usec(10), lambda p: got.append(sim.now))
        link.send(Packet("a", "b", 1500))
        sim.run()
        # 1.2 us serialization + 10 us propagation.
        assert got == [11_200]

    def test_serializes_one_at_a_time(self):
        sim = Simulator()
        got = []
        link = Link(sim, gbps(10), 0, lambda p: got.append(sim.now))
        link.send(Packet("a", "b", 1500))
        link.send(Packet("a", "b", 1500))
        sim.run()
        assert got == [1200, 2400]

    def test_bounded_queue_drops_and_flags(self):
        sim = Simulator()
        link = BoundedLink(sim, gbps(1), 0, lambda p: None, capacity=1)
        p1, p2, p3 = (Packet("a", "b", 1500) for _ in range(3))
        assert link.send(p1) is True   # starts serializing
        assert link.send(p2) is True   # queued
        assert link.send(p3) is False  # dropped
        assert p3.dropped is True
        assert link.drops == 1

    def test_counters(self):
        sim = Simulator()
        link = Link(sim, gbps(10), 0, lambda p: None)
        link.send(Packet("a", "b", 100))
        link.send(Packet("a", "b", 200))
        sim.run()
        assert link.tx_packets == 2
        assert link.tx_bytes == 300

    def test_rejects_bad_parameters(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Link(sim, 0, 0, lambda p: None)
        with pytest.raises(ValueError):
            Link(sim, gbps(1), -5, lambda p: None)


class TestDropTailQueue:
    def test_fifo(self):
        q = DropTailQueue(4)
        packets = [Packet("a", "b", 1) for _ in range(3)]
        for p in packets:
            assert q.push(p, now=0)
        assert [q.pop() for _ in range(3)] == packets
        assert q.pop() is None

    def test_overflow_drops(self):
        q = DropTailQueue(2)
        assert q.push(Packet("a", "b", 1), 0)
        assert q.push(Packet("a", "b", 1), 0)
        victim = Packet("a", "b", 1)
        assert not q.push(victim, 0)
        assert victim.dropped
        assert q.drops == 1

    def test_resize_bigger_accepts_more(self):
        q = DropTailQueue(1)
        q.push(Packet("a", "b", 1), 0)
        assert not q.push(Packet("a", "b", 1), 0)
        q.resize(3)
        assert q.push(Packet("a", "b", 1), 0)

    def test_resize_smaller_does_not_evict(self):
        q = DropTailQueue(4)
        for _ in range(4):
            q.push(Packet("a", "b", 1), 0)
        q.resize(2)
        assert len(q) == 4  # existing occupants stay
        assert not q.push(Packet("a", "b", 1), 0)

    def test_length_change_observer(self):
        q = DropTailQueue(4)
        lengths = []
        q.subscribe_length(lengths.append)
        q.push(Packet("a", "b", 1), 0)
        q.push(Packet("a", "b", 1), 0)
        q.pop()
        assert lengths == [1, 2, 1]

    def test_max_occupancy_tracked(self):
        q = DropTailQueue(4)
        for _ in range(3):
            q.push(Packet("a", "b", 1), 0)
        q.pop()
        assert q.max_occupancy == 3

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            DropTailQueue(0)


class TestECNMarkingQueue:
    def test_marks_above_threshold_for_capable_packets(self):
        q = DropTailQueue(10, mark_threshold=2)
        packets = []
        for _ in range(4):
            p = Packet("a", "b", 1)
            p.ecn_capable = True
            q.push(p, 0)
            packets.append(p)
        assert [p.ce for p in packets] == [False, False, True, True]
        assert q.marks == 2

    def test_ignores_non_capable(self):
        q = DropTailQueue(10, mark_threshold=1)
        for _ in range(3):
            q.push(Packet("a", "b", 1), 0)
        assert q.marks == 0


class TestHost:
    def test_demux_to_connection(self):
        sim = Simulator()
        host = Host(sim, "r0h0")
        got = []

        class Conn:
            def receive(self, pkt):
                got.append(pkt)

        seg = TCPSegment("r1h0", "r0h0", sport=5, dport=6)
        # The demux key is the receiver's view of the 4-tuple.
        host.register_connection(FlowKey("r0h0", 6, "r1h0", 5), Conn())
        host.deliver(seg)
        assert got == [seg]

    def test_unmatched_segment_dropped_silently(self):
        sim = Simulator()
        host = Host(sim, "r0h0")
        host.deliver(TCPSegment("r1h0", "r0h0", sport=5, dport=6))  # no raise

    def test_duplicate_registration_rejected(self):
        sim = Simulator()
        host = Host(sim, "r0h0")
        key = FlowKey("r0h0", 1, "r1h0", 2)
        host.register_connection(key, object())
        with pytest.raises(ValueError):
            host.register_connection(key, object())

    def test_notification_fanout(self):
        sim = Simulator()
        host = Host(sim, "r0h0")
        seen = []
        host.subscribe_tdn_changes(lambda n: seen.append(n.tdn_id))
        host.subscribe_tdn_changes(lambda n: seen.append(n.tdn_id * 10))
        host.deliver(TDNNotification("tor", "r0h0", tdn_id=1))
        sim.run()
        assert seen == [1, 10]

    def test_notification_processing_delay(self):
        sim = Simulator()
        host = Host(sim, "r0h0")
        host.notification_processing_ns = 500
        seen = []
        host.subscribe_tdn_changes(lambda n: seen.append(sim.now))
        host.deliver(TDNNotification("tor", "r0h0", tdn_id=0))
        sim.run()
        assert seen == [500]

    def test_send_requires_egress(self):
        sim = Simulator()
        host = Host(sim, "r0h0")
        with pytest.raises(RuntimeError):
            host.send(Packet("r0h0", "r1h0", 100))

    def test_port_allocation_unique(self):
        sim = Simulator()
        host = Host(sim, "r0h0")
        ports = {host.allocate_port() for _ in range(10)}
        assert len(ports) == 10


class TestSwitches:

    def test_tor_local_delivery(self):
        sim = Simulator()
        tor = ToRSwitch(sim, rack=0)
        got = []
        link = Link(sim, gbps(10), 0, lambda p: got.append(p))
        tor.add_downlink("r0h0", link)
        pkt = Packet("r0h1", "r0h0", 100)
        tor.forward(pkt)
        sim.run()
        assert got == [pkt]
        assert tor.forwarded_local == 1

    def test_tor_fabric_forwarding(self):
        sim = Simulator()
        tor = ToRSwitch(sim, rack=0)
        sent = []

        class FakeUplink:
            def enqueue(self, packet):
                sent.append(packet)
                return True

        tor.add_uplink(1, FakeUplink())
        pkt = Packet("r0h0", "r1h3", 100)
        tor.forward(pkt)
        assert sent == [pkt]
        assert tor.forwarded_fabric == 1

    def test_tor_rejects_foreign_downlink(self):
        sim = Simulator()
        tor = ToRSwitch(sim, rack=0)
        with pytest.raises(ValueError):
            tor.add_downlink("r1h0", Link(sim, gbps(1), 0, lambda p: None))

    def test_tor_missing_uplink(self):
        sim = Simulator()
        tor = ToRSwitch(sim, rack=0)
        with pytest.raises(KeyError):
            tor.forward(Packet("r0h0", "r1h0", 100))

