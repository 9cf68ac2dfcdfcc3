"""Packet capture and the TDTCP dissector."""

import pytest

from repro.core.tdtcp import TDTCPConnection
from repro.net.capture import CaptureRecord, PacketCapture, dissect
from repro.net.packet import Packet, TCPSegment, TDNNotification
from repro.sim import Simulator
from repro.tcp.sockets import create_connection_pair
from repro.units import msec

from tests.helpers import two_hosts


class TestDissect:
    def test_data_segment(self):
        seg = TCPSegment("r0h0", "r1h0", 10, 20, seq=3000, payload_len=1500)
        seg.data_tdn = 1
        text = dissect(seg)
        assert "TCP r0h0:10 -> r1h0:20" in text
        assert "seq=3000" in text
        assert "len=1500" in text
        assert "data_tdn=1" in text

    def test_pure_ack_with_sack(self):
        ack = TCPSegment("r1h0", "r0h0", 20, 10, ack=4500, is_ack=True)
        ack.sack_blocks = ((6000, 7500),)
        ack.ack_tdn = 0
        text = dissect(ack)
        assert "[A]" in text
        assert "ack=4500" in text
        assert "SACK{6000-7500}" in text
        assert "ack_tdn=0" in text

    def test_syn_with_td_capable(self):
        syn = TCPSegment("a", "b", 1, 2, syn=True)
        syn.td_capable_tdns = 2
        text = dissect(syn)
        assert "[S]" in text
        assert "TD_CAPABLE{num_tdns=2}" in text

    def test_notification(self):
        note = TDNNotification("tor0", "r0h0", tdn_id=1)
        assert "ICMP TDN-change" in dissect(note)
        assert "active TDN ID: 1" in dissect(note)

    def test_raw_packet(self):
        assert "RAW" in dissect(Packet("a", "b", 100))

    def test_circuit_mark_and_dss(self):
        seg = TCPSegment("a", "b", 1, 2, payload_len=100)
        seg.circuit_mark = True
        seg.dss_seq = 7
        seg.subflow_id = 1
        text = dissect(seg)
        assert "CIRCUIT-MARK" in text
        assert "DSS{seq=7}" in text
        assert "subflow=1" in text


class TestPacketCapture:
    def test_tap_records_and_forwards(self):
        sim = Simulator()
        capture = PacketCapture(sim)
        delivered = []
        deliver = capture.tap(delivered.append)
        pkt = Packet("a", "b", 100)
        deliver(pkt)
        assert delivered == [pkt]
        assert len(capture) == 1
        assert capture.records[0].packet is pkt

    def test_predicate_filters(self):
        """A capture records everything; ``segments()`` filters it."""
        sim = Simulator()
        capture = PacketCapture(sim)
        capture.observe(Packet("a", "b", 100))
        capture.observe(TCPSegment("a", "b", 1, 2))
        assert len(capture) == 2
        assert [type(r.packet) for r in capture.segments()] == [TCPSegment]

    def test_max_records(self):
        sim = Simulator()
        capture = PacketCapture(sim, max_records=2)
        for _ in range(5):
            capture.observe(Packet("a", "b", 1))
        assert len(capture) == 2
        assert capture.dropped_records == 3

    def test_live_tdtcp_capture(self):
        """Capture a real TDTCP transfer and check the dissector's view."""
        sim, a, b, ab, _ba = two_hosts()
        capture = PacketCapture(sim)
        ab.deliver = capture.tap(ab.deliver)
        client, server = create_connection_pair(
            sim, a, b, connection_cls=TDTCPConnection, tdn_count=2
        )
        client.start_bulk()
        sim.run(until=msec(2))
        data_segments = [r for r in capture.segments() if r.packet.payload_len > 0]
        assert data_segments
        # The SYN carried the TD_CAPABLE option.
        syn_texts = [str(r) for r in capture.records if getattr(r.packet, "syn", False)]
        assert any("TD_CAPABLE{num_tdns=2}" in t for t in syn_texts)
        # Data segments carry the TDN tag.
        assert any(
            "data_tdn=0" in dissect(r.packet) for r in data_segments
        )
        summary = capture.summary()
        assert "data" in summary and "TDN 0" in summary

    def test_render_limits(self):
        sim = Simulator()
        capture = PacketCapture(sim)
        for _ in range(5):
            capture.observe(Packet("a", "b", 1))
        text = capture.render(limit=2)
        assert "3 more" in text
