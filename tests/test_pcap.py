"""pcap export: the file must parse as a valid capture."""

import struct

import pytest

from repro.core.tdtcp import TDTCPConnection
from repro.net.capture import PacketCapture
from repro.net.packet import Packet, TCPSegment
from repro.net.pcap import (
    EXPERIMENTAL_OPTION_KIND,
    PCAP_MAGIC,
    write_pcap,
)
from repro.sim import Simulator
from repro.tcp.sockets import create_connection_pair
from repro.units import msec

from tests.helpers import two_hosts


def parse_pcap(path):
    """Minimal pcap reader: returns (header, [(ts_us, frame_bytes)])."""
    blob = open(path, "rb").read()
    magic, major, minor, _tz, _sig, snaplen, linktype = struct.unpack("<IHHiIII", blob[:24])
    assert magic == PCAP_MAGIC
    offset = 24
    frames = []
    while offset < len(blob):
        sec, usec_, caplen, origlen = struct.unpack("<IIII", blob[offset:offset + 16])
        offset += 16
        frames.append((sec * 1_000_000 + usec_, blob[offset:offset + caplen]))
        offset += caplen
    return (major, minor, snaplen, linktype), frames


class TestPcapFormat:
    def test_header_and_record_framing(self, tmp_path):
        sim = Simulator()
        capture = PacketCapture(sim)
        capture.observe(Packet("r0h0", "r1h0", 100))
        sim.now = 2_500_000  # 2.5 ms
        capture.observe(TCPSegment("r0h0", "r1h0", 10, 20, seq=5, payload_len=10))
        path = tmp_path / "out.pcap"
        assert write_pcap(capture, path) == 2
        (major, minor, snaplen, linktype), frames = parse_pcap(path)
        assert (major, minor) == (2, 4)
        assert linktype == 1
        assert len(frames) == 2
        assert frames[1][0] == 2_500  # microseconds

    def test_ethernet_and_ip_headers(self, tmp_path):
        sim = Simulator()
        capture = PacketCapture(sim)
        capture.observe(TCPSegment("r0h3", "r1h7", 1000, 2000, seq=42, payload_len=100))
        path = tmp_path / "out.pcap"
        write_pcap(capture, path)
        _header, frames = parse_pcap(path)
        frame = frames[0][1]
        assert frame[12:14] == b"\x08\x00"  # EtherType IPv4
        ip = frame[14:]
        assert ip[0] == 0x45  # IPv4, 20-byte header
        assert ip[9] == 6     # protocol TCP
        assert ip[12:16] == bytes([10, 0, 0, 3])  # 10.rack.0.host
        assert ip[16:20] == bytes([10, 1, 0, 7])

    def test_tcp_header_fields(self, tmp_path):
        sim = Simulator()
        capture = PacketCapture(sim)
        seg = TCPSegment("r0h0", "r1h0", 1234, 5678, seq=1_000, ack=2_000,
                         is_ack=True, payload_len=0)
        capture.observe(seg)
        path = tmp_path / "out.pcap"
        write_pcap(capture, path)
        _h, frames = parse_pcap(path)
        tcp = frames[0][1][14 + 20:]
        sport, dport, seq, ack = struct.unpack("!HHII", tcp[:12])
        assert (sport, dport, seq, ack) == (1234, 5678, 1_000, 2_000)
        flags = tcp[13]
        assert flags & 0x10  # ACK bit

    def test_tdtcp_options_encoded(self, tmp_path):
        sim = Simulator()
        capture = PacketCapture(sim)
        syn = TCPSegment("r0h0", "r1h0", 1, 2, syn=True)
        syn.td_capable_tdns = 2
        data = TCPSegment("r0h0", "r1h0", 1, 2, payload_len=100)
        data.data_tdn = 1
        capture.observe(syn)
        capture.observe(data)
        path = tmp_path / "out.pcap"
        write_pcap(capture, path)
        _h, frames = parse_pcap(path)
        syn_tcp = frames[0][1][34:]
        options = syn_tcp[20:]
        assert options[0] == EXPERIMENTAL_OPTION_KIND
        assert options[2] == 0  # TD_CAPABLE subtype
        assert options[3] == 2  # num_tdns
        data_tcp = frames[1][1][34:]
        options = data_tcp[20:]
        assert options[0] == EXPERIMENTAL_OPTION_KIND
        assert options[2] == 1  # TD_DATA_ACK subtype
        assert options[4] == 1  # data_tdn

    def test_live_capture_roundtrip(self, tmp_path):
        sim, a, b, ab, _ba = two_hosts()
        capture = PacketCapture(sim, max_records=200)
        ab.deliver = capture.tap(ab.deliver)
        client, _server = create_connection_pair(
            sim, a, b, connection_cls=TDTCPConnection, tdn_count=2
        )
        client.start_bulk()
        sim.run(until=msec(1))
        path = tmp_path / "flow.pcap"
        written = write_pcap(capture, path)
        assert written == len(capture.records)
        _h, frames = parse_pcap(path)
        assert len(frames) == written
        # Timestamps are non-decreasing.
        times = [t for t, _f in frames]
        assert times == sorted(times)
