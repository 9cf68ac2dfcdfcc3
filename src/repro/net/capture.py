"""Packet capture and dissection.

The paper's artifact ships a Wireshark build with a TDTCP protocol
dissector as its debugging tool; this module is that tool's simulator
counterpart. A :class:`PacketCapture` taps any delivery point (link,
host, uplink) and records structured capture records; :func:`dissect`
renders one packet the way the dissector would — TCP flags, SACK
blocks, and the TD_CAPABLE / TD_DATA_ACK options of Figure 5.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.net.packet import Packet, TCPSegment, TDNNotification
from repro.sim.simulator import Simulator


@dataclass
class CaptureRecord:
    """One captured packet with its capture timestamp."""

    time_ns: int
    packet: Packet

    def __str__(self) -> str:
        return f"{self.time_ns / 1000:10.2f}us  {dissect(self.packet)}"


class PacketCapture:
    """Tap a delivery callable and record everything passing through.

    Example::

        capture = PacketCapture(sim)
        link.deliver = capture.tap(link.deliver)
    """

    def __init__(
        self,
        sim: Simulator,
        max_records: Optional[int] = None,
    ):
        self.sim = sim
        self.max_records = max_records
        self.records: List[CaptureRecord] = []
        self.dropped_records = 0

    def tap(self, deliver: Callable[[Packet], None]) -> Callable[[Packet], None]:
        """Wrap ``deliver`` so every packet is recorded, then passed on."""

        def tapped(packet: Packet) -> None:
            self.observe(packet)
            deliver(packet)

        return tapped

    def observe(self, packet: Packet) -> None:
        """Record a packet without forwarding it anywhere."""
        if self.max_records is not None and len(self.records) >= self.max_records:
            self.dropped_records += 1
            return
        self.records.append(CaptureRecord(self.sim.now, packet))

    # ------------------------------------------------------------------
    # Analysis helpers
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.records)

    def segments(self) -> List[CaptureRecord]:
        return [r for r in self.records if isinstance(r.packet, TCPSegment)]

    def notifications(self) -> List[CaptureRecord]:
        return [r for r in self.records if isinstance(r.packet, TDNNotification)]

    def summary(self) -> str:
        """One-paragraph traffic summary (counts by kind and TDN tag)."""
        segments = self.segments()
        data = [r for r in segments if r.packet.payload_len > 0]
        acks = [r for r in segments if r.packet.payload_len == 0]
        notifications = self.notifications()
        by_tdn: dict = {}
        for record in data:
            tag = record.packet.data_tdn
            by_tdn[tag] = by_tdn.get(tag, 0) + 1
        tdn_text = ", ".join(
            f"TDN {tag}: {count}" for tag, count in sorted(
                by_tdn.items(), key=lambda item: (item[0] is None, item[0])
            )
        )
        return (
            f"{len(self.records)} packets captured: {len(data)} data, "
            f"{len(acks)} pure ACKs, {len(notifications)} TDN notifications"
            + (f" | data by TDN tag: {tdn_text}" if tdn_text else "")
        )

    def render(self, limit: int = 50) -> str:
        """The capture as dissector text, most recent last."""
        lines = [str(record) for record in self.records[:limit]]
        if len(self.records) > limit:
            lines.append(f"... {len(self.records) - limit} more")
        return "\n".join(lines)


def dissect(packet: Packet) -> str:
    """Render one packet the way the artifact's TDTCP dissector would."""
    if isinstance(packet, TDNNotification):
        return (
            f"ICMP TDN-change {packet.src} -> {packet.dst} "
            f"[active TDN ID: {packet.tdn_id}]"
        )
    if isinstance(packet, TCPSegment):
        flags = "".join(
            flag
            for flag, on in (
                ("S", packet.syn),
                ("F", packet.fin),
                ("A", packet.is_ack),
                ("E", packet.ece),
                ("C", packet.ce),
            )
            if on
        )
        parts = [
            f"TCP {packet.src}:{packet.sport} -> {packet.dst}:{packet.dport}",
            f"[{flags or '.'}]",
            f"seq={packet.seq}",
        ]
        if packet.payload_len:
            parts.append(f"len={packet.payload_len}")
        if packet.is_ack:
            parts.append(f"ack={packet.ack}")
        if packet.sack_blocks:
            blocks = " ".join(f"{s}-{e}" for s, e in packet.sack_blocks)
            parts.append(f"SACK{{{blocks}}}")
        if packet.td_capable_tdns is not None:
            parts.append(f"TD_CAPABLE{{num_tdns={packet.td_capable_tdns}}}")
        if packet.data_tdn is not None or packet.ack_tdn is not None:
            fields = []
            if packet.data_tdn is not None and packet.payload_len:
                fields.append(f"D data_tdn={packet.data_tdn}")
            if packet.ack_tdn is not None and packet.is_ack:
                fields.append(f"A ack_tdn={packet.ack_tdn}")
            if fields:
                parts.append(f"TD_DATA_ACK{{{' '.join(fields)}}}")
        if packet.dss_seq is not None:
            parts.append(f"DSS{{seq={packet.dss_seq}}}")
        if packet.dss_ack is not None:
            parts.append(f"DSS{{ack={packet.dss_ack}}}")
        if packet.circuit_mark:
            parts.append("CIRCUIT-MARK")
        if packet.subflow_id is not None:
            parts.append(f"subflow={packet.subflow_id}")
        return " ".join(parts)
    return f"RAW {packet.src} -> {packet.dst} len={packet.size}"
