"""Packet model.

Three packet types mirror §4.1 of the paper:

* :class:`TCPSegment` — data/ACK segments carrying the TDTCP
  ``TD_CAPABLE`` and ``TD_DATA_ACK`` options, SACK blocks, ECN bits, the
  reTCP circuit mark, and MPTCP DSS fields. A single segment class keeps
  the fast path simple; unused option fields stay at their defaults and
  contribute nothing to the wire size.
* :class:`TDNNotification` — the ICMP path-change notification carrying
  the active TDN ID (Figure 5a).
* :class:`Packet` — the base class: addresses and wire size only.

Wire sizes are computed from header constants so that serialization
delays are realistic (jumbo data segments vs. 66-byte pure ACKs).
"""

from __future__ import annotations

import itertools
from typing import Optional, Tuple

# Header size constants (bytes).
ETH_IP_TCP_HEADER = 14 + 20 + 20  # Ethernet + IPv4 + base TCP
SACK_BLOCK_SIZE = 8
SACK_OPTION_BASE = 2
TD_DATA_ACK_OPTION = 4  # kind, len, flags, tdn ids (Figure 5c)
TD_CAPABLE_OPTION = 4   # kind, len, subtype, num_tdns (Figure 5b)
ICMP_NOTIFICATION_SIZE = 14 + 20 + 8 + 1  # Eth + IP + ICMP header + TDN ID byte

#: Ceiling on TDN ids a notification may legitimately carry. The id
#: travels in one byte (Figure 5a) and real schedules use a handful;
#: ids above this are treated as corruption and ignored by receivers
#: rather than allocating unbounded per-TDN state. Runtime schedule
#: changes (§4.2) may still introduce new ids up to this cap.
MAX_TDN_ID = 63

_packet_ids = itertools.count()


class Packet:
    """Base packet: addressing, wire size, and bookkeeping fields."""

    __slots__ = (
        "pid",
        "src",
        "dst",
        "size",
        "created_ns",
        "ce",
        "ecn_capable",
        "dropped",
        "enqueued_ns",
        "network_id",
        "relayed",
    )

    def __init__(self, src: str, dst: str, size: int, created_ns: int = 0):
        self.pid = next(_packet_ids)
        self.src = src
        self.dst = dst
        self.size = size
        self.created_ns = created_ns
        # ECN: Congestion Experienced mark set by queues, echoed by receivers.
        self.ce = False
        self.ecn_capable = False
        # Set True by a queue that drops the packet; used by spurious-
        # retransmission accounting (ground truth the simulator knows).
        self.dropped = False
        self.enqueued_ns = 0
        # Which fabric network actually carried the packet (filled in by
        # the uplink at dequeue time). None until it crosses the fabric.
        self.network_id: Optional[int] = None
        # OCS-only fabrics: has this packet already taken its one
        # permitted indirection hop (RotorNet/Opera two-hop routing)?
        self.relayed = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} #{self.pid} {self.src}->{self.dst} {self.size}B>"


class TCPSegment(Packet):
    """A TCP segment (data and/or ACK) with all options used in the paper."""

    __slots__ = (
        "sport",
        "dport",
        "seq",
        "payload_len",
        "ack",
        "syn",
        "fin",
        "is_ack",
        "sack_blocks",
        "ece",
        # TDTCP TD_CAPABLE (handshake) and TD_DATA_ACK (per-segment) options.
        "td_capable_tdns",
        "data_tdn",
        "ack_tdn",
        # reTCP: switch sets when the segment traversed the circuit network;
        # the receiver echoes the mark back on ACKs.
        "circuit_mark",
        "circuit_echo",
        # MPTCP data sequence signal (subflow-level seq/ack live in
        # seq/ack; these carry the connection-level mapping).
        "subflow_id",
        "dss_seq",
        "dss_ack",
        "rwnd",
        "sent_ns",
        "retransmission",
    )

    def __init__(
        self,
        src: str,
        dst: str,
        sport: int,
        dport: int,
        seq: int = 0,
        payload_len: int = 0,
        ack: int = 0,
        is_ack: bool = False,
        syn: bool = False,
        fin: bool = False,
        created_ns: int = 0,
    ):
        # Base-class attributes set inline: this constructor runs once
        # per simulated packet, and the super().__init__ dispatch is
        # measurable there.
        self.pid = next(_packet_ids)
        self.src = src
        self.dst = dst
        self.size = ETH_IP_TCP_HEADER + payload_len
        self.created_ns = created_ns
        self.ce = False
        self.ecn_capable = False
        self.dropped = False
        self.enqueued_ns = 0
        self.network_id = None
        self.relayed = False
        self.sport = sport
        self.dport = dport
        self.seq = seq
        self.payload_len = payload_len
        self.ack = ack
        self.syn = syn
        self.fin = fin
        self.is_ack = is_ack
        self.sack_blocks: Tuple[Tuple[int, int], ...] = ()
        self.ece = False
        self.td_capable_tdns: Optional[int] = None
        self.data_tdn: Optional[int] = None
        self.ack_tdn: Optional[int] = None
        self.circuit_mark = False
        self.circuit_echo = False
        self.subflow_id: Optional[int] = None
        self.dss_seq: Optional[int] = None
        self.dss_ack: Optional[int] = None
        self.rwnd: int = 2 ** 40  # advertised receive window (bytes)
        self.sent_ns = 0
        self.retransmission = False

    def add_option_sizes(self) -> None:
        """Grow the wire size to account for options actually carried.

        Called once by the sending stack after all options are filled in.
        """
        extra = 0
        if self.sack_blocks:
            extra += SACK_OPTION_BASE + SACK_BLOCK_SIZE * len(self.sack_blocks)
        if self.td_capable_tdns is not None:
            extra += TD_CAPABLE_OPTION
        if self.data_tdn is not None or self.ack_tdn is not None:
            extra += TD_DATA_ACK_OPTION
        if self.dss_seq is not None or self.dss_ack is not None:
            extra += 12
        self.size += extra

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "SYN" if self.syn else ("FIN" if self.fin else ("ACK" if self.is_ack and not self.payload_len else "DATA"))
        return (
            f"<TCPSegment #{self.pid} {kind} {self.src}:{self.sport}->"
            f"{self.dst}:{self.dport} seq={self.seq} len={self.payload_len} ack={self.ack}>"
        )


class TDNNotification(Packet):
    """ICMP path-change notification (Figure 5a).

    Carries the TDN ID that just became active. ``generated_ns`` is when
    the ToR decided to send it; the difference to delivery time is the
    notification latency studied in §5.4.
    """

    __slots__ = ("tdn_id", "generated_ns", "notify_seq")

    def __init__(self, src: str, dst: str, tdn_id: int, created_ns: int = 0):
        super().__init__(src, dst, ICMP_NOTIFICATION_SIZE, created_ns)
        self.tdn_id = tdn_id
        self.generated_ns = created_ns
        # Monotonic emission counter stamped by the TDNNotifier; hosts
        # use it to discard stale/duplicate/reordered notifications
        # (§3.2 degraded-signal tolerance). None when hand-constructed.
        self.notify_seq: Optional[int] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TDNNotification #{self.pid} {self.src}->{self.dst} tdn={self.tdn_id}>"
