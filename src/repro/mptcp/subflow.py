"""One MPTCP subflow: a full TCP connection pinned to one network.

The subflow has its own sequence space, congestion control, and loss
recovery (inherited unchanged from :class:`TCPConnection`). What it
adds:

* data is *pulled* from the parent connection as DSS chunks instead of
  a local application buffer;
* the DSS mapping rides on data segments, the DSS ack on every ACK;
* the tdm scheduler gates transmission — data sending is skipped and
  pure ACKs are suppressed (and regenerated on reactivation) while the
  subflow's TDN is inactive, which is the root cause of the §2.2
  stalls;
* an RTO that fires while gated does not burn the window on a path
  that is simply down — it asks the parent for connection-level
  reinjection instead, exactly the workaround the paper describes.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, TYPE_CHECKING

from repro.net.node import Host
from repro.net.packet import TCPSegment
from repro.sim.simulator import Simulator
from repro.tcp.config import TCPConfig
from repro.tcp.connection import CLOSE_WAIT, ESTABLISHED, SegmentState, TCPConnection

if TYPE_CHECKING:  # pragma: no cover
    from repro.mptcp.connection import MPTCPConnection


class MPTCPSubflow(TCPConnection):
    """A subflow; ``index`` is also the TDN it is pinned to."""

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        remote_addr: str,
        remote_port: int,
        parent: "MPTCPConnection",
        index: int,
        local_port: Optional[int] = None,
        cc_name: str = "cubic",
        config: Optional[TCPConfig] = None,
    ):
        self.parent = parent
        self.index = index
        super().__init__(
            sim,
            host,
            remote_addr,
            remote_port,
            local_port=local_port,
            cc_name=cc_name,
            config=config,
            name=f"{host.address}:sf{index}",
        )
        # subflow seq -> (dss_seq, length) for transmitted chunks.
        self._dss_map: Dict[int, Tuple[int, int]] = {}
        self._ack_suppressed = False
        self._handshake_ack_pass = False
        self.gated_rtos = 0

    # ------------------------------------------------------------------
    # Scheduler gating
    # ------------------------------------------------------------------
    @property
    def allowed(self) -> bool:
        return self.parent.scheduler.allows(self.index)

    def on_schedule_change(self) -> None:
        """Called by the parent when the active TDN changes."""
        if self.allowed:
            if self._ack_suppressed:
                self._ack_suppressed = False
                if self.state in (ESTABLISHED, CLOSE_WAIT):
                    self._send_ack()
            self._maybe_send()

    def _maybe_send(self) -> None:
        if not self.allowed:
            return
        super()._maybe_send()

    def _send_packet(self, pkt: TCPSegment) -> None:
        established = self.state in (ESTABLISHED, CLOSE_WAIT)
        is_pure_ack = pkt.payload_len == 0 and not pkt.syn and not pkt.fin
        if is_pure_ack and self._handshake_ack_pass:
            # The handshake-completing ACK is connection setup, not
            # scheduled data traffic: it always goes out.
            super()._send_packet(pkt)
            return
        if not self.allowed and established and is_pure_ack:
            # tdm_schd blocks pure ACKs on inactive subflows; the latest
            # cumulative state is regenerated when the TDN returns.
            # Handshake control packets are not subject to the data
            # scheduler and always go out.
            self._ack_suppressed = True
            return
        super()._send_packet(pkt)

    def _on_tlp_timer(self) -> None:
        if not self.allowed:
            return
        super()._on_tlp_timer()

    def _handle_syn_ack(self, pkt: TCPSegment) -> None:
        self._handshake_ack_pass = True
        try:
            super()._handle_syn_ack(pkt)
        finally:
            self._handshake_ack_pass = False

    def _on_rto(self) -> None:
        # A vanilla TCP subflow cannot tell "path temporarily inactive"
        # from congestion: when the receiver is blocked from ACKing on
        # this subflow's TDN (§2.2), the RTO fires anyway, collapses the
        # window, and marks the outstanding data lost. The stack then
        # asks the connection level to reinject that data on the other
        # subflow — progress resumes at the cost of duplicates, exactly
        # the overhead the paper measures. (TDTCP's unified sequence
        # space avoids this entirely: ACKs return on whichever TDN is
        # active, so its RTO is never starved, §3.3.)
        if not self.allowed:
            self.gated_rtos += 1
        super()._on_rto()
        self.parent.request_reinjection(self.index)

    # ------------------------------------------------------------------
    # Data sourcing: pull DSS chunks from the parent
    # ------------------------------------------------------------------
    def _send_new_segment(self) -> bool:
        chunk = self.parent.next_chunk_for(self.index, self.config.mss)
        if chunk is None:
            return False
        dss_seq, length = chunk
        seg = SegmentState(seq=self.snd_nxt, payload_len=length)
        seg.tdn_id = 0  # a subflow is single-path internally
        self.segments[seg.seq] = seg
        self._dss_map[seg.seq] = (dss_seq, length)
        self.snd_nxt = seg.end_seq
        self._transmit(seg)
        return True

    def _decorate_data(self, pkt: TCPSegment, seg: SegmentState) -> None:
        mapping = self._dss_map.get(seg.seq)
        if mapping is not None:
            pkt.dss_seq = mapping[0]
        pkt.subflow_id = self.index
        pkt.dss_ack = self.parent.data_rcv_nxt()

    def _decorate_ack(self, ack: TCPSegment) -> None:
        ack.subflow_id = self.index
        ack.dss_ack = self.parent.data_rcv_nxt()

    def _advertised_window(self) -> int:
        # MPTCP advertises the connection-level receive window.
        return self.parent.advertised_window()

    # ------------------------------------------------------------------
    # Receive path: feed DSS data / acks to the parent
    # ------------------------------------------------------------------
    def _handle_data(self, pkt: TCPSegment) -> None:
        if pkt.dss_seq is not None and pkt.payload_len > 0:
            self.parent.on_subflow_data(pkt.dss_seq, pkt.payload_len)
        super()._handle_data(pkt)

    def _handle_ack(self, pkt: TCPSegment) -> None:
        if pkt.dss_ack is not None:
            self.parent.update_dss_ack(pkt.dss_ack)
        super()._handle_ack(pkt)

    def _collect_cum_acked(self, ack: int):
        acked = super()._collect_cum_acked(ack)
        for seg in acked:
            self._dss_map.pop(seg.seq, None)
        return acked
