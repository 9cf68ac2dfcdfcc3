"""The TCP connection: send/receive paths, ACK processing, recovery.

The implementation deliberately mirrors the Linux structures the paper
describes in §4.3, generalized to *paths* from the start: all pipe
accounting (``packets_out``, ``sacked_out``, ``lost_out``,
``retrans_out``), the congestion state machine, the congestion
controller, and the RTT estimator live in a :class:`PathState`. A
regular single-path connection has exactly one path; TDTCP subclasses
this with one path per TDN and the four §4.3 semantic classes fall out
naturally:

* *current TDN* — new transmissions are tagged with and accounted to
  the current path;
* *all TDNs* — ACK validity checks sum ``packets_out`` across paths;
* *any TDN* — retransmission scheduling consults every path's
  ``lost_out``/state;
* *specific TDN* — ACKed segments decrement the counters of the path
  they were (last) sent on.
"""

from __future__ import annotations

import bisect
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.net.addressing import FlowKey
from repro.net.node import Host
from repro.net.packet import TCPSegment
from repro.obs.telemetry import Telemetry
from repro.sim.simulator import Simulator
from repro.sim.timers import Timer
from repro.tcp.buffers import ReceiveBuffer, SendBuffer
from repro.tcp.cc import make_congestion_control
from repro.tcp.config import TCPConfig
from repro.tcp.options import clip_sack_blocks
from repro.tcp.rack import TLP_SRTT_MULTIPLIER, RackState, default_reo_wnd_ns
from repro.tcp.rtt import INITIAL_RTO_NS, MAX_RTO_NS, RTTEstimator
from repro.tcp.state import CaState

# Connection states (simplified teardown).
CLOSED = "closed"
LISTEN = "listen"
SYN_SENT = "syn-sent"
SYN_RCVD = "syn-rcvd"
ESTABLISHED = "established"
FIN_SENT = "fin-sent"
CLOSE_WAIT = "close-wait"

# SACK dup-threshold: a hole is a loss candidate once this many SACKed
# segments sit above it (TDTCP counts only its own TDN's).
DUPTHRESH = 3


class SegmentState:
    """Sender-side bookkeeping for one outstanding segment."""

    __slots__ = (
        "seq",
        "end_seq",
        "payload_len",
        "is_syn",
        "is_fin",
        "sent_ns",
        "first_sent_ns",
        "retx_count",
        "sacked",
        "lost",
        "retrans_outstanding",
        "tdn_id",
        "hole_counted",
        "transmissions",
    )

    def __init__(self, seq: int, payload_len: int, is_syn: bool = False, is_fin: bool = False):
        self.seq = seq
        self.payload_len = payload_len
        # SYN/FIN occupy one sequence number each.
        self.end_seq = seq + payload_len + (1 if (is_syn or is_fin) else 0)
        self.is_syn = is_syn
        self.is_fin = is_fin
        self.sent_ns = 0
        self.first_sent_ns = 0
        self.retx_count = 0
        self.sacked = False
        self.lost = False
        self.retrans_outstanding = False
        self.tdn_id = 0
        self.hole_counted = False
        self.transmissions: List[TCPSegment] = []

    @property
    def delivered_ground_truth(self) -> bool:
        """Simulator ground truth: some transmission was not dropped."""
        return any(not pkt.dropped for pkt in self.transmissions)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = "".join(
            f
            for f, on in (
                ("S", self.sacked),
                ("L", self.lost),
                ("R", self.retrans_outstanding),
            )
            if on
        )
        return f"<Seg [{self.seq},{self.end_seq}) tdn={self.tdn_id} {flags}>"


class PathState:
    """Per-path (per-TDN) protocol state — the unit TDTCP duplicates."""

    __slots__ = (
        "tdn_id",
        "cc",
        "rtt",
        "ca_state",
        "high_seq",
        "cwr_seq",
        "packets_out",
        "sacked_out",
        "lost_out",
        "retrans_out",
        "delivery_rate_bps",
        "last_cwnd_update_ns",
        "last_retransmit_ns",
    )

    def __init__(self, clock, cc_name: str, config: TCPConfig, tdn_id: int = 0):
        self.tdn_id = tdn_id
        self.cc = make_congestion_control(cc_name, clock, initial_cwnd=config.initial_cwnd)
        self.rtt = RTTEstimator(config.min_rto_ns)
        self.ca_state = CaState.OPEN
        self.high_seq = 0            # recovery exit marker
        self.cwr_seq = 0             # ECN once-per-window marker
        # Pipe variables (packets).
        self.packets_out = 0
        self.sacked_out = 0
        self.lost_out = 0
        self.retrans_out = 0
        # Telemetry: EWMA delivery rate (bits/s, gain 1/8) and the
        # timestamps of the last tracepoint-worthy events on this path
        # (mirrors what ``ss -ti`` reports per connection).
        self.delivery_rate_bps = 0.0
        self.last_cwnd_update_ns: Optional[int] = None
        self.last_retransmit_ns: Optional[int] = None

    @property
    def in_flight(self) -> int:
        """Linux's ``tcp_packets_in_flight``: packets believed in the pipe."""
        return self.packets_out - self.sacked_out - self.lost_out + self.retrans_out

    def enter_recovery(self, snd_nxt: int) -> None:
        self.ca_state = CaState.RECOVERY
        self.high_seq = snd_nxt
        self.cc.on_congestion_event()

    def enter_loss(self, snd_nxt: int) -> None:
        self.ca_state = CaState.LOSS
        self.high_seq = snd_nxt
        self.cc.on_rto()

    def maybe_exit_recovery(self, snd_una: int) -> bool:
        if self.ca_state.in_recovery and snd_una >= self.high_seq:
            self.ca_state = CaState.OPEN
            self.cc.on_recovery_exit()
            return True
        return False


class LossTrigger:
    """Context handed to the loss-marking hooks: what evidence caused
    the heuristic to consider a segment lost."""

    __slots__ = ("kind", "ack_tdn")

    def __init__(self, kind: str, ack_tdn: Optional[int]):
        self.kind = kind          # "dupsack", "rack", "rack-timer", "rto"
        self.ack_tdn = ack_tdn    # TDN the triggering ACK arrived on


class ConnStats:
    """Per-connection counters the experiments read out."""

    def __init__(self) -> None:
        self.bytes_acked = 0
        self.bytes_delivered = 0          # receiver side, in-order
        self.segments_sent = 0
        self.retransmissions = 0
        self.spurious_retransmissions = 0
        self.rtos = 0
        self.fast_recoveries = 0
        self.reordering_events: List[Tuple[int, int]] = []   # (time, affected pkts)
        # (time, spurious?, reason) — reason is the detection path
        # ("dupsack", "rack", "rack-timer", "rto").
        self.retransmit_marks: List[Tuple[int, bool, str]] = []
        self.tlp_probes = 0
        self.ecn_reductions = 0


class TCPConnection:
    """A full-duplex TCP endpoint (our workloads use it one-way)."""

    # Which TDN count to advertise in TD_CAPABLE (None = not TDTCP).
    td_capable_tdns: Optional[int] = None
    # Whether the class subscribes to TDN-change notifications; a run
    # whose connections do not lets the notifier announce without
    # events (repro.rdcn.notifier).
    listens_to_tdn_changes = False

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        remote_addr: str,
        remote_port: int,
        local_port: Optional[int] = None,
        cc_name: str = "cubic",
        config: Optional[TCPConfig] = None,
        name: Optional[str] = None,
    ):
        self.sim = sim
        self.host = host
        self.config = config or TCPConfig()
        self.cc_name = cc_name
        self.local_port = local_port if local_port is not None else host.allocate_port()
        self.remote_addr = remote_addr
        self.remote_port = remote_port
        self.name = name or f"{host.address}:{self.local_port}"
        self.flow_key = FlowKey(host.address, self.local_port, remote_addr, remote_port)
        host.register_connection(self.flow_key, self)

        self.state = CLOSED
        self.paths: List[PathState] = self._make_paths()
        self.current_path_index = 0

        # Sequence space: ISS 0; SYN consumes seq 1, data starts at 1.
        self.snd_una = 0
        self.snd_nxt = 0
        # Scoreboard: seq -> SegmentState. Insertion order == sequence
        # order (snd_nxt is monotonic and only prefix entries are ever
        # deleted), so the dict doubles as the sorted segment index:
        # head access is next(iter(...)), and in-order scans break early
        # once past their sequence range.
        self.segments: Dict[int, SegmentState] = {}
        self._retx_pending: List[int] = []  # seqs marked lost awaiting retransmit
        # Tiered fidelity (repro.sim.fastpath): while True the fluid
        # model owns this connection's transfer and the send machinery
        # must stay quiescent — _maybe_send becomes a no-op.
        self._fluid_hold = False

        self.send_buffer = SendBuffer(
            capacity_bytes=self.config.send_buffer_packets * self.config.mss
        )
        self._stream_base = 1  # first data byte's sequence number
        self.fin_pending = False
        self.fin_sent = False

        self.recv_buffer = ReceiveBuffer(initial_rcv_nxt=0)
        self.peer_rwnd = 2 ** 40
        self._rwnd_bytes = self.config.rwnd_packets * self.config.mss
        self.rack = RackState()

        self.rto_timer = Timer(sim, self._on_rto, name=f"{self.name}-rto")
        self.reorder_timer = Timer(sim, self._on_reorder_timer, name=f"{self.name}-reorder")
        self.tlp_timer = Timer(sim, self._on_tlp_timer, name=f"{self.name}-tlp")
        self.delack_timer = Timer(sim, self._on_delack_timer, name=f"{self.name}-delack")
        self._delack_pending = False
        self._rto_backoff = 0

        self.stats = ConnStats()
        # Callbacks for applications / metrics.
        self.on_established: Optional[Callable[[], None]] = None
        self.on_delivered: Optional[Callable[[int, int], None]] = None  # (time, rcv_nxt)
        self.on_peer_fin: Optional[Callable[[], None]] = None

        # TDTCP negotiation result (None = plain TCP).
        self.negotiated_tdns: Optional[int] = None
        # TDN change pointer (§3.4): snd_nxt at the last TDN switch.
        self.tdn_change_seq = 0

        # Tracepoints, fetched once (Telemetry.of returns a disabled
        # stand-in when no telemetry is attached, so every emit site
        # below costs one attribute check in that case).
        telemetry = Telemetry.of(sim)
        self._tp_cwnd = telemetry.tracepoint("tcp:cwnd_update")
        self._tp_retransmit = telemetry.tracepoint("tcp:retransmit")
        self._tp_ca = telemetry.tracepoint("tcp:ca_state")

    # ------------------------------------------------------------------
    # Construction hooks (overridden by TDTCP)
    # ------------------------------------------------------------------
    def _make_paths(self) -> List[PathState]:
        return [PathState(self.sim, self.cc_name, self.config, tdn_id=0)]

    # ------------------------------------------------------------------
    # Path helpers
    # ------------------------------------------------------------------
    @property
    def current_path(self) -> PathState:
        return self.paths[self.current_path_index]

    def path_of(self, seg: SegmentState) -> PathState:
        """The path (TDN) state a segment is accounted to (§4.3
        'specific TDN' semantic)."""
        index = seg.tdn_id if seg.tdn_id < len(self.paths) else 0
        return self.paths[index]

    def total_packets_out(self) -> int:
        """§4.3 'all TDNs' semantic: outstanding packets across paths."""
        return sum(path.packets_out for path in self.paths)

    def any_path_has_losses(self) -> bool:
        """§4.3 'any TDN' semantic for retransmission scheduling."""
        return any(path.lost_out > 0 for path in self.paths)

    @property
    def wire_tdn(self) -> Optional[int]:
        """TDN ID carried in the TD_DATA_ACK option (None = plain TCP)."""
        return None

    # ------------------------------------------------------------------
    # Open / close
    # ------------------------------------------------------------------
    def listen(self) -> None:
        """Passive open: await a peer's SYN."""
        if self.state != CLOSED:
            raise RuntimeError(f"cannot listen from state {self.state}")
        self.state = LISTEN

    def connect(self) -> None:
        """Active open: send SYN."""
        if self.state != CLOSED:
            raise RuntimeError(f"cannot connect from state {self.state}")
        self.state = SYN_SENT
        syn = SegmentState(seq=0, payload_len=0, is_syn=True)
        # §A.2: the SYN is always tracked under TDN 0 — during the
        # handshake there is no notion of TDNs yet.
        syn.tdn_id = 0
        self.segments[0] = syn
        self.snd_nxt = 1
        self._transmit(syn)

    def close(self) -> None:
        """Half-close after all buffered data is sent and ACKed."""
        self.fin_pending = True
        self._maybe_send()

    def release(self) -> None:
        """Tear the endpoint down, whatever its state: free the demux
        slot and stop everything that could still wake it. Idempotent.
        The application calls this once it has no further use for the
        connection; nothing reaches it afterwards.

        It also drops every reference that points back at the
        connection (each timer's bound callback, the application's
        hooks), so a released connection sits in no reference cycle and
        reference counting alone frees it
        (``tests/test_engine.py::TestTeardown``)."""
        self.host.unregister_connection(self.flow_key)
        self._quiesce()
        for timer in self._timers():
            timer.close()
        self.on_established = self.on_delivered = self.on_peer_fin = None

    def _quiesce(self) -> None:
        """Hook: the end of :meth:`release` and of the FIN-ACKed →
        CLOSED transition. Cancels every timer; subclasses drop what
        else would keep calling a finished connection."""
        for timer in self._timers():
            timer.cancel()

    def _timers(self) -> Tuple[Timer, ...]:
        """Every timer that can wake this connection (subclasses add theirs)."""
        return (self.rto_timer, self.reorder_timer, self.tlp_timer, self.delack_timer)

    # ------------------------------------------------------------------
    # Application interface
    # ------------------------------------------------------------------
    def write(self, nbytes: int) -> None:
        """Queue application bytes for transmission."""
        self.send_buffer.write(nbytes)
        self._maybe_send()

    def start_bulk(self) -> None:
        """Mark the send buffer as never-ending (long-lived flow)."""
        self.send_buffer.unlimited = True
        self._maybe_send()

    # ------------------------------------------------------------------
    # Receive entry point
    # ------------------------------------------------------------------
    def receive(self, pkt: TCPSegment) -> None:
        """Entry point for every segment the host demuxes to this
        connection; dispatches on connection state."""
        if self.state == CLOSED:
            return
        if self.state == LISTEN:
            if pkt.syn:
                self._handle_syn(pkt)
            return
        if self.state == SYN_SENT:
            if pkt.syn and pkt.is_ack and pkt.ack >= 1:
                self._handle_syn_ack(pkt)
            return
        if self.state == SYN_RCVD:
            if pkt.is_ack and pkt.ack >= 1 and not pkt.syn:
                self.state = ESTABLISHED
                self._notify_established()
            # Fall through: the first ACK may carry data.
        if pkt.syn:
            # Duplicate SYN (our SYN-ACK was lost): re-acknowledge.
            self._send_ack()
            return
        if pkt.payload_len > 0 or pkt.fin:
            self._handle_data(pkt)
        if pkt.is_ack:
            self._handle_ack(pkt)

    # ------------------------------------------------------------------
    # Handshake
    # ------------------------------------------------------------------
    def _handle_syn(self, pkt: TCPSegment) -> None:
        self.state = SYN_RCVD
        self.recv_buffer.rcv_nxt = pkt.seq + 1
        self.negotiated_tdns = self._negotiate(pkt.td_capable_tdns)
        syn_ack = SegmentState(seq=0, payload_len=0, is_syn=True)
        syn_ack.tdn_id = 0
        self.segments[0] = syn_ack
        self.snd_nxt = 1
        self._transmit(syn_ack, ack_flag=True)

    def _handle_syn_ack(self, pkt: TCPSegment) -> None:
        self.recv_buffer.rcv_nxt = pkt.seq + 1
        self.negotiated_tdns = self._negotiate(pkt.td_capable_tdns)
        syn = self.segments.pop(0, None)
        if syn is not None:
            self._unaccount_acked_segment(syn)
        self.snd_una = max(self.snd_una, pkt.ack)
        self.state = ESTABLISHED
        self._cancel_timers_if_idle()
        self._send_ack()
        self._notify_established()
        self._maybe_send()

    def _negotiate(self, peer_tdns: Optional[int]) -> Optional[int]:
        """TD_CAPABLE negotiation — overridden by TDTCP."""
        return None

    def _notify_established(self) -> None:
        if self.on_established is not None:
            callback, self.on_established = self.on_established, None
            callback()

    # ------------------------------------------------------------------
    # Receive path: data
    # ------------------------------------------------------------------
    def _handle_data(self, pkt: TCPSegment) -> None:
        end_seq = pkt.seq + pkt.payload_len
        fin_advance = 0
        if pkt.fin and end_seq == self.recv_buffer.rcv_nxt + pkt.payload_len:
            fin_advance = 1
        delivered = self.recv_buffer.receive(pkt.seq, end_seq + fin_advance)
        if pkt.fin and fin_advance and self.state == ESTABLISHED:
            self.state = CLOSE_WAIT
            if self.on_peer_fin is not None:
                self.on_peer_fin()
        if delivered > 0:
            self.stats.bytes_delivered += max(delivered - fin_advance, 0)
            if self.on_delivered is not None:
                # Report clean stream bytes (SYN/FIN sequence slots
                # excluded) so sequence graphs start at zero.
                self.on_delivered(self.sim.now, self.stats.bytes_delivered)
        # ACK generation: immediate ACK, or RFC 1122 delayed ACK when
        # configured. Out-of-order arrivals (and anything needing an
        # ECN/mark echo) are acknowledged immediately — dup-ACK/SACK
        # feedback drives fast retransmit and must not be delayed. A
        # second in-order segment while one ACK is pending also goes out
        # now (ack-every-other). ``_delack_pending`` implies the delack
        # timer is armed, so the cancel hides behind the flag.
        if (
            self.config.delayed_ack_ns <= 0
            or delivered <= 0
            or pkt.ce
            or pkt.circuit_mark
            or self._delack_pending
        ):
            if self._delack_pending:
                self._delack_pending = False
                self.delack_timer.cancel()
            self._send_ack(echo_of=pkt)
        else:
            self._delack_pending = True
            self.delack_timer.start(self.config.delayed_ack_ns)

    def _on_delack_timer(self) -> None:
        if self._delack_pending:
            self._delack_pending = False
            self._send_ack()

    def _send_ack(self, echo_of: Optional[TCPSegment] = None) -> None:
        ack = TCPSegment(
            src=self.host.address,
            dst=self.remote_addr,
            sport=self.local_port,
            dport=self.remote_port,
            seq=self.snd_nxt,
            payload_len=0,
            ack=self.recv_buffer.rcv_nxt,
            is_ack=True,
            created_ns=self.sim.now,
        )
        # sack_blocks() returns () whenever the OOO set is empty — the
        # common case for a pure in-order ACK — so the call hides behind
        # a direct look at the RangeSet.
        if self.recv_buffer._ooo._starts:
            blocks = self.recv_buffer.sack_blocks()
            if blocks:
                ack.sack_blocks = clip_sack_blocks(blocks)
        ack.rwnd = self._advertised_window()
        ack.ack_tdn = self.wire_tdn
        if echo_of is not None:
            if echo_of.ecn_capable and echo_of.ce:
                ack.ece = True
            if echo_of.circuit_mark:
                ack.circuit_echo = True
        self._decorate_ack(ack)
        ack.add_option_sizes()
        self._send_packet(ack)

    def _decorate_ack(self, ack: TCPSegment) -> None:
        """Hook: subclasses add options to outgoing pure ACKs (MPTCP
        attaches the data-level DSS ack here)."""

    def _decorate_data(self, pkt: TCPSegment, seg: "SegmentState") -> None:
        """Hook: subclasses add options to outgoing data segments
        (MPTCP attaches the DSS mapping here)."""

    def _send_packet(self, pkt: TCPSegment) -> None:
        """Hook: the last step before the wire. MPTCP subflows gate
        pure ACKs here when their TDN is inactive."""
        # Deliberately NOT inlined past host.send: tests and pacing
        # shims replace ``host.send`` per instance.
        self.host.send(pkt)

    def _advertised_window(self) -> int:
        # RangeSet maintains its coverage incrementally; reading the
        # field skips the ooo_bytes/coverage() frames on every send.
        window = self._rwnd_bytes - self.recv_buffer._ooo._cov
        mss = self.config.mss
        return window if window > mss else mss

    # ------------------------------------------------------------------
    # Receive path: ACK processing (sender side)
    # ------------------------------------------------------------------
    def _handle_ack(self, pkt: TCPSegment) -> None:
        # 'All TDNs' semantic: an ACK is only expected if data is
        # outstanding on *any* TDN.
        paths = self.paths
        outstanding = 0
        for p in paths:
            outstanding += p.packets_out
        if outstanding == 0:
            self.peer_rwnd = pkt.rwnd
            return
        if pkt.ack > self.snd_nxt:
            return  # acks data we never sent
        self.peer_rwnd = pkt.rwnd

        newly_acked = self._collect_cum_acked(pkt.ack)
        newly_sacked = self._apply_sack(pkt) if pkt.sack_blocks else []
        if pkt.ack > self.snd_una:
            self.snd_una = pkt.ack
            self._rto_backoff = 0

        # One pass over the newly acknowledged segments does the work of
        # three: the RTT sample election, the RACK delivery bookkeeping
        # and the per-path ACK credit tally (the RTT estimator and RACK
        # state are disjoint, so interleaving cannot change either).
        # RTT election: never a retransmitted segment (Karn), never a
        # cross-TDN sample the hook refuses (§4.4), and never a segment
        # a cumulative ACK covers after it was SACKed — it was delivered
        # long before, so ``now - sent_ns`` would overestimate the RTT.
        npaths = len(paths)
        stats = self.stats
        update_on_delivered = self.rack.update_on_delivered
        sample_seg: Optional[SegmentState] = None
        acked_by_path: Dict[int, int] = {}
        for seg in newly_acked:
            if not (seg.is_syn or seg.is_fin):
                index = seg.tdn_id if seg.tdn_id < npaths else 0
                acked_by_path[index] = acked_by_path.get(index, 0) + 1
                stats.bytes_acked += seg.payload_len
            if seg.retx_count == 0:
                update_on_delivered(seg.sent_ns, seg.end_seq)
                if not seg.sacked and self._rtt_sample_allowed(seg, pkt):
                    if sample_seg is None or seg.end_seq > sample_seg.end_seq:
                        sample_seg = seg
        for seg in newly_sacked:
            if seg.retx_count == 0:
                update_on_delivered(seg.sent_ns, seg.end_seq)
                if self._rtt_sample_allowed(seg, pkt):
                    if sample_seg is None or seg.end_seq > sample_seg.end_seq:
                        sample_seg = seg
        if sample_seg is not None:
            self.path_of(sample_seg).rtt.update(self.sim.now - sample_seg.sent_ns)

        self._detect_losses(pkt)

        # Credit congestion controllers per path ('specific TDN').
        now = self.sim.now
        for index, count in acked_by_path.items():
            if not self._cc_credit_allowed(index, pkt):
                continue
            path = paths[index]
            path.cc.on_ack(count, path.rtt.latest_rtt_ns, path.in_flight, ece=pkt.ece)
            # Kernel-style delivery rate: delivered over the ACK
            # inter-arrival interval, not over an RTT (many ACKs land
            # per RTT). First sample falls back to the RTT.
            previous_ns = path.last_cwnd_update_ns
            path.last_cwnd_update_ns = now
            interval_ns = (
                now - previous_ns
                if previous_ns is not None
                else path.rtt.latest_rtt_ns
            )
            if interval_ns:
                rate_bps = count * self.config.mss * 8_000_000_000 / interval_ns
                path.delivery_rate_bps += (rate_bps - path.delivery_rate_bps) / 8.0
            if self._tp_cwnd.enabled:
                self._emit_cwnd(path, reason="ack")
        if pkt.ece:
            self._react_to_ecn()

        snd_una = self.snd_una
        for path in paths:
            # Inline gate for the common OPEN/DISORDER case; the method
            # re-checks the same condition before transitioning.
            ca = path.ca_state
            if (ca is CaState.RECOVERY or ca is CaState.LOSS) and snd_una >= path.high_seq:
                if path.maybe_exit_recovery(snd_una):
                    if self._tp_ca.enabled:
                        self._tp_ca.emit(
                            self.sim.now,
                            conn=self.name,
                            tdn=path.tdn_id,
                            state=path.ca_state.value,
                            reason="recovery-exit",
                        )
                    if self._tp_cwnd.enabled:
                        self._emit_cwnd(path, reason="recovery-exit")

        outstanding = 0
        for p in paths:
            outstanding += p.packets_out
        if outstanding == 0:
            self.rto_timer.cancel()
            self.reorder_timer.cancel()
            self.tlp_timer.cancel()
        elif newly_acked:
            # _restart_rto inlined: this runs on nearly every ACK.
            backed_off = self._rto_ns() << min(self._rto_backoff, 8)
            self.rto_timer.start(backed_off if backed_off < MAX_RTO_NS else MAX_RTO_NS)
        if self.fin_sent and self.snd_una == self.snd_nxt:
            self.state = CLOSED
            self._quiesce()
            return
        self._maybe_send()
        self._check_fin_progress()

    def _collect_cum_acked(self, ack: int) -> List[SegmentState]:
        """Remove and return segments fully covered by the cumulative ACK."""
        acked: List[SegmentState] = []
        segments = self.segments
        for seg in segments.values():  # dict is in ascending seq order
            if seg.end_seq > ack:
                break
            acked.append(seg)
        if acked:
            paths = self.paths
            npaths = len(paths)
            for seg in acked:
                del segments[seg.seq]
                # _unaccount_acked_segment inlined (the method remains
                # for the handshake path): runs for every segment a
                # cumulative ACK retires.
                path = paths[seg.tdn_id] if seg.tdn_id < npaths else paths[0]
                count = path.packets_out
                path.packets_out = count - 1 if count > 0 else 0
                if seg.sacked:
                    count = path.sacked_out
                    path.sacked_out = count - 1 if count > 0 else 0
                if seg.lost:
                    count = path.lost_out
                    path.lost_out = count - 1 if count > 0 else 0
                if seg.retrans_outstanding:
                    count = path.retrans_out
                    path.retrans_out = count - 1 if count > 0 else 0
            if self._retx_pending:
                acked_seqs = {a.seq for a in acked}
                self._retx_pending = [s for s in self._retx_pending if s not in acked_seqs]
        return acked

    def _unaccount_acked_segment(self, seg: SegmentState) -> None:
        path = self.path_of(seg)
        count = path.packets_out
        path.packets_out = count - 1 if count > 0 else 0
        if seg.sacked:
            count = path.sacked_out
            path.sacked_out = count - 1 if count > 0 else 0
        if seg.lost:
            count = path.lost_out
            path.lost_out = count - 1 if count > 0 else 0
        if seg.retrans_outstanding:
            count = path.retrans_out
            path.retrans_out = count - 1 if count > 0 else 0

    def _apply_sack(self, pkt: TCPSegment) -> List[SegmentState]:
        if not pkt.sack_blocks:
            return []
        newly: List[SegmentState] = []
        for block_start, block_end in pkt.sack_blocks:
            if block_end <= self.snd_una:
                continue
            for seg in self.segments.values():
                if seg.seq >= block_end:
                    break  # dict is in seq order; rest is past the block
                if seg.sacked:
                    continue
                if seg.seq >= block_start and seg.end_seq <= block_end:
                    seg.sacked = True
                    path = self.path_of(seg)
                    path.sacked_out += 1
                    if seg.lost:
                        # Lost mark was wrong or the retransmission got
                        # through; either way it is delivered now.
                        seg.lost = False
                        path.lost_out = max(path.lost_out - 1, 0)
                        if seg.seq in self._retx_pending:
                            self._retx_pending.remove(seg.seq)
                    if seg.retrans_outstanding:
                        # The data is acknowledged: its in-flight
                        # retransmission no longer counts against the
                        # pipe (Linux clears SACKED_RETRANS here too).
                        seg.retrans_outstanding = False
                        path.retrans_out = max(path.retrans_out - 1, 0)
                    newly.append(seg)
        return newly

    def _emit_cwnd(self, path: PathState, reason: str) -> None:
        """Emit ``tcp:cwnd_update`` for one path (callers guard on
        ``self._tp_cwnd.enabled``)."""
        self._tp_cwnd.emit(
            self.sim.now,
            conn=self.name,
            tdn=path.tdn_id,
            cwnd=path.cc.cwnd,
            ssthresh=path.cc.ssthresh,
            ca_state=path.ca_state.value,
            reason=reason,
        )

    def _rtt_sample_allowed(self, seg: SegmentState, pkt: TCPSegment) -> bool:
        """Hook: base TCP accepts every non-retransmitted sample."""
        return True

    def _cc_credit_allowed(self, path_index: int, pkt: TCPSegment) -> bool:
        """Hook: may this ACK grow ``paths[path_index]``'s window?
        Base TCP always allows it; TDTCP refuses to let ACKs returning
        on a different TDN mutate an inactive TDN's model (§3.1)."""
        return True

    # ------------------------------------------------------------------
    # Loss detection
    # ------------------------------------------------------------------
    def _detect_losses(self, pkt: TCPSegment) -> None:
        newly_lost: List[SegmentState] = []

        # SACK dup-threshold rule: a segment is a loss candidate when
        # >= dupthresh SACKed segments sit above it. The per-TDN counts
        # let TDTCP demand *same-TDN* evidence (§3.4): deliveries on a
        # different TDN say nothing about a slower TDN's in-flight data.
        # When no segment is SACKed on any path, every count is zero and
        # no dup rule (base or per-TDN) can fire, so the scan is skipped.
        sacked_any = False
        for p in self.paths:
            if p.sacked_out:
                sacked_any = True
                break
        if sacked_any:
            sacked_above_total = 0
            sacked_above_by_tdn: Dict[int, int] = {}
            hole_candidates: List[SegmentState] = []
            for seg in reversed(self.segments.values()):
                if seg.sacked:
                    sacked_above_total += 1
                    sacked_above_by_tdn[seg.tdn_id] = sacked_above_by_tdn.get(seg.tdn_id, 0) + 1
                elif not seg.lost and seg.retx_count == 0:
                    if self._dup_rule_satisfied(seg, sacked_above_total, sacked_above_by_tdn):
                        hole_candidates.append(seg)
            if hole_candidates:
                self._note_reordering_event(hole_candidates)
                trigger = LossTrigger("dupsack", pkt.ack_tdn)
                for seg in hole_candidates:
                    if self._should_mark_lost(seg, trigger):
                        self._mark_lost(seg, reason="dupsack")
                        newly_lost.append(seg)

        # RACK: time-based marking. Before the first delivery
        # (xmit_ns is None) detect() has nothing to compare against, so
        # the candidate collection is skipped entirely. Both candidate
        # sets are gathered in one pass: marking a non-retransmitted
        # candidate lost cannot change the retransmission watch set
        # (candidates exclude retrans_outstanding segments), so the
        # pre-collected lists match what two sequential scans would see.
        if self.rack.xmit_ns is not None:
            xmit_ns = self.rack.xmit_ns
            candidates: List[SegmentState] = []
            retx_candidates: List[SegmentState] = []
            retrans_any = False
            for p in self.paths:
                if p.retrans_out:
                    retrans_any = True
                    break
            if retrans_any:
                # Retransmissions in flight: scan everything so the
                # retransmission watch sees segments anywhere in the
                # sequence space (retransmit times are not seq-ordered).
                for seg in self.segments.values():
                    if seg.sacked:
                        continue
                    if seg.retrans_outstanding:
                        retx_candidates.append(seg)
                    elif not seg.lost:
                        candidates.append(seg)
            else:
                # No retransmissions outstanding: first-send times are
                # strictly monotone in sequence, and retransmission only
                # ever re-stamps sent_ns later. So once a never-
                # retransmitted segment is past the RACK reference
                # point, every later segment is too — all ineligible
                # (detect() would skip them) and the scan can stop.
                for seg in self.segments.values():
                    if seg.sent_ns > xmit_ns:
                        if seg.retx_count == 0:
                            break
                        continue
                    if not seg.sacked and not seg.lost:
                        candidates.append(seg)
            if candidates:
                lost, next_deadline = self.rack.detect(candidates, self._rack_reo_wnd)
                if lost:
                    rack_trigger = LossTrigger("rack", pkt.ack_tdn)
                    for seg in lost:
                        if self._should_mark_lost(seg, rack_trigger):
                            self._mark_lost(seg, reason="rack")
                            newly_lost.append(seg)
                if next_deadline is not None:
                    delay = max(next_deadline - xmit_ns, 1)
                    self.reorder_timer.start(delay)

            # Lost retransmissions: RACK also watches outstanding
            # retransmissions (their sent_ns was updated when re-sent);
            # when a retransmission is itself overdue, requeue it.
            if retx_candidates:
                retx_lost, _ = self.rack.detect(retx_candidates, self._rack_reo_wnd)
                for seg in retx_lost:
                    seg.retrans_outstanding = False
                    path = self.path_of(seg)
                    path.retrans_out = max(path.retrans_out - 1, 0)
                    if seg.seq not in self._retx_pending:
                        self._insert_retx_pending(seg.seq)

        if newly_lost:
            self._enter_recovery_for(newly_lost)

    def _rack_reo_wnd(self, seg: SegmentState) -> int:
        """Reorder window for RACK; TDTCP widens it for cross-TDN segs."""
        path = self.path_of(seg)
        return default_reo_wnd_ns(path.rtt.min_rtt_ns)

    def _should_mark_lost(self, seg: SegmentState, trigger: LossTrigger) -> bool:
        """Hook: base TCP trusts the heuristics unconditionally."""
        return True

    def _dup_rule_satisfied(
        self, seg: SegmentState, sacked_above_total: int, sacked_above_by_tdn: Dict[int, int]
    ) -> bool:
        """Hook: is the SACK evidence above ``seg`` enough to call it a
        loss candidate? Base TCP counts every SACKed segment."""
        return sacked_above_total >= DUPTHRESH

    def _note_reordering_event(self, hole_candidates: List[SegmentState]) -> None:
        fresh = [seg for seg in hole_candidates if not seg.hole_counted]
        if not fresh:
            return
        for seg in fresh:
            seg.hole_counted = True
        self.stats.reordering_events.append((self.sim.now, len(fresh)))

    def _mark_lost(self, seg: SegmentState, reason: str = "dupsack") -> None:
        if seg.lost or seg.sacked:
            return
        seg.lost = True
        path = self.path_of(seg)
        path.lost_out += 1
        if seg.retrans_outstanding:
            seg.retrans_outstanding = False
            path.retrans_out = max(path.retrans_out - 1, 0)
        if seg.seq not in self._retx_pending:
            self._insert_retx_pending(seg.seq)
        spurious = seg.delivered_ground_truth
        self.stats.retransmit_marks.append((self.sim.now, spurious, reason))

    def _insert_retx_pending(self, seq: int) -> None:
        # Keep sorted so retransmissions go out lowest-sequence first.
        bisect.insort(self._retx_pending, seq)

    def _enter_recovery_for(self, newly_lost: List[SegmentState]) -> None:
        paths_hit = {id(self.path_of(seg)): self.path_of(seg) for seg in newly_lost}
        for path in paths_hit.values():
            if not path.ca_state.in_recovery:
                path.enter_recovery(self.snd_nxt)
                self.stats.fast_recoveries += 1
                path.last_cwnd_update_ns = self.sim.now
                if self._tp_ca.enabled:
                    self._tp_ca.emit(
                        self.sim.now,
                        conn=self.name,
                        tdn=path.tdn_id,
                        state=path.ca_state.value,
                        reason="fast-recovery",
                    )
                if self._tp_cwnd.enabled:
                    self._emit_cwnd(path, reason="fast-recovery")
            elif path.ca_state == CaState.OPEN or path.ca_state == CaState.DISORDER:
                pass

    def _react_to_ecn(self) -> None:
        """Classic ECN (RFC 3168) reaction, once per window. DCTCP does
        its own per-window math inside the CC and is excluded here."""
        path = self.current_path
        if path.cc.wants_ecn:
            return
        if path.ca_state.in_recovery:
            return
        if self.snd_una < path.cwr_seq:
            return
        path.cwr_seq = self.snd_nxt
        path.cc.on_congestion_event()
        self.stats.ecn_reductions += 1
        path.last_cwnd_update_ns = self.sim.now
        if self._tp_cwnd.enabled:
            self._emit_cwnd(path, reason="ecn")

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------
    def _restart_rto(self) -> None:
        backed_off = self._rto_ns() << min(self._rto_backoff, 8)
        self.rto_timer.start(min(backed_off, MAX_RTO_NS))

    def _rto_ns(self) -> int:
        """Hook: base TCP uses the current path's estimator."""
        return self.current_path.rtt.rto_ns()

    def _cancel_timers_if_idle(self) -> None:
        if self.total_packets_out() == 0:
            self.rto_timer.cancel()
            self.reorder_timer.cancel()
            self.tlp_timer.cancel()

    def _on_rto(self) -> None:
        if self.total_packets_out() == 0:
            return
        self.stats.rtos += 1
        self._rto_backoff += 1
        # Mark every outstanding un-SACKed segment lost; each affected
        # path collapses (Linux semantics generalized per-path).
        affected: Dict[int, PathState] = {}
        for seg in self.segments.values():
            if seg.sacked:
                continue
            path = self.path_of(seg)
            # All retransmission state is void after an RTO: every
            # unsacked segment is lost and must be resent from scratch
            # (otherwise stale retrans_out keeps in_flight above the
            # collapsed window and the connection deadlocks).
            if seg.retrans_outstanding:
                seg.retrans_outstanding = False
                path.retrans_out = max(path.retrans_out - 1, 0)
            if not seg.lost:
                seg.lost = True
                path.lost_out += 1
            if seg.seq not in self._retx_pending:
                self._insert_retx_pending(seg.seq)
            affected[id(path)] = path
        for path in affected.values():
            path.enter_loss(self.snd_nxt)
            path.last_cwnd_update_ns = self.sim.now
            if self._tp_ca.enabled:
                self._tp_ca.emit(
                    self.sim.now,
                    conn=self.name,
                    tdn=path.tdn_id,
                    state=path.ca_state.value,
                    reason="rto",
                )
            if self._tp_cwnd.enabled:
                self._emit_cwnd(path, reason="rto")
        self._restart_rto()
        if self.state in (SYN_SENT, SYN_RCVD):
            # Handshake segments are retransmitted directly; the normal
            # send path only runs once established.
            syn_seg = self.segments.get(0)
            if syn_seg is not None:
                self._retransmit(syn_seg)
            return
        self._maybe_send()

    def _on_reorder_timer(self) -> None:
        if self.total_packets_out() == 0:
            return
        trigger = LossTrigger("rack-timer", None)
        candidates = [
            seg for seg in self.segments.values()
            if not seg.sacked and not seg.lost and not seg.retrans_outstanding
        ]
        lost, next_deadline = self.rack.detect(candidates, self._rack_reo_wnd, as_of_ns=self.sim.now)
        newly_lost = []
        for seg in lost:
            # The timer path is the paper's true-tail-loss fallback: the
            # TDN filter no longer applies once the window has elapsed.
            self._mark_lost(seg, reason="rack-timer")
            newly_lost.append(seg)
        del trigger
        if newly_lost:
            self._enter_recovery_for(newly_lost)
            self._maybe_send()
        elif next_deadline is not None:
            self.reorder_timer.start(max(next_deadline - self.sim.now, 1))

    def _on_tlp_timer(self) -> None:
        if self.total_packets_out() == 0:
            return
        if self.any_path_has_losses():
            return  # recovery is already driving retransmissions
        # Probe: retransmit the highest outstanding segment.
        last_seg: Optional[SegmentState] = None
        for seg in self.segments.values():
            if not seg.sacked:
                last_seg = seg
        if last_seg is None:
            return
        self.stats.tlp_probes += 1
        self._retransmit(last_seg, probe=True)

    # ------------------------------------------------------------------
    # Send path
    # ------------------------------------------------------------------
    def _maybe_send(self) -> None:
        if self._fluid_hold:
            return
        if self.state not in (ESTABLISHED, CLOSE_WAIT):
            return
        while self._try_send_one():
            pass
        if self.fin_pending and not self.fin_sent:
            self._check_fin_progress()

    def _try_send_one(self) -> bool:
        """One send-loop step: a retransmission if any is due, else one
        new segment. Returns False when cwnd/window/app-limited."""
        path = self.paths[self.current_path_index]
        in_flight = path.packets_out - path.sacked_out - path.lost_out + path.retrans_out
        if in_flight >= int(path.cc.cwnd):
            return False
        if self._retx_pending:
            seg = self._next_retransmit_candidate()
            if seg is not None:
                self._retransmit(seg)
                return True
        return self._send_new_segment()

    def _next_retransmit_candidate(self) -> Optional[SegmentState]:
        while self._retx_pending:
            seq = self._retx_pending[0]
            seg = self.segments.get(seq)
            if seg is None or not seg.lost or seg.retrans_outstanding or seg.sacked:
                self._retx_pending.pop(0)
                continue
            self._retx_pending.pop(0)
            return seg
        return None

    def _send_new_segment(self) -> bool:
        # SendBuffer.available_beyond and the capacity gate inlined: this is
        # the tail of every _try_send_one step, including the one that
        # returns False and ends the send loop.
        buf = self.send_buffer
        if buf.unlimited:
            available = 2 ** 62
        else:
            available = buf.written - (self.snd_nxt - self._stream_base)
            if available <= 0:
                return False
        capacity = buf.capacity_bytes
        if capacity is not None and (self.snd_nxt - self.snd_una) >= capacity:
            return False
        if self.snd_nxt - self.snd_una + self.config.mss > self.peer_rwnd:
            return False
        payload = min(self.config.mss, available)
        if (
            self.config.nagle_enabled
            and payload < self.config.mss
            and self.snd_nxt > self.snd_una
        ):
            # Nagle: a partial segment waits while data is outstanding
            # (an ACK will re-trigger the send path).
            return False
        seg = SegmentState(seq=self.snd_nxt, payload_len=payload)
        seg.tdn_id = self.current_path_index
        self.segments[seg.seq] = seg
        self.snd_nxt = seg.end_seq
        self._transmit(seg)
        return True

    def _transmit(self, seg: SegmentState, ack_flag: bool = True, probe: bool = False) -> None:
        now = self.sim.now
        pkt = TCPSegment(
            src=self.host.address,
            dst=self.remote_addr,
            sport=self.local_port,
            dport=self.remote_port,
            seq=seg.seq,
            payload_len=seg.payload_len,
            ack=self.recv_buffer.rcv_nxt,
            is_ack=ack_flag and not (seg.is_syn and self.state == SYN_SENT),
            syn=seg.is_syn,
            fin=seg.is_fin,
            created_ns=now,
        )
        pkt.ecn_capable = self.config.ecn_enabled or self.paths[self.current_path_index].cc.wants_ecn
        pkt.rwnd = self._advertised_window()
        pkt.sent_ns = now
        pkt.retransmission = seg.retx_count > 0
        if seg.is_syn:
            pkt.td_capable_tdns = self.td_capable_tdns
        wire = self.wire_tdn
        pkt.data_tdn = wire
        pkt.ack_tdn = wire
        self._decorate_data(pkt, seg)
        pkt.add_option_sizes()

        first_time = seg.first_sent_ns == 0 and seg.retx_count == 0 and not seg.transmissions
        if first_time:
            seg.first_sent_ns = now
            paths = self.paths
            path = paths[seg.tdn_id] if seg.tdn_id < len(paths) else paths[0]
            path.packets_out += 1
            self.stats.segments_sent += 1
        seg.sent_ns = now
        seg.transmissions.append(pkt)
        self._send_packet(pkt)

        # Timer arming, with the Timer.armed property and the _arm_tlp
        # frame flattened out — this tail runs for every transmitted
        # data segment.
        if self.rto_timer._deadline is None:
            self._restart_rto()
        if not probe:
            srtt = self.paths[self.current_path_index].rtt.srtt_ns
            pto = INITIAL_RTO_NS if srtt is None else TLP_SRTT_MULTIPLIER * srtt
            self.tlp_timer.start(pto if pto > 1 else 1)

    def _retransmit(self, seg: SegmentState, probe: bool = False) -> None:
        # Retransmissions go out on the *current* TDN ('any TDN'
        # semantic: at the earliest opportunity, whatever path is up).
        old_path = self.path_of(seg)
        new_index = self.current_path_index
        if seg.tdn_id != new_index:
            # Transfer pipe accounting to the new path.
            old_path.packets_out = max(old_path.packets_out - 1, 0)
            if seg.lost:
                old_path.lost_out = max(old_path.lost_out - 1, 0)
            seg.tdn_id = new_index
            new_path = self.path_of(seg)
            new_path.packets_out += 1
            if seg.lost:
                new_path.lost_out += 1
        path = self.path_of(seg)
        seg.retx_count += 1
        if not probe and not seg.retrans_outstanding:
            seg.retrans_outstanding = True
            path.retrans_out += 1
        self.stats.retransmissions += 1
        spurious = seg.delivered_ground_truth
        if spurious:
            self.stats.spurious_retransmissions += 1
        path.last_retransmit_ns = self.sim.now
        if self._tp_retransmit.enabled:
            self._tp_retransmit.emit(
                self.sim.now,
                conn=self.name,
                tdn=seg.tdn_id,
                seq=seg.seq,
                retx_count=seg.retx_count,
                probe=probe,
                spurious=spurious,
            )
        self._transmit(seg, probe=probe)

    # ------------------------------------------------------------------
    # FIN handling
    # ------------------------------------------------------------------
    def _check_fin_progress(self) -> None:
        if not self.fin_pending or self.fin_sent:
            return
        data_done = (
            not self.send_buffer.unlimited
            and self.send_buffer.available_beyond(self.snd_nxt - self._stream_base) == 0
        )
        if data_done and self.snd_una == self.snd_nxt:
            fin = SegmentState(seq=self.snd_nxt, payload_len=0, is_fin=True)
            fin.tdn_id = self.current_path_index
            self.segments[fin.seq] = fin
            self.snd_nxt = fin.end_seq
            self.fin_sent = True
            self.state = FIN_SENT
            self._transmit(fin)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def invariant_findings(self) -> Iterator[Tuple[str, str, str]]:
        """Recount the scoreboard and yield ``(check, subject, detail)``
        for every accounting invariant the fast-path counters break (a
        violation means a counter leak like the ones documented in
        DESIGN.md §6b). The one recount: the runtime auditor
        (:class:`repro.faults.audit.InvariantAuditor`) records each."""
        fields = ("packets_out", "sacked_out", "lost_out", "retrans_out")
        n_paths = len(self.paths)
        actual = {field: [0] * n_paths for field in fields}
        for seg in self.segments.values():
            index = seg.tdn_id if seg.tdn_id < n_paths else 0
            actual["packets_out"][index] += 1
            if seg.sacked:
                actual["sacked_out"][index] += 1
            if seg.lost:
                actual["lost_out"][index] += 1
            if seg.retrans_outstanding:
                actual["retrans_out"][index] += 1
        for index, path in enumerate(self.paths):
            subject = f"{self.name}/path{index}"
            for field in fields:
                counter, flagged = getattr(path, field), actual[field][index]
                if counter != flagged:
                    detail = f"{field}={counter} but {flagged} segments carry the flag"
                    yield "pipe_accounting", subject, detail
                if counter < 0:
                    yield "counter_floor", subject, f"{field}={counter} < 0"
            if path.in_flight < 0 and path.retrans_out <= 0:
                detail = f"in_flight={path.in_flight} < 0 with nothing retransmitted"
                yield "counter_floor", subject, detail
            cc = path.cc
            if cc.cwnd <= 0:
                yield "cwnd_floor", subject, f"cwnd={cc.cwnd} <= 0"
            if cc.ssthresh <= 0:
                yield "ssthresh_floor", subject, f"ssthresh={cc.ssthresh} <= 0"
        if self.snd_una > self.snd_nxt:
            detail = f"snd_una {self.snd_una} > snd_nxt {self.snd_nxt}"
            yield "sequence_order", self.name, detail
        # CLOSED or released: nothing may wake the connection any more.
        if self.state == CLOSED or self.host._connections.get(self.flow_key) is not self:
            for timer in self._timers():
                if timer.armed:
                    yield "finished_timer", self.name, f"{timer.name} armed on a finished connection"

    def snapshot(self) -> dict:
        """Loggable view for debugging and tests."""
        return {
            "name": self.name,
            "state": self.state,
            "snd_una": self.snd_una,
            "snd_nxt": self.snd_nxt,
            "rcv_nxt": self.recv_buffer.rcv_nxt,
            "paths": [
                {
                    "tdn": p.tdn_id,
                    "cwnd": p.cc.cwnd,
                    "ssthresh": p.cc.ssthresh,
                    "ca_state": p.ca_state.value,
                    "packets_out": p.packets_out,
                    "sacked_out": p.sacked_out,
                    "lost_out": p.lost_out,
                    "retrans_out": p.retrans_out,
                    "srtt_ns": p.rtt.srtt_ns,
                }
                for p in self.paths
            ],
        }
