"""Tiered-fidelity fluid fast path (``fidelity: tiered``).

The packet-level core spends most of its events grinding through steady
in-slot byte delivery — exactly the regime a fluid model captures in
closed form. This module models groups of connections sharing one
cross-rack uplink direction as a fluid system: per-RTT rounds of
proportional capacity allocation, analytic VOQ occupancy, and
closed-form cwnd growth (``CongestionControl.fluid_advance``), with the
real packet-level machinery quiesced (``TCPConnection._fluid_hold``) for
the duration of a *fluid span*.

Lifecycle of a group (one ``(src_rack, dst_rack)`` direction):

1. **tick** — all registered flows eligible (established, CA-open, no
   outstanding loss/recovery, data pending)?  If yes, quiesce senders
   and start draining; otherwise retry later.
2. **drain** — holds stop new sends; in-flight data ACKs out normally.
   Loss appearing mid-drain aborts back to packet mode.
3. **fluid** — once sender scoreboards and the forward VOQ are empty the
   span begins. No per-segment events run; the model integrates lazily:
   every advance (at an admission, an unregistered flow, or the run
   horizon) walks RTT-sized rounds from the last integrated virtual
   time to the simulator's *current* time, so connection state only
   ever reflects times at or before ``sim.now`` and nothing ever needs
   rewinding.
4. **exit** — re-materializes exact packet state: ``snd_nxt``/
   ``snd_una`` advanced by the delivered bytes (empty scoreboard, so
   the per-path counters stay invariant-consistent), receiver
   ``rcv_nxt``/delivery counters already advanced round-by-round with
   historical timestamps (figure series and FCT hooks fire with
   correct times), holds cleared, sends resumed staggered over ~1 RTT.

A span ends at the run horizon, or when an admitted flow is
unregistered before the fast path evicted it. The fluid model cannot
produce per-packet CE marks, so a run whose senders can be ECN-capable
never gets here; nor does a run with a fault plan or a ``fail``-mode
audit: the runner forces these to packet fidelity up front (see
``run_experiment``).

App flow open/close get *per-flow* packet-fidelity transitions instead
of collapsing the whole group's span. A flow opening against a live
span is held from registration (holds gate only data sends), so its
SYN/SYN-ACK/ACK handshake runs packet-level over the real uplink; once
established it is folded into the fluid group at the next admission
poll, with its slow start handled by the closed-form
``fluid_advance``. A flow completing inside the span is re-materialized
exactly on its own (``_materialize_sender``) and its FIN handshake runs
packet-level while the rest of the group stays fluid. Without this,
arrival churn caps fluid coverage: every open would pay a full
drain/re-enter cycle whose packet episode grows with group size,
making long campaigns super-linear in flow count.

Drop-probability crossings do **not** exit the span: a VOQ overflow in
steady state synchronously cuts every contributing window, which the
model applies analytically (``cc.on_congestion_event()`` directly — the
CUBIC implementation reads no clock there) and counts as a *virtual
loss*. No retransmission happens and ``ConnStats.retransmissions`` is
untouched: loss-episode *accounting* (Figure 10 style) needs packet
fidelity, which the runner forces for fault plans, background traffic,
ECN senders, and fail-mode audits (see ``run_experiment``).

Determinism: everything here is seed-free arithmetic over simulator
state, so a tiered run is byte-identical across repeats of the same
config, and a packet run never constructs this class at all.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.net.addressing import rack_of
from repro.net.queues import fluid_queue_capacity
from repro.obs.telemetry import Telemetry
from repro.tcp.connection import CLOSE_WAIT, ESTABLISHED, TCPConnection
from repro.tcp.state import CaState
from repro.units import SEC

#: Group states.
PACKET = "packet"
DRAINING = "draining"
FLUID = "fluid"

#: Variants whose in-slot dynamics the fluid model represents. ECN-based
#: variants (dctcp) and MPTCP are excluded: CE-mark fractions and
#: subflow scheduling have no closed form here.
FLUID_VARIANTS = ("tdtcp", "tdtcp-unopt", "cubic", "reno")


#: The uplink direction whose modelled VOQ occupancy feeds the run's
#: occupancy hook (the rack-0 VOQ the figures plot).
OCCUPANCY_PAIR = (0, 1)


def fidelity_report(forced_reasons: List[str], fastpath: Optional["FluidFastPath"]) -> dict:
    """The run-level fidelity_report payload of a tiered-requested run:
    ``fastpath`` is its fast path, or ``None`` when ``forced_reasons``
    sent it to packet fidelity."""
    forced = fastpath is None
    return {
        "mode": "packet" if forced else "tiered",
        "forced_packet": forced,
        "forced_reasons": list(forced_reasons),
        "fluid_spans": 0 if forced else fastpath.spans,
        "fluid_time_ns": 0 if forced else fastpath.fluid_time_ns,
        "virtual_losses": 0 if forced else fastpath.virtual_losses,
        "exit_reasons": {} if forced else dict(sorted(fastpath.exit_reasons.items())),
        "groups": 0 if forced else len(fastpath.groups),
    }


class FluidFlow:
    """Fast-path view of one sender->receiver connection pair."""

    __slots__ = (
        "key", "sender", "receiver", "remaining", "span_bytes", "_acc",
        "admitted", "established",
    )

    def __init__(self, key, sender: TCPConnection, receiver: TCPConnection):
        self.key = key
        self.sender = sender
        self.receiver = receiver
        self.remaining: Optional[int] = None  # None = unlimited backlog
        self.span_bytes = 0       # integer bytes delivered this span
        self._acc = 0.0           # fractional-byte accumulator
        self.admitted = False     # part of the current span's fluid set
        self.established = False  # has ever been seen ESTABLISHED


class _Group:
    """All fluid flows sharing one uplink direction."""

    __slots__ = (
        "pair", "uplink", "flows", "state", "last_ns", "q_pkts",
        "last_cut_ns", "span_event", "retry_event", "admit_event",
        "drain_polls", "span_start_ns", "tdn_params",
    )

    def __init__(self, pair: Tuple[int, int], uplink):
        self.pair = pair
        self.uplink = uplink
        self.flows: Dict[object, FluidFlow] = {}
        self.state = PACKET
        self.last_ns = 0
        self.q_pkts = 0.0
        self.last_cut_ns = -(1 << 62)
        self.span_event = None
        self.retry_event = None
        self.admit_event = None
        self.drain_polls = 0
        self.span_start_ns = 0
        # tdn -> (nominal RTT ns, ns per MSS) on this uplink.
        self.tdn_params: Dict[int, Tuple[int, float]] = {}


class FluidFastPath:
    """Per-run fluid fast-path coordinator (one per tiered run)."""

    #: Drain poll cadence and bound: polls are ~RTT/5 apart and a drain
    #: that outlives a whole schedule week aborts back to packet mode.
    DRAIN_POLL_NS = 20_000
    MAX_DRAIN_POLLS = 96

    #: Post-abort / ineligible retry cadence (~1 packet RTT).
    RETRY_NS = 100_000

    def __init__(
        self,
        testbed,
        run_until_ns: int,
        occupancy_hook: Optional[Callable[[int, int], None]] = None,
    ):
        self.testbed = testbed
        self.sim = testbed.sim
        self.config = testbed.config
        self.schedule = testbed.schedule
        self.run_until_ns = run_until_ns
        self.occupancy_hook = occupancy_hook
        self.groups: Dict[Tuple[int, int], _Group] = {}
        # Accounting surfaced through the run's fidelity_report.
        self.spans = 0
        self.fluid_time_ns = 0
        self.virtual_losses = 0
        self.exit_reasons: Dict[str, int] = {}
        telemetry = Telemetry.of(self.sim)
        self._tp_span = telemetry.tracepoint("fastpath:span")
        self._tp_vloss = telemetry.tracepoint("fastpath:virtual_loss")
        self._mss = self.config.mss
        self._host_rate = self.config.host_link_rate_bps
        # The schedule driver's epoch: set once the testbed starts.
        self._base_ns = 0

    # ------------------------------------------------------------------
    # Registration (runner for bulk flows, engine for churn)
    # ------------------------------------------------------------------
    def _group_for(self, src_rack: int, dst_rack: int) -> _Group:
        pair = (src_rack, dst_rack)
        group = self.groups.get(pair)
        if group is None:
            group = _Group(pair, self.testbed.uplinks[src_rack])
            self.groups[pair] = group
        return group

    def register_flow(self, sender: TCPConnection, receiver: TCPConnection) -> None:
        """Add a sender->receiver pair to its direction's group. Against
        a live (or draining) span the newcomer is held from birth: the
        handshake runs packet-level (holds gate only data sends) and the
        admission poll folds the flow into the fluid set once it is
        established, so arrival churn never collapses the span."""
        src_rack = rack_of(sender.host.address)
        dst_rack = rack_of(receiver.host.address)
        if src_rack == dst_rack:
            return  # intra-rack traffic never crosses the fabric
        group = self._group_for(src_rack, dst_rack)
        group.flows[sender.flow_key] = FluidFlow(sender.flow_key, sender, receiver)
        if group.state in (DRAINING, FLUID):
            sender._fluid_hold = True
            self._schedule_admit(group)
        else:
            self._schedule_retry(group)

    def unregister_flow(self, sender: TCPConnection) -> None:
        """Remove a pair (idempotent — completed flows are evicted by
        the fast path itself before the engine's cleanup runs)."""
        for group in self.groups.values():
            flow = group.flows.get(sender.flow_key)
            if flow is None or flow.sender is not sender:
                continue
            if group.state == FLUID and flow.admitted:
                self._exit_span(group, "unregister")
            flow = group.flows.pop(sender.flow_key, None)
            if flow is not None:
                flow.sender._fluid_hold = False
            return

    def start(self) -> None:
        """Arm entry attempts; call after ``testbed.start()`` so the
        schedule epoch is known."""
        self._base_ns = self.testbed.driver._base_ns
        for group in self.groups.values():
            self._schedule_retry(group, delay_ns=0)

    # ------------------------------------------------------------------
    # Entry: eligibility, quiesce, drain
    # ------------------------------------------------------------------
    def _eligible(self, flow: FluidFlow) -> bool:
        sender = flow.sender
        if sender.state not in (ESTABLISHED, CLOSE_WAIT) or sender.fin_sent:
            return False
        if flow.receiver.state not in (ESTABLISHED, CLOSE_WAIT):
            return False
        if sender._retx_pending:
            return False
        for path in sender.paths:
            if path.ca_state != CaState.OPEN or path.lost_out or path.retrans_out:
                return False
        return self._has_data(sender)

    @staticmethod
    def _has_data(sender: TCPConnection) -> bool:
        buf = sender.send_buffer
        if buf.unlimited:
            return True
        return buf.written - (sender.snd_nxt - sender._stream_base) > 0

    @staticmethod
    def _refresh(flow: FluidFlow) -> None:
        if not flow.established and flow.sender.state in (ESTABLISHED, CLOSE_WAIT):
            flow.established = True

    def _dead(self, flow: FluidFlow) -> bool:
        """Flows past their useful life (closing or closed): evicted so
        churn never blocks a group on finished transfers. A flow that
        has never established is *nascent* (mid-handshake), not dead."""
        sender = flow.sender
        if sender.fin_sent:
            return True
        return flow.established and sender.state not in (ESTABLISHED, CLOSE_WAIT)

    def _schedule_retry(self, group: _Group, delay_ns: Optional[int] = None) -> None:
        if group.retry_event is not None or group.state != PACKET:
            return
        group.retry_event = self.sim.schedule(
            self.RETRY_NS if delay_ns is None else delay_ns, self._tick, group
        )

    def _tick(self, group: _Group) -> None:
        group.retry_event = None
        if group.state != PACKET:
            return
        for flow in group.flows.values():
            self._refresh(flow)
        for key in [k for k, f in group.flows.items() if self._dead(f)]:
            del group.flows[key]
        if not group.flows:
            return
        # Nascent flows (still in handshake) don't veto entry — they are
        # held through the drain and folded in once established.
        ready = [f for f in group.flows.values() if f.established]
        if not ready or not all(self._eligible(f) for f in ready):
            self._schedule_retry(group)
            return
        group.state = DRAINING
        group.drain_polls = 0
        for flow in group.flows.values():
            flow.sender._fluid_hold = True
        self._drain_poll(group)

    def _abort_drain(self, group: _Group) -> None:
        group.state = PACKET
        for flow in group.flows.values():
            flow.sender._fluid_hold = False
            flow.sender._maybe_send()
        self._schedule_retry(group)

    def _drain_poll(self, group: _Group) -> None:
        if group.state != DRAINING:
            return
        for flow in group.flows.values():
            self._refresh(flow)
        # Nascent flows are exempt from the drain checks: their
        # handshake packets ride the uplink but they carry no data.
        active = [f for f in group.flows.values() if f.established]
        for flow in active:
            sender = flow.sender
            if sender._retx_pending or any(
                p.lost_out or p.retrans_out or p.ca_state != CaState.OPEN
                for p in sender.paths
            ):
                # Loss surfaced while quiescing: this group is not in
                # steady transfer — back to packet mode, retry later.
                self._abort_drain(group)
                return
        drained = group.uplink.is_idle() and all(
            f.sender.total_packets_out() == 0 and not f.sender.segments
            for f in active
        )
        if drained:
            self._enter_span(group)
            return
        group.drain_polls += 1
        if group.drain_polls > self.MAX_DRAIN_POLLS:
            self._abort_drain(group)
            return
        self.sim.schedule(self.DRAIN_POLL_NS, self._drain_poll, group)

    # ------------------------------------------------------------------
    # The span
    # ------------------------------------------------------------------
    def _enter_span(self, group: _Group) -> None:
        if not group.flows:
            group.state = PACKET
            return
        now = self.sim.now
        group.state = FLUID
        group.last_ns = now
        group.span_start_ns = now
        group.q_pkts = 0.0
        pending = False
        for flow in group.flows.values():
            self._refresh(flow)
            if flow.established and self._eligible(flow):
                self._admit(group, flow)
            else:
                # Mid-handshake (or not yet carrying data): stays held
                # and joins via the admission poll once established.
                flow.admitted = False
                pending = True
        self.spans += 1
        self.sim.fluid_spans += 1
        if self._tp_span.enabled:
            self._tp_span.emit(
                now, phase="enter", pair=group.pair, flows=len(group.flows)
            )
        horizon = min(self.run_until_ns, 1 << 62)
        if horizon > now:
            group.span_event = self.sim.at(horizon, self._on_horizon, group)
        if pending:
            self._schedule_admit(group)

    # ------------------------------------------------------------------
    # Mid-span admission (flow-open fidelity transition)
    # ------------------------------------------------------------------
    def _admit(self, group: _Group, flow: FluidFlow) -> None:
        """Fold an established, drained flow into the fluid set. Holds
        from registration guarantee no data is in flight, so the span's
        entry invariant (empty scoreboard, ``snd_una == snd_nxt``) holds
        per-flow at admission time too."""
        buf = flow.sender.send_buffer
        flow.remaining = (
            None
            if buf.unlimited
            else buf.written - (flow.sender.snd_nxt - flow.sender._stream_base)
        )
        flow.span_bytes = 0
        flow._acc = 0.0
        flow.admitted = True

    def _schedule_admit(self, group: _Group, delay_ns: Optional[int] = None) -> None:
        if group.admit_event is not None:
            return
        group.admit_event = self.sim.schedule(
            self.RETRY_NS if delay_ns is None else delay_ns,
            self._admit_poll, group,
        )

    def _admit_poll(self, group: _Group) -> None:
        group.admit_event = None
        if group.state == DRAINING:
            # Entry partitioning happens in _enter_span; just keep the
            # poll alive until the span starts (or the drain aborts,
            # which clears every hold and hands back to the retry path).
            self._schedule_admit(group)
            return
        if group.state != FLUID:
            return  # exit already cleared holds; retry machinery owns us
        self._advance_group(group, self.sim.now)
        for flow in [f for f in group.flows.values() if not f.admitted]:
            self._refresh(flow)
            sender = flow.sender
            if self._dead(flow):
                group.flows.pop(flow.key, None)
                sender._fluid_hold = False
                continue
            if not flow.established:
                continue
            if self._eligible(flow):
                self._admit(group, flow)
            elif not self._has_data(sender):
                # Established but with nothing (left) to transfer: hand
                # it back to packet level so its FIN can run while the
                # span continues for the rest of the group.
                group.flows.pop(flow.key, None)
                sender._fluid_hold = False
                sender._maybe_send()
        if any(not f.admitted for f in group.flows.values()):
            self._schedule_admit(group)

    def _on_horizon(self, group: _Group) -> None:
        group.span_event = None
        if group.state == FLUID:
            self._exit_span(group, "horizon", resume=False)

    # ------------------------------------------------------------------
    # Integration
    # ------------------------------------------------------------------
    def _tdn_params(self, group: _Group, tdn: int) -> Tuple[int, float]:
        """``(nominal RTT ns, serialization ns per MSS)`` of ``group``'s
        uplink while ``tdn`` is up, worked out once per group."""
        params = group.tdn_params.get(tdn)
        if params is None:
            rate = group.uplink.rate_for_tdn(tdn)
            params = (self.config.nominal_rtt_ns(tdn), self._mss * 8 * SEC / rate)
            group.tdn_params[tdn] = params
        return params

    def _advance_group(self, group: _Group, to_ns: int) -> None:
        """Integrate the fluid model from ``group.last_ns`` to ``to_ns``
        in RTT-sized rounds, mutating the real cc objects and receiver
        counters as it goes (timestamps are historical — always at or
        before ``sim.now``)."""
        t = group.last_ns
        if to_ns <= t:
            return
        mss = self._mss
        mss_bits = mss * 8
        host_rate = self._host_rate
        segment_at = self.schedule.segment_at
        base = self._base_ns
        cap_pkts = fluid_queue_capacity(group.uplink.queue)
        hook = self.occupancy_hook if group.pair == OCCUPANCY_PAIR else None
        tp_vloss = self._tp_vloss
        # Admission flags only change outside this loop; completions
        # inside it are the one reason to rebuild the list.
        flows = [f for f in group.flows.values() if f.admitted]
        while t < to_ns and group.flows:
            _seg_start, seg_end, tdn = segment_at(t - base)
            seg_end += base
            end = min(seg_end, to_ns)
            if tdn is None:
                # Night: the uplink is gated — no delivery, no ACK
                # clock, the queue neither fills nor drains.
                t = end
                continue
            base_rtt, pkt_ns = self._tdn_params(group, tdn)
            while t < end and group.flows:
                q = group.q_pkts
                rtt_eff = base_rtt + q * pkt_ns
                dt = end - t
                if rtt_eff < dt:
                    dt = rtt_eff
                if dt <= 0:
                    break
                frac = dt / rtt_eff
                # Per-round demand: the window, capped by what the host
                # access link can carry in one RTT and, for sized flows,
                # by the remaining application bytes.
                host_round = host_rate * rtt_eff / SEC / mss_bits
                demands = []
                demand_pkts = []
                for flow in flows:
                    # The path carrying this TDN: its own state set on a
                    # (non-downgraded) TDTCP sender, the current one else.
                    sender = flow.sender
                    paths = sender.paths
                    if (
                        len(paths) > 1
                        and tdn < len(paths)
                        and not getattr(sender, "downgraded", False)
                    ):
                        path = paths[tdn]
                    else:
                        path = paths[sender.current_path_index]
                    # min() / max() spelled out, ties resolved as they do.
                    d = path.cc.cwnd
                    if host_round < d:
                        d = host_round
                    if flow.remaining is not None:
                        # ``remaining`` is kept net of delivered bytes by
                        # _deliver, so it alone caps the residual demand.
                        residual = flow.remaining / mss + 1.0
                        if residual < d:
                            d = residual
                    if 0.0 > d:
                        d = 0.0
                    demands.append((flow, path, d))
                    demand_pkts.append(d)
                arriving = sum(demand_pkts) * frac
                served = dt / pkt_ns
                if q + arriving < served:
                    served = q + arriving
                q_new = q + arriving - served
                virtual_cut = False
                if q_new > cap_pkts:
                    q_new = cap_pkts
                    # Overflow crossing: a synchronized analytic loss,
                    # at most once per RTT (one congestion event per
                    # window, as the packet-level stack enforces).
                    if t - group.last_cut_ns >= rtt_eff:
                        virtual_cut = True
                        group.last_cut_ns = t
                group.q_pkts = q_new
                total_demand = arriving if arriving > 0 else 1.0
                round_end = t + int(dt)
                completed: List[FluidFlow] = []
                for flow, path, d in demands:
                    share = served * (d * frac) / total_demand
                    flow._acc += share * mss
                    delta = int(flow._acc) - flow.span_bytes
                    if flow.remaining is not None and delta >= flow.remaining:
                        # Completion inside the round: interpolate the
                        # finish time within [t, round_end).
                        over = delta - flow.remaining
                        fraction = 1.0 - (over / delta if delta > 0 else 0.0)
                        finish = t + max(int(dt * fraction), 1)
                        self._deliver(flow, flow.remaining, min(finish, round_end))
                        completed.append(flow)
                        continue
                    if delta > 0:
                        self._deliver(flow, delta, round_end)
                    # ACK-clocked growth: scale rounds by the fraction
                    # of the window actually acknowledged during dt.
                    cc = path.cc
                    cwnd = cc.cwnd
                    acked_rounds = share / cwnd if cwnd > 0 else 0.0
                    if acked_rounds > 0:
                        cc.fluid_advance(t, int(acked_rounds * rtt_eff), int(rtt_eff))
                    if virtual_cut:
                        cc.on_congestion_event()
                        self.virtual_losses += 1
                        if tp_vloss.enabled:
                            tp_vloss.emit(
                                round_end, pair=group.pair, tdn=tdn, cwnd=cc.cwnd,
                            )
                if completed:
                    for flow in completed:
                        self._materialize_sender(flow)
                        flow.sender._maybe_send()
                        group.flows.pop(flow.key, None)
                    flows = [f for f in group.flows.values() if f.admitted]
                if hook is not None:
                    hook(round_end, int(round(q_new)))
                t = round_end
        group.last_ns = min(t, to_ns)

    def _deliver(self, flow: FluidFlow, nbytes: int, time_ns: int) -> None:
        """Advance the receiver by ``nbytes`` in-order bytes at a
        historical timestamp and fire the delivery callbacks (sequence
        collectors, engine FCT accounting)."""
        flow.span_bytes += nbytes
        if flow.remaining is not None:
            flow.remaining -= nbytes
        receiver = flow.receiver
        receiver.recv_buffer.rcv_nxt += nbytes
        receiver.recv_buffer.total_delivered += nbytes
        receiver.stats.bytes_delivered += nbytes
        if receiver.on_delivered is not None:
            receiver.on_delivered(time_ns, receiver.stats.bytes_delivered)

    def _materialize_sender(self, flow: FluidFlow) -> None:
        """Bring the sender's packet-level state up to date with what
        the span delivered: scoreboard stays empty, so advancing both
        ``snd_nxt`` and ``snd_una`` by the delivered bytes leaves every
        per-path counter invariant-consistent. Releases the fluid hold;
        the caller decides when the sender next sends."""
        sender = flow.sender
        nbytes = flow.span_bytes
        if nbytes:
            sender.snd_nxt += nbytes
            sender.snd_una = sender.snd_nxt
            sender.stats.bytes_acked += nbytes
            sender.stats.segments_sent += -(-nbytes // self._mss)
        flow.span_bytes = 0
        flow._acc = 0.0
        sender._fluid_hold = False

    def _exit_span(self, group: _Group, reason: str, resume: bool = True) -> None:
        """Advance to now, re-materialize every sender, return the group
        to packet mode, and (unless the run is over) arm a re-entry
        attempt. Sends resume staggered over ~1 RTT so the exit burst
        does not synthesize a synchronized drop the packet run would
        not have had."""
        self._advance_group(group, self.sim.now)
        now = self.sim.now
        group.state = PACKET
        if group.span_event is not None:
            group.span_event.cancel()
            group.span_event = None
        self.exit_reasons[reason] = self.exit_reasons.get(reason, 0) + 1
        span_ns = now - group.span_start_ns
        self.fluid_time_ns += span_ns
        self.sim.fluid_time_ns += span_ns
        flows = list(group.flows.values())
        stagger = 0
        step = self.config.nominal_rtt_ns(0) // max(len(flows), 1)
        for flow in flows:
            self._materialize_sender(flow)
            flow.admitted = False
            if resume:
                if stagger == 0:
                    flow.sender._maybe_send()
                else:
                    self.sim.schedule(stagger, flow.sender._maybe_send)
                stagger += step
        if self._tp_span.enabled:
            self._tp_span.emit(
                now, phase="exit", pair=group.pair, reason=reason,
                span_ns=span_ns, flows=len(flows),
            )
        if resume:
            self._schedule_retry(group)
