"""The TDTCP connection (§3, §4).

Subclasses the base TCP connection, which was written path-generic:
TDTCP supplies one :class:`PathState` per TDN, switches the active one
on ICMP notifications, and overrides four hooks:

* ``_should_mark_lost`` — the relaxed reordering detection of §3.4;
* ``_rtt_sample_allowed`` — the type-3 sample filter of §4.4;
* ``_rto_ns`` — the pessimistic synthesized RTO of §4.4;
* ``_rack_reo_wnd`` — a widened RACK reorder window for cross-TDN
  segments, so exempted segments that really were lost are recovered
  by the reorder timer (RACK-TLP fallback).
"""

from __future__ import annotations

from functools import partial
from typing import List, Optional, Tuple

from repro.core.reordering import suspect_cross_tdn_reordering
from repro.core.rtt import pessimistic_rto_ns
from repro.core.tdn_state import PerTDNState
from repro.net.node import Host
from repro.net.packet import MAX_TDN_ID, TCPSegment, TDNNotification
from repro.obs.telemetry import Telemetry
from repro.sim.simulator import Simulator
from repro.sim.timers import Timer
from repro.tcp.config import TCPConfig
from repro.tcp.connection import CLOSE_WAIT, DUPTHRESH, ESTABLISHED
from repro.tcp.connection import LossTrigger, PathState, SegmentState, TCPConnection
from repro.tcp.options import negotiate_td_capable
from repro.tcp.rack import default_reo_wnd_ns


def _new_path(clock: Simulator, config: TCPConfig, cc_name: str,
              cc_names: Optional[List[str]], tdn_id: int) -> PathState:
    """One TDN's state set: ``cc_names[tdn_id]`` when named, else ``cc_name``."""
    if cc_names is not None and tdn_id < len(cc_names):
        cc_name = cc_names[tdn_id]
    return PathState(clock, cc_name, config, tdn_id=tdn_id)


class TDTCPConnection(TCPConnection):
    """TCP with time-division multiplexed congestion state."""

    listens_to_tdn_changes = True

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
        tdn_count: int = 2,
        switch_pacing: bool = True,
        cc_names: Optional[List[str]] = None,
    ):
        if tdn_count < 1:
            raise ValueError("TDTCP needs at least one TDN")
        if cc_names is not None and len(cc_names) != tdn_count:
            raise ValueError("cc_names must name one CCA per TDN")
        self.tdn_count = tdn_count
        # §3.5: "In principle, TDTCP could use multiple, different CCAs
        # within a single flow." One name per TDN; None = cc_name
        # everywhere (the paper's configuration: CUBIC in all TDNs).
        self.cc_names = list(cc_names) if cc_names is not None else None
        self.downgraded = False
        super().__init__(
            sim,
            host,
            remote_addr,
            remote_port,
            local_port=local_port,
            cc_name=cc_name,
            config=config,
            name=name,
        )
        self.td_capable_tdns = tdn_count  # advertised in the SYN options
        self.notifications_seen = 0
        # §3.2 degraded-signal tolerance: stale/duplicate/garbage
        # notifications are counted and ignored, never applied or raised.
        self.stale_notifications = 0
        self._last_notify_seq: Optional[int] = None
        self._tp_stale = Telemetry.of(sim).tracepoint("notifier:stale")
        # §5.2: "techniques such as sender pacing can help prevent the
        # potential switch buffer overflow" — the resumed window of a
        # freshly activated TDN is paced over ~one RTT instead of being
        # blasted as a single line-rate burst at the gated VOQ.
        self.switch_pacing = switch_pacing
        self._pace_until_ns = 0
        self._pace_timer = Timer(sim, self._on_pace_tick, name=f"{self.name}-pace")
        self._tp_tdn_switch = Telemetry.of(sim).tracepoint("tdtcp:tdn_switch")
        host.subscribe_tdn_changes(self._on_tdn_notification)

    # ------------------------------------------------------------------
    # Path construction
    # ------------------------------------------------------------------
    def _make_paths(self) -> List[PathState]:
        # One state set per TDN. The base class holds the same list
        # object, so its path queries see every set; the current index
        # is mirrored on every switch. The factory holds the clock, the
        # config and the CCA names, never the connection, so the state
        # sets form no reference cycle with it.
        self.tdn_state = PerTDNState(
            partial(_new_path, self.sim, self.config, self.cc_name, self.cc_names),
            self.tdn_count,
        )
        return self.tdn_state.paths

    # ------------------------------------------------------------------
    # Negotiation / downgrade (§4.2, A.2)
    # ------------------------------------------------------------------
    def _negotiate(self, peer_tdns: Optional[int]) -> Optional[int]:
        agreed = negotiate_td_capable(self.tdn_count, peer_tdns)
        if agreed is None:
            self.downgrade()
        return agreed

    def downgrade(self) -> None:
        """Fall back to regular single-path TCP (local side only).

        The peer may keep sending TDTCP options; we stop tagging and
        stop per-TDN switching. Useful for debugging per the paper.
        """
        self.downgraded = True
        self.tdn_state.switch_to(0)
        self.current_path_index = 0

    @property
    def is_tdtcp(self) -> bool:
        return not self.downgraded

    # ------------------------------------------------------------------
    # TDN change notification (§3.2)
    # ------------------------------------------------------------------
    def _on_tdn_notification(self, notification: TDNNotification) -> None:
        self.notifications_seen += 1
        if self.downgraded:
            return
        seq = notification.notify_seq
        if seq is not None:
            last = self._last_notify_seq
            if last is not None and seq <= last:
                self._count_stale(notification, "stale_seq")
                return
            self._last_notify_seq = seq
        tdn_id = notification.tdn_id
        if tdn_id < 0 or tdn_id > MAX_TDN_ID:
            self._count_stale(notification, "unknown_tdn")
            return
        self.set_current_tdn(tdn_id)

    def _count_stale(self, notification: TDNNotification, reason: str) -> None:
        self.stale_notifications += 1
        if self._tp_stale.enabled:
            self._tp_stale.emit(
                self.sim.now,
                where="connection",
                name=self.name,
                tdn=notification.tdn_id,
                reason=reason,
            )

    def set_current_tdn(self, tdn_id: int) -> None:
        """Swap in the state set for ``tdn_id`` (no-op if unchanged)."""
        previous = self.tdn_state.current_index
        if self.tdn_state.switch_to(tdn_id):
            self.current_path_index = self.tdn_state.current_index
            # TDN change pointer (§3.4): first sequence of the new TDN.
            self.tdn_change_seq = self.snd_nxt
            if self._tp_tdn_switch.enabled:
                self._tp_tdn_switch.emit(
                    self.sim.now,
                    conn=self.name,
                    from_tdn=previous,
                    to_tdn=self.tdn_state.current_index,
                    saved_cwnd=self.paths[previous].cc.cwnd,
                    restored_cwnd=self.current_path.cc.cwnd,
                    snd_nxt=self.snd_nxt,
                    switches=self.tdn_state.switches,
                )
            if self.switch_pacing:
                self._pace_until_ns = self.sim.now + self._pace_horizon_ns()
            # The new TDN's window may be wide open: send immediately.
            self._maybe_send()

    # ------------------------------------------------------------------
    # Post-switch burst pacing
    # ------------------------------------------------------------------
    def _pace_horizon_ns(self) -> int:
        """Pace the resumed window over roughly one RTT of the new TDN."""
        srtt = self.current_path.rtt.srtt_ns
        return srtt if srtt is not None else 100_000

    def _pace_interval_ns(self) -> int:
        path = self.current_path
        srtt = path.rtt.srtt_ns or 100_000
        return max(int(srtt / max(path.cc.cwnd, 1.0)), 200)

    def _maybe_send(self) -> None:
        if self._fluid_hold:
            # Tiered fidelity: the fluid model owns the transfer. Gating
            # here (not just in the base class) also keeps the pace
            # timer from re-arming through the paced branch below.
            return
        if not self.switch_pacing or self.sim.now >= self._pace_until_ns:
            self._pace_timer.cancel()
            super()._maybe_send()
            return
        # One segment per interval; a tick only while paced work (unsent
        # data, a due retransmit) is left. The FIN is not paced.
        if self._pace_timer.armed or self.state not in (ESTABLISHED, CLOSE_WAIT):
            return
        self._try_send_one()
        if self._retx_pending or self.send_buffer.available_beyond(self.snd_nxt - self._stream_base):
            self._pace_timer.start(self._pace_interval_ns())
        else:
            self._check_fin_progress()

    def _on_pace_tick(self) -> None:
        self._maybe_send()

    def _quiesce(self) -> None:
        # A finished flow has no window to resume (§5.2) and no state
        # set to switch (§3.2): off the host's listener list, no ticks.
        super()._quiesce()
        self.host.unsubscribe_tdn_changes(self._on_tdn_notification)

    def _timers(self) -> Tuple[Timer, ...]:
        return super()._timers() + (self._pace_timer,)

    @property
    def current_tdn(self) -> int:
        return self.tdn_state.current_index

    # ------------------------------------------------------------------
    # Wire tagging (TD_DATA_ACK, §4.1)
    # ------------------------------------------------------------------
    @property
    def wire_tdn(self) -> Optional[int]:
        if self.downgraded:
            return None
        return self.tdn_state.current_index

    # ------------------------------------------------------------------
    # Relaxed reordering detection (§3.4)
    # ------------------------------------------------------------------
    def _dup_rule_satisfied(self, seg, sacked_above_total, sacked_above_by_tdn) -> bool:
        """§3.4 relaxed detection, evidence side.

        Two conditions replace the classic dup-threshold:

        * the hole must postdate the TDN change pointer — segments sent
          before the last switch can be overtaken even by same-tagged
          data (queued packets ride the new network while in-flight
          ones finish on the old wire), so they are left to the
          RACK-TLP reorder timer;
        * the SACKed evidence above the hole must come from the *same*
          TDN — deliveries on another (typically faster) TDN say
          nothing about this one; those ACKs are merely delayed.
        """
        if self.downgraded:
            return super()._dup_rule_satisfied(seg, sacked_above_total, sacked_above_by_tdn)
        if seg.seq < self.tdn_change_seq:
            return False
        return sacked_above_by_tdn.get(seg.tdn_id, 0) >= DUPTHRESH

    def _should_mark_lost(self, seg: SegmentState, trigger: LossTrigger) -> bool:
        if self.downgraded:
            return True
        if trigger.kind == "rack":
            # RACK's ACK-path marking keeps the TDN/change-pointer
            # filter; true tail losses are recovered by the reorder
            # timer, which bypasses this check.
            if suspect_cross_tdn_reordering(
                seg.tdn_id, trigger.ack_tdn, seg.seq, self.tdn_change_seq
            ):
                return False
        return True

    def _rack_reo_wnd(self, seg: SegmentState) -> int:
        """Cross-TDN segments get a window wide enough to cover the
        worst-case ACK return path before the timer declares them lost:
        the §4.4 synthesized delay — half the segment's own TDN RTT
        plus half the slowest TDN's RTT."""
        base = default_reo_wnd_ns(self.path_of(seg).rtt.min_rtt_ns)
        if self.downgraded:
            return base
        if seg.tdn_id != self.tdn_state.current_index:
            # §4.4's synthesized worst-case return: half the segment's
            # own TDN RTT plus half the slowest TDN's RTT on top of the
            # normal window.
            own = self.path_of(seg).rtt.srtt_ns or 0
            slowest = self.tdn_state.slowest_srtt_ns()
            return base + own // 2 + slowest // 2
        return base

    # ------------------------------------------------------------------
    # Per-TDN RTT estimation (§4.4)
    # ------------------------------------------------------------------
    def _rtt_sample_allowed(self, seg: SegmentState, pkt: TCPSegment) -> bool:
        if self.downgraded:
            return True
        # Type-3 filter: data TDN must match ACK TDN.
        return pkt.ack_tdn is None or seg.tdn_id == pkt.ack_tdn

    def _cc_credit_allowed(self, path_index: int, pkt: TCPSegment) -> bool:
        """§3.1: samples from different TDNs must not pollute each
        other — an ACK returning on TDN j must not grow TDN i's window.
        The pipe accounting (packets_out et al.) is still updated; only
        the congestion model of the inactive TDN stays frozen."""
        if self.downgraded:
            return True
        return pkt.ack_tdn is None or path_index == pkt.ack_tdn

    def _rto_ns(self) -> int:
        if self.downgraded:
            return super()._rto_ns()
        return pessimistic_rto_ns(
            self.paths, self.tdn_state.current_index, self.config.min_rto_ns
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        data = super().snapshot()
        data.update(
            {
                "tdtcp": self.is_tdtcp,
                "current_tdn": self.tdn_state.current_index,
                "tdn_switches": self.tdn_state.switches,
                "tdn_change_seq": self.tdn_change_seq,
            }
        )
        return data
