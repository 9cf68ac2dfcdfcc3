"""CUBIC congestion control (RFC 8312).

The window grows as ``W(t) = C*(t - K)^3 + W_max`` since the last
congestion event, with a TCP-friendly (Reno emulation) floor and fast
convergence. This is the CCA the paper runs both standalone ("cubic")
and inside every TDN of TDTCP.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.tcp.cc.base import (
    INFINITE_SSTHRESH,
    CCClock,
    CongestionControl,
    register_cc,
)
from repro.units import SEC


@register_cc("cubic")
class CubicCC(CongestionControl):
    """CUBIC in MSS units with nanosecond epochs."""

    C = 0.4          # scaling constant (units: MSS / s^3)
    BETA = 0.7       # multiplicative decrease factor
    # RFC 8312 §4.2 Reno-emulation gain, 3*(1-BETA)/(1+BETA) MSS per
    # RTT's worth of ACKs (precomputed: it is paid on every ACK).
    _RENO_GAIN = 3.0 * (1.0 - BETA) / (1.0 + BETA)

    def __init__(self, clock: CCClock, initial_cwnd: float = 10.0):
        super().__init__(clock, initial_cwnd)
        self.w_max: float = 0.0
        self.w_last_max: float = 0.0
        self.epoch_start_ns: Optional[int] = None
        self.k_seconds: float = 0.0
        self._tcp_cwnd: float = 0.0       # Reno-emulation estimate
        self._avoidance_credit = 0.0

    # ------------------------------------------------------------------
    def _begin_epoch(self, now_ns: int) -> None:
        self.epoch_start_ns = now_ns
        if self.cwnd < self.w_max:
            self.k_seconds = ((self.w_max - self.cwnd) / self.C) ** (1.0 / 3.0)
        else:
            self.k_seconds = 0.0
            self.w_max = self.cwnd
        self._tcp_cwnd = self.cwnd

    def _cubic_target(self, now_ns: int) -> float:
        assert self.epoch_start_ns is not None
        t = (now_ns - self.epoch_start_ns) / SEC
        return self.C * (t - self.k_seconds) ** 3 + self.w_max

    def on_ack(self, acked_packets: int, rtt_ns: Optional[int], in_flight: int, ece: bool = False) -> None:
        if acked_packets <= 0:
            return
        # The slow-start→avoidance handoff must be exact: an ACK batch
        # that straddles ssthresh spends part of its credit filling the
        # gap to ssthresh and hands only the fractional remainder to the
        # cubic region (truncating here double-spends the fraction).
        acked = float(acked_packets)
        cwnd = self.cwnd
        ssthresh = self.ssthresh
        if cwnd < ssthresh:  # in_slow_start, property flattened
            if ssthresh == INFINITE_SSTHRESH:
                grow = acked
            else:
                gap = ssthresh - cwnd
                grow = min(acked, gap if gap > 0.0 else 0.0)
            cwnd += grow
            self.cwnd = cwnd
            acked -= grow
            if acked <= 0.0:
                return
        now = self.clock.now_ns()
        if self.epoch_start_ns is None:
            self._begin_epoch(now)
        # _cubic_target inlined (it stays as the reference formula).
        t = (now - self.epoch_start_ns) / SEC
        target = self.C * (t - self.k_seconds) ** 3 + self.w_max
        denom = cwnd if cwnd > 1.0 else 1.0
        # TCP-friendly region: per RFC 8312 §4.2 the Reno estimate grows
        # on every ACK — the update is not contingent on an RTT sample.
        tcp_cwnd = self._tcp_cwnd + self._RENO_GAIN * acked / denom
        self._tcp_cwnd = tcp_cwnd
        if tcp_cwnd > target:
            target = tcp_cwnd
        credit = self._avoidance_credit
        if target > cwnd:
            # Approach the target over roughly one RTT of ACKs.
            credit += (target - cwnd) * acked / denom
        else:
            # Mild growth so the window is not frozen below target
            # (RFC 8312's 1%/RTT "max probing").
            credit += 0.01 * acked / denom
        if credit >= 1.0:
            whole = int(credit)
            self.cwnd = cwnd + whole
            credit -= whole
        self._avoidance_credit = credit

    def on_congestion_event(self) -> None:
        now = self.clock.now_ns()
        if self.cwnd < self.w_last_max:  # fast convergence (RFC 8312 §4.6)
            self.w_last_max = self.cwnd
            self.w_max = self.cwnd * (1.0 + self.BETA) / 2.0
        else:
            self.w_last_max = self.cwnd
            self.w_max = self.cwnd
        self.ssthresh = max(self.cwnd * self.BETA, self.min_cwnd)
        self.cwnd = self.ssthresh
        self.epoch_start_ns = None
        self._avoidance_credit = 0.0
        del now

    def on_rto(self) -> None:
        super().on_rto()
        self.epoch_start_ns = None
        self.w_max = max(self.w_max, self.cwnd)
        self._avoidance_credit = 0.0

    def fluid_advance(self, now_ns: int, dt_ns: int, rtt_ns: int) -> None:
        """Closed-form CUBIC growth over ``dt_ns`` of loss-free transfer.

        Evaluates ``W(t) = C*(t-K)^3 + W_max`` at the end of the interval
        directly against the fluid epoch clock (``now_ns`` is virtual
        time, not ``self.clock``) and applies the RFC 8312 TCP-friendly
        Reno floor accrued over ``dt_ns / rtt_ns`` rounds. At the paper's
        sub-millisecond timescales the Reno floor dominates (K is
        seconds-scale), matching the packet-mode per-ACK updates.
        """
        if dt_ns <= 0 or rtt_ns <= 0:
            return
        rounds = dt_ns / rtt_ns
        cwnd = self.cwnd
        ssthresh = self.ssthresh
        if cwnd < ssthresh:
            if ssthresh == INFINITE_SSTHRESH:
                self.cwnd = cwnd * (2.0 ** rounds)
                return
            grown = cwnd * (2.0 ** rounds)
            if grown <= ssthresh:
                self.cwnd = grown
                return
            # Exact handoff at ssthresh, remainder in the cubic region.
            rounds -= math.log2(ssthresh / cwnd)
            cwnd = ssthresh
            self.cwnd = cwnd
        if self.epoch_start_ns is None:
            self._begin_epoch(now_ns)
        end_ns = now_ns + dt_ns
        target = self._cubic_target(end_ns)
        # Reno-emulation floor: _RENO_GAIN MSS per RTT's worth of ACKs.
        self._tcp_cwnd += self._RENO_GAIN * rounds
        if self._tcp_cwnd > target:
            target = self._tcp_cwnd
        # The fluid span has no per-ACK pacing to smooth toward the
        # target, so take it directly (monotone — never shrink).
        if target > cwnd:
            self.cwnd = target

