"""Reno / NewReno congestion control (RFC 5681 / 6582).

Slow start doubles per RTT; congestion avoidance adds one MSS per RTT;
a congestion event halves the window.
"""

from __future__ import annotations

from typing import Optional

from repro.tcp.cc.base import CCClock, CongestionControl, register_cc


@register_cc("reno")
class RenoCC(CongestionControl):
    """Classic AIMD with SACK-aware fast recovery handled by the
    connection; this class only does the window arithmetic."""

    BETA = 0.5  # multiplicative decrease factor

    def __init__(self, clock: CCClock, initial_cwnd: float = 10.0):
        super().__init__(clock, initial_cwnd)
        self._avoidance_credit = 0.0

    def on_ack(self, acked_packets: int, rtt_ns: Optional[int], in_flight: int, ece: bool = False) -> None:
        if acked_packets <= 0:
            return
        if self.in_slow_start:
            # Grow one MSS per ACKed MSS, but do not overshoot ssthresh
            # (standard "slow start exits at ssthresh" behaviour).
            grow = min(float(acked_packets), max(self.ssthresh - self.cwnd, 0.0)) \
                if self.ssthresh != float("inf") else float(acked_packets)
            self.cwnd += grow
            acked_packets -= int(grow)
            if acked_packets <= 0:
                return
        # Congestion avoidance: cwnd += acked / cwnd.
        self._avoidance_credit += acked_packets / max(self.cwnd, 1.0)
        if self._avoidance_credit >= 1.0:
            whole = int(self._avoidance_credit)
            self.cwnd += whole
            self._avoidance_credit -= whole

    def on_congestion_event(self) -> None:
        self.ssthresh = max(self.cwnd * self.BETA, self.min_cwnd)
        self.cwnd = self.ssthresh
        self._avoidance_credit = 0.0
