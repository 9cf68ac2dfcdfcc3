"""DCTCP congestion control (Alizadeh et al., SIGCOMM 2010).

The switch CE-marks packets above queue threshold K; the receiver echoes
marks; the sender maintains ``alpha``, an EWMA of the marked fraction
per window, and reduces ``cwnd`` by ``alpha/2`` once per window when
marks were seen. Loss handling falls back to Reno-style halving.
"""

from __future__ import annotations

from typing import Optional

from repro.tcp.cc.base import CCClock, CongestionControl, register_cc


@register_cc("dctcp")
class DCTCPCC(CongestionControl):
    """DCTCP window arithmetic; the connection feeds per-ACK ECE bits."""

    wants_ecn = True
    G = 1 / 16  # alpha EWMA gain

    def __init__(self, clock: CCClock, initial_cwnd: float = 10.0):
        super().__init__(clock, initial_cwnd)
        self.alpha = 1.0  # start conservative, converges quickly
        self._acked_in_window = 0
        self._marked_in_window = 0
        self._window_acked_target = max(int(initial_cwnd), 1)
        self._avoidance_credit = 0.0

    def on_ack(self, acked_packets: int, rtt_ns: Optional[int], in_flight: int, ece: bool = False) -> None:
        if acked_packets <= 0:
            return
        self._acked_in_window += acked_packets
        if ece:
            self._marked_in_window += acked_packets
        # Window growth: identical to Reno.
        if self.in_slow_start:
            grow = min(float(acked_packets), max(self.ssthresh - self.cwnd, 0.0)) \
                if self.ssthresh != float("inf") else float(acked_packets)
            self.cwnd += grow
            remaining = acked_packets - int(grow)
        else:
            remaining = acked_packets
        if remaining > 0 and not self.in_slow_start:
            self._avoidance_credit += remaining / max(self.cwnd, 1.0)
            if self._avoidance_credit >= 1.0:
                whole = int(self._avoidance_credit)
                self.cwnd += whole
                self._avoidance_credit -= whole
        # One observation window ~ one cwnd of ACKs.
        if self._acked_in_window >= self._window_acked_target:
            self._end_window()

    def _end_window(self) -> None:
        fraction = self._marked_in_window / max(self._acked_in_window, 1)
        self.alpha = (1 - self.G) * self.alpha + self.G * fraction
        if self._marked_in_window > 0:
            # ECN-triggered reduction, once per window.
            self.cwnd = max(self.cwnd * (1.0 - self.alpha / 2.0), self.min_cwnd)
            self.ssthresh = self.cwnd
        self._acked_in_window = 0
        self._marked_in_window = 0
        self._window_acked_target = max(int(self.cwnd), 1)

    def on_congestion_event(self) -> None:
        # Packet loss: fall back to standard halving.
        self.ssthresh = max(self.cwnd * 0.5, self.min_cwnd)
        self.cwnd = self.ssthresh
        self._avoidance_credit = 0.0

