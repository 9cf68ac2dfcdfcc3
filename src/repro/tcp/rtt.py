"""RTT estimation and RTO computation (RFC 6298) with Karn's rule.

The estimator also tracks the minimum RTT (used by RACK's reorder
window). Callers enforce Karn's rule by simply not feeding samples from
retransmitted segments.
"""

from __future__ import annotations

from typing import Optional

from repro.units import msec

#: RTO before the first sample and the ceiling of any (backed-off) RTO.
#: The minimum is the one RTO bound a run sets (``TCPConfig.min_rto_ns``).
INITIAL_RTO_NS = msec(2)
MAX_RTO_NS = msec(500)


class RTTEstimator:
    """srtt/rttvar in nanoseconds, RFC 6298 smoothing."""

    ALPHA = 1 / 8
    BETA = 1 / 4

    def __init__(self, min_rto_ns: int):
        if not 0 < min_rto_ns <= MAX_RTO_NS:
            raise ValueError("invalid RTO bounds")
        self.min_rto_ns = min_rto_ns
        self.srtt_ns: Optional[int] = None
        self.rttvar_ns: Optional[int] = None
        self.min_rtt_ns: Optional[int] = None
        self.latest_rtt_ns: Optional[int] = None

    def update(self, sample_ns: int) -> None:
        """Feed one RTT sample (from a never-retransmitted segment)."""
        if sample_ns <= 0:
            return
        self.latest_rtt_ns = sample_ns
        if self.min_rtt_ns is None or sample_ns < self.min_rtt_ns:
            self.min_rtt_ns = sample_ns
        if self.srtt_ns is None:
            self.srtt_ns = sample_ns
            self.rttvar_ns = sample_ns // 2
            return
        assert self.rttvar_ns is not None
        err = abs(sample_ns - self.srtt_ns)
        self.rttvar_ns = int((1 - self.BETA) * self.rttvar_ns + self.BETA * err)
        self.srtt_ns = int((1 - self.ALPHA) * self.srtt_ns + self.ALPHA * sample_ns)

    def rto_ns(self) -> int:
        """Current retransmission timeout."""
        if self.srtt_ns is None:
            return max(INITIAL_RTO_NS, self.min_rto_ns)
        assert self.rttvar_ns is not None
        rto = self.srtt_ns + max(4 * self.rttvar_ns, 1)
        return min(max(rto, self.min_rto_ns), MAX_RTO_NS)
