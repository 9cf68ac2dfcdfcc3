"""Per-TDN retransmission timer (§4.4).

:func:`pessimistic_rto_ns` — TDTCP cannot predict which TDN an ACK will
return on, so the timeout for a segment sent on TDN *n* assumes the ACK
returns on the slowest TDN: ``RTT_synth = RTT_n/2 + RTT_slowest/2``,
plus the usual 4x variance guard. The type-3 sample filter (data and
ACK crossed different TDNs, so the sample measures
``RTT_i/2 + RTT_j/2``) is ``TDTCPConnection._rtt_sample_allowed``.
"""

from __future__ import annotations

from typing import List

from repro.tcp.connection import PathState
from repro.tcp.rtt import INITIAL_RTO_NS, MAX_RTO_NS


def pessimistic_rto_ns(paths: List[PathState], current_index: int, min_rto_ns: int) -> int:
    """RTO based on the synthesized worst-case return path (§4.4)."""
    current = paths[current_index]
    srtt_n = current.rtt.srtt_ns
    # One pass over the paths for both the slowest srtt and the largest
    # rttvar (the return TDN is unknown, so assume the worst of each).
    slowest = 0
    rttvar = 0
    for p in paths:
        estimator = p.rtt
        srtt = estimator.srtt_ns
        if srtt is not None and srtt > slowest:
            slowest = srtt
        var = estimator.rttvar_ns
        if var is not None and var > rttvar:
            rttvar = var
    if srtt_n is None and slowest == 0:
        return max(INITIAL_RTO_NS, min_rto_ns)
    if srtt_n is None:
        srtt_n = slowest
    synth = srtt_n // 2 + slowest // 2
    rto = synth + max(4 * rttvar, 1)
    return min(max(rto, min_rto_ns), MAX_RTO_NS)
