"""TDTCP — the paper's contribution (§3, §4).

:class:`TDTCPConnection` multiplexes one congestion-control state set
per time-division network (TDN) over a single connection-level sequence
space, switches the active set on ToR-generated ICMP notifications,
relaxes the fast-retransmit heuristics across TDN changes, and keeps
per-TDN RTT models with cross-TDN (type-3) sample filtering and a
pessimistic retransmission timer.
"""

from repro.core.tdtcp import TDTCPConnection
from repro.core.tdn_state import PerTDNState
from repro.core.reordering import suspect_cross_tdn_reordering
from repro.core.rtt import pessimistic_rto_ns

__all__ = [
    "TDTCPConnection",
    "PerTDNState",
    "suspect_cross_tdn_reordering",
    "pessimistic_rto_ns",
]
