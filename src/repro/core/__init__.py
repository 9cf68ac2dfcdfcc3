"""TDTCP — the paper's contribution (§3, §4).

:class:`TDTCPConnection` multiplexes one congestion-control state set
per time-division network (TDN) over a single connection-level sequence
space, switches the active set on ToR-generated ICMP notifications,
relaxes the fast-retransmit heuristics across TDN changes, and keeps
per-TDN RTT models with cross-TDN (type-3) sample filtering and a
pessimistic retransmission timer.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "tdtcp": ("TDTCPConnection",),
    "tdn_state": ("PerTDNState",),
    "reordering": ("suspect_cross_tdn_reordering",),
    "rtt": ("pessimistic_rto_ns",),
})
