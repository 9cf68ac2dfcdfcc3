"""MPTCP with the paper's ``tdm_schd`` scheduler (§2.2).

Two subflows, each a full TCP connection with its own sequence space,
pinned to one network each: subflow 0 to the packet network (TDN 0),
subflow 1 to the optical network (TDN 1). A data-level (DSS) sequence
space maps application bytes onto subflows. The tdm scheduler only lets
the subflow matching the active TDN transmit — data *and* pure ACKs —
which is precisely what produces the flow-control stalls the paper
measures; connection-level reinjection (RTO-triggered) remaps stalled
data onto the active subflow at the cost of duplicate transmission.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "scheduler": ("TdmScheduler",),
    "subflow": ("MPTCPSubflow",),
    "connection": ("MPTCPConnection", "create_mptcp_pair"),
})
