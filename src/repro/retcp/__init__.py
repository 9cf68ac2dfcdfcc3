"""reTCP (Mukerjee et al., NSDI 2020) — the RDCN-specific baseline.

reTCP relies on explicit switch support: ToRs mark packets that
traverse the optical circuit, and senders react to the mark's
appearance/disappearance by multiplicatively scaling their congestion
window. The "dynamic buffer" variant (``retcpdyn``) additionally has
the ToR enlarge its VOQ ahead of each circuit day and explicitly
notify senders to ramp up early, pre-filling the queue so transmission
starts at circuit rate immediately.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "retcp": ("ReTCPConnection",),
    "dynbuf": ("DynamicBufferController",),
})
