"""Network substrate: packets, links, queues, hosts, and switches."""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "addressing": ("FlowKey",),
    "packet": ("Packet", "TCPSegment", "TDNNotification"),
    "link": ("Link",),
    "queues": ("DropTailQueue",),
    "node": ("Host", "PacketHandler"),
    "switch": ("ToRSwitch",),
    "capture": ("PacketCapture", "dissect"),
    "pcap": ("write_pcap",),
})
