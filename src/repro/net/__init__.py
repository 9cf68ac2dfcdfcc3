"""Network substrate: packets, links, queues, hosts, and switches."""

from repro.net.addressing import FlowKey
from repro.net.packet import Packet, TCPSegment, TDNNotification
from repro.net.link import Link
from repro.net.queues import DropTailQueue
from repro.net.node import Host, PacketHandler
from repro.net.switch import ToRSwitch
from repro.net.capture import PacketCapture, dissect
from repro.net.pcap import write_pcap

__all__ = [
    "PacketCapture",
    "dissect",
    "write_pcap",
    "FlowKey",
    "Packet",
    "TCPSegment",
    "TDNNotification",
    "Link",
    "DropTailQueue",
    "Host",
    "PacketHandler",
    "ToRSwitch",
]
