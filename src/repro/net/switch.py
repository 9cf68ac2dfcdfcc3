"""Switches.

:class:`ToRSwitch` is the top-of-rack switch of Figure 1/6: it forwards
rack-local traffic straight down the destination host's access link, and
cross-rack traffic into a time-multiplexed uplink (the RDCN fabric,
provided by :mod:`repro.rdcn.fabric`). The ToR is also the entity that
generates TDN-change notifications (wired up by the notifier).
"""

from __future__ import annotations

from typing import Dict, Optional, Protocol

from repro.net.addressing import _rack_of_cache, rack_of
from repro.net.link import Link
from repro.net.packet import Packet
from repro.net.queues import DropTailQueue
from repro.sim.simulator import Simulator


class Uplink(Protocol):
    """What a ToR needs from its fabric uplink."""

    def enqueue(self, packet: Packet) -> bool: ...


class ToRSwitch:
    """Top-of-rack switch: local delivery plus one fabric uplink per
    remote rack (this reproduction uses the paper's two-rack topology,
    so there is a single remote rack, but the structure generalizes)."""

    def __init__(self, sim: Simulator, rack: int, name: Optional[str] = None):
        self.sim = sim
        self.rack = rack
        self.name = name or f"tor{rack}"
        self._downlinks: Dict[str, Link] = {}
        self._uplinks: Dict[int, Uplink] = {}
        self.forwarded_local = 0
        self.forwarded_fabric = 0

    def add_downlink(self, host_addr: str, link: Link) -> None:
        if rack_of(host_addr) != self.rack:
            raise ValueError(f"{host_addr} is not in rack {self.rack}")
        self._downlinks[host_addr] = link

    def add_uplink(self, remote_rack: int, uplink: Uplink) -> None:
        self._uplinks[remote_rack] = uplink

    @property
    def voqs(self) -> Dict[int, DropTailQueue]:
        """The VOQ toward each remote rack (``OperaToR.voqs``' shape)."""
        return {rack: uplink.queue for rack, uplink in self._uplinks.items()}

    def forward(self, packet: Packet) -> None:
        """Forward a packet from a local host or from the fabric."""
        dst = packet.dst
        # Inline the rack_of memo hit (every forwarded packet pays this).
        dst_rack = _rack_of_cache.get(dst)
        if dst_rack is None:
            dst_rack = rack_of(dst)
        if dst_rack == self.rack:
            link = self._downlinks.get(dst)
            if link is None:
                raise KeyError(f"{self.name}: unknown local host {dst}")
            self.forwarded_local += 1
            link.send(packet)
            return
        uplink = self._uplinks.get(dst_rack)
        if uplink is None:
            raise KeyError(f"{self.name}: no uplink toward rack {dst_rack}")
        self.forwarded_fabric += 1
        uplink.enqueue(packet)
