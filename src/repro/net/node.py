"""Hosts: endpoints that run transport connections.

A :class:`Host` owns an egress link toward its ToR, demuxes incoming
TCP segments to registered connections, and fans TDN-change
notifications out to subscribed listeners (TDTCP/reTCP stacks).

A notification reaches a host in one of two ways, and both run the same
ingress, :meth:`Host.notification_arrived` (arrival count, freshness
filter, stale accounting — written once): as a ``TDNNotification``
through :meth:`Host.deliver` (links, fault injectors, hand-built
tests), or from the control network's rack walk
(:class:`repro.rdcn.notifier.TDNNotifier`, on either fabric), which asks
with the two header fields and builds a packet only for a host that has
a listener besides the notifier itself. A run in which nothing but the
notifier listens asks the same way, without events, and then refuses
new listeners (:meth:`Host.subscribe_tdn_changes`).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Protocol

from repro.net.addressing import FlowKey
from repro.net.link import Link
from repro.net.packet import Packet, TCPSegment, TDNNotification
from repro.obs.telemetry import Telemetry
from repro.sim.simulator import Simulator


class PacketHandler(Protocol):
    """Anything that can receive a packet (connections implement this)."""

    def receive(self, packet: Packet) -> None: ...


class Host:
    """An end host attached to a ToR switch."""

    def __init__(self, sim: Simulator, address: str):
        self.sim = sim
        self.address = address
        self.egress: Optional[Link] = None
        self._connections: Dict[FlowKey, PacketHandler] = {}
        self._tdn_listeners: List[Callable[[TDNNotification], None]] = []
        self._next_port = 10_000
        self.rx_packets = 0
        self.tx_packets = 0
        # §5.4 host-side notification processing cost model: a per-host
        # delay applied to every notification before listeners see it.
        # The push/pull optimization in the notifier manipulates this.
        self.notification_processing_ns = 0
        # §3.2 degraded-signal tolerance: notifications with an unknown
        # TDN id or a non-increasing notify_seq (duplicates, reordered
        # late arrivals) are counted and ignored, never dispatched.
        # max_tdn_id is set by the notifier from the schedule; None
        # disables the id check (hand-wired unit-test hosts).
        self.max_tdn_id: Optional[int] = None
        self.stale_notifications = 0
        self._last_notify_seq: Optional[int] = None
        # The TDNNotifier announcing to this host (set by its add_rack);
        # None for a hand-wired host.
        self.notifier: Optional[Any] = None
        self._tp_stale = Telemetry.of(sim).tracepoint("notifier:stale")

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach_egress(self, link: Link) -> None:
        """Connect the host's NIC to its ToR via ``link``."""
        self.egress = link

    def allocate_port(self) -> int:
        port = self._next_port
        self._next_port += 1
        return port

    def register_connection(self, key: FlowKey, handler: PacketHandler) -> None:
        if key in self._connections:
            raise ValueError(f"flow already registered: {key}")
        self._connections[key] = handler

    def unregister_connection(self, key: FlowKey) -> None:
        self._connections.pop(key, None)

    def subscribe_tdn_changes(self, callback: Callable[[TDNNotification], None]) -> None:
        """Subscribe to ICMP TDN-change notifications delivered to this
        host. Raises while the host's notifier announces without events
        (the run declared nothing listens): the callback would never run."""
        if self.notifier is not None and self.notifier.event_free:
            raise RuntimeError(
                f"host {self.address}: its notifier announces TDN changes without "
                "events, so this listener would never be called (the run's "
                "connection class declares listens_to_tdn_changes = False)"
            )
        self._tdn_listeners.append(callback)

    def unsubscribe_tdn_changes(self, callback: Callable[[TDNNotification], None]) -> None:
        """Undo :meth:`subscribe_tdn_changes` (no-op for an unknown
        callback). The list is replaced, not mutated: a dispatch in
        progress finishes over the listeners it started with."""
        listeners = self._tdn_listeners
        try:
            index = listeners.index(callback)
        except ValueError:
            return
        self._tdn_listeners = listeners[:index] + listeners[index + 1:]

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def send(self, packet: Packet) -> None:
        """Transmit a packet toward the fabric via the access link."""
        if self.egress is None:
            raise RuntimeError(f"host {self.address} has no egress link")
        self.tx_packets += 1
        self.egress.send(packet)

    def deliver(self, packet: Packet) -> None:
        """Entry point for packets arriving from the ToR."""
        # TCP segments dominate; test for them first.
        if isinstance(packet, TCPSegment):
            self.rx_packets += 1
            # The receiver's view of the 4-tuple, as a plain tuple: a
            # NamedTuple hashes and compares like the tuple of its fields,
            # so the demux lookup skips the FlowKey construction on the
            # per-packet path.
            handler = self._connections.get(
                (packet.dst, packet.dport, packet.src, packet.sport)
            )
            if handler is not None:
                handler.receive(packet)
            # Unmatched segments are dropped silently (no RST modelling).
            return
        if isinstance(packet, TDNNotification):
            if not self.notification_arrived(packet.notify_seq, packet.tdn_id):
                return
            if self.notification_processing_ns > 0:
                self.sim.schedule_fanout(
                    self.notification_processing_ns, self._dispatch_notification, packet
                )
            else:
                self._dispatch_notification(packet)
            return
        # Opaque packets (background traffic) are sinks.
        self.rx_packets += 1

    def notification_arrived(self, notify_seq: Optional[int], tdn_id: int) -> bool:
        """A TDN-change notification reached this host: count the
        arrival and filter it. False for a stale/duplicate/unknown one,
        which is counted and never dispatched (the stack resyncs on the
        next valid one). Takes the two header fields, not a packet, so
        the control network's rack walk can ask before it builds one."""
        self.rx_packets += 1
        if notify_seq is not None:
            last = self._last_notify_seq
            if last is not None and notify_seq <= last:
                self._count_stale(tdn_id, "stale_seq")
                return False
            self._last_notify_seq = notify_seq
        if self.max_tdn_id is not None and not (0 <= tdn_id <= self.max_tdn_id):
            self._count_stale(tdn_id, "unknown_tdn")
            return False
        return True

    def _count_stale(self, tdn_id: int, reason: str) -> None:
        self.stale_notifications += 1
        if self._tp_stale.enabled:
            self._tp_stale.emit(
                self.sim.now,
                where="host",
                name=self.address,
                tdn=tdn_id,
                reason=reason,
            )

    def _dispatch_notification(self, notification: TDNNotification) -> None:
        for listener in self._tdn_listeners:
            listener(notification)
