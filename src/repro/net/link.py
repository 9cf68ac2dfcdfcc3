"""Point-to-point links.

A :class:`Link` is unidirectional: it serializes packets one at a time at
``rate_bps``, then delivers them ``prop_delay_ns`` later to a handler.
An unbounded FIFO absorbs bursts: every link is a host access link whose
sender is already window-limited, and bounded queues with drops live in
the fabric (:mod:`repro.net.queues`).
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.net.packet import Packet
from repro.sim.simulator import Simulator
from repro.units import serialization_delay_ns


class Link:
    """Unidirectional serializing link with an internal FIFO.

    ``deliver`` is called with each packet after serialization plus
    propagation.
    """

    def __init__(
        self,
        sim: Simulator,
        rate_bps: float,
        prop_delay_ns: int,
        deliver: Callable[[Packet], None],
        name: str = "link",
    ):
        if rate_bps <= 0:
            raise ValueError("link rate must be positive")
        if prop_delay_ns < 0:
            raise ValueError("propagation delay cannot be negative")
        self.sim = sim
        self.rate_bps = rate_bps
        self.prop_delay_ns = prop_delay_ns
        self.deliver = deliver
        self.name = name
        self._fifo: deque[Packet] = deque()
        self._busy = False
        self.tx_packets = 0
        self.tx_bytes = 0
        self.queued_bytes = 0
        # Fault-injection gate (repro.faults link_flap): while down, new
        # sends are refused and packets finishing serialization die on
        # the wire instead of being delivered.
        self.down = False
        self.fault_drops = 0
        # Per-size serialization delay memo: packet sizes in a run come
        # from a handful of fixed values (MSS + header combinations), so
        # the float division/round is paid once per distinct size.
        self._tx_delay_cache: dict = {}

    def send(self, packet: Packet) -> bool:
        """Enqueue a packet for transmission. Returns False when the link
        is down (the packet is lost)."""
        if self.down:
            packet.dropped = True
            self.fault_drops += 1
            return False
        if self._busy:
            self._fifo.append(packet)
            self.queued_bytes += packet.size
            return True
        # Idle link: start serializing immediately, skipping the FIFO
        # append/popleft round-trip (queued_bytes nets to the same value
        # either way, and nothing observes the transient). _start_next
        # stays as the reference for the busy path.
        self._busy = True
        size = packet.size
        tx_delay = self._tx_delay_cache.get(size)
        if tx_delay is None:
            tx_delay = serialization_delay_ns(size, self.rate_bps)
            self._tx_delay_cache[size] = tx_delay
        self.tx_packets += 1
        self.tx_bytes += size
        sim = self.sim
        sim._queue.push(sim.now + tx_delay, self._tx_done, (packet,))
        return True

    def backlog_ns(self) -> int:
        """Drain time of the bytes currently waiting on this link —
        what anything sharing the interface must sit behind."""
        return serialization_delay_ns(self.queued_bytes, self.rate_bps)

    def _start_next(self) -> None:
        if not self._fifo:
            self._busy = False
            return
        self._busy = True
        packet = self._fifo.popleft()
        size = packet.size
        self.queued_bytes -= size
        tx_delay = self._tx_delay_cache.get(size)
        if tx_delay is None:
            tx_delay = serialization_delay_ns(size, self.rate_bps)
            self._tx_delay_cache[size] = tx_delay
        self.tx_packets += 1
        self.tx_bytes += size
        # Links schedule two events per forwarded packet — the busiest
        # schedule sites in the whole simulator.
        sim = self.sim
        sim._queue.push(sim.now + tx_delay, self._tx_done, (packet,))

    def _tx_done(self, packet: Packet) -> None:
        if self.down:
            # The wire died mid-flight: the packet is lost, but keep
            # draining the FIFO so the link recovers cleanly on revival.
            packet.dropped = True
            self.fault_drops += 1
            if self._fifo:
                self._start_next()
            else:
                self._busy = False
            return
        sim = self.sim
        sim._queue.push(sim.now + self.prop_delay_ns, self.deliver, (packet,))
        # _start_next's empty-FIFO early-out inlined: most _tx_done
        # calls find nothing else queued.
        if self._fifo:
            self._start_next()
        else:
            self._busy = False
