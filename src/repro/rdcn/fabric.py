"""The time-multiplexed rack-to-rack fabric.

Each ToR has one :class:`RackUplink` per remote rack: a VOQ drained by
whichever network (TDN) is currently active. During a night the VOQ is
gated — nothing is dequeued — which is exactly Etalon's reconfiguration
blackout. Packets already serialized onto the wire when a night begins
continue to their destination (they are physically in flight).

The uplink stamps each dequeued packet with the network that carried it
(``packet.network_id``) and applies the reTCP circuit mark when the
carrying network is marked as a circuit (§6, reTCP's switch support).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional, Tuple

from repro.net.addressing import host_address
from repro.net.link import Link
from repro.net.node import Host
from repro.net.packet import Packet, TCPSegment
from repro.net.queues import DropTailQueue, SharedBufferPool
from repro.sim.simulator import Simulator
from repro.units import serialization_delay_ns


@dataclass(frozen=True)
class NetworkPath:
    """Physical characteristics of one TDN's network."""

    tdn_id: int
    rate_bps: float
    one_way_delay_ns: int
    is_circuit: bool = False
    name: str = ""

    def __post_init__(self) -> None:
        if self.rate_bps <= 0:
            raise ValueError("path rate must be positive")
        if self.one_way_delay_ns < 0:
            raise ValueError("path delay cannot be negative")


class RackUplink:
    """One direction of the cross-rack fabric: VOQ + active-path server.

    ``deliver`` receives packets at the remote ToR after serialization
    at the active path's rate plus that path's one-way delay.
    """

    def __init__(
        self,
        sim: Simulator,
        paths: Dict[int, NetworkPath],
        queue: DropTailQueue,
        deliver: Callable[[Packet], None],
        name: str = "uplink",
    ):
        if not paths:
            raise ValueError("uplink needs at least one network path")
        self.sim = sim
        self.paths = paths
        self.queue = queue
        self.deliver = deliver
        self.name = name
        self.active_tdn: Optional[int] = None
        self._busy = False
        self.tx_packets = 0
        self.tx_bytes = 0
        self.per_tdn_tx: Dict[int, int] = {tdn: 0 for tdn in paths}
        # Per-path size -> serialization delay memo; path rates are
        # fixed and packet sizes come from a handful of MSS/header
        # combinations. ``set_active`` swaps in the active path's memo
        # so the serve loop pays a plain dict get per packet.
        self._tx_delay_caches: Dict[int, Dict[int, int]] = {tdn: {} for tdn in paths}
        self._active_path: Optional[NetworkPath] = None
        self._active_delay_cache: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Schedule hooks
    # ------------------------------------------------------------------
    def set_active(self, tdn_id: Optional[int]) -> None:
        """Switch the active network (None = night blackout)."""
        if tdn_id is not None and tdn_id not in self.paths:
            raise KeyError(f"{self.name}: unknown TDN {tdn_id}")
        self.active_tdn = tdn_id
        if tdn_id is not None:
            self._active_path = self.paths[tdn_id]
            self._active_delay_cache = self._tx_delay_caches[tdn_id]
            self._serve()
        else:
            self._active_path = None

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def enqueue(self, packet: Packet) -> bool:
        """Called by the ToR; returns False if the VOQ dropped it."""
        accepted = self.queue.push(packet, self.sim.now)
        # _serve's busy/night early-out inlined: while the server is
        # draining, every enqueue would otherwise pay a no-op frame.
        if accepted and not self._busy and self.active_tdn is not None:
            self._serve()
        return accepted

    def _serve(self) -> None:
        if self._busy or self.active_tdn is None:
            return
        # DropTailQueue.pop inlined (dequeue + observer dispatch): the
        # VOQ drain runs once per cross-rack packet.
        queue = self.queue
        fifo = queue._fifo
        if not fifo:
            return
        packet = fifo.popleft()
        if queue.pool is not None:
            # Pool-backed VOQ: the dequeue frees one shared-memory cell.
            queue.pool.release(queue)
        for fn in queue._length_listeners:
            fn(len(fifo))
        path = self._active_path
        tdn_id = path.tdn_id
        packet.network_id = tdn_id
        if path.is_circuit and isinstance(packet, TCPSegment):
            packet.circuit_mark = True
        self._busy = True
        size = packet.size
        self.tx_packets += 1
        self.tx_bytes += size
        self.per_tdn_tx[tdn_id] += 1
        cache = self._active_delay_cache
        tx_delay = cache.get(size)
        if tx_delay is None:
            tx_delay = serialization_delay_ns(size, path.rate_bps)
            cache[size] = tx_delay
        # One of the two busiest schedule sites in the simulator.
        sim = self.sim
        sim._queue.push(sim.now + tx_delay, self._tx_done, (packet, path))

    # ------------------------------------------------------------------
    # Tiered-fidelity queries (repro.sim.fastpath)
    # ------------------------------------------------------------------
    def rate_for_tdn(self, tdn_id: int) -> float:
        """Serialization rate the VOQ drains at while ``tdn_id`` is up."""
        return self.paths[tdn_id].rate_bps

    def is_idle(self) -> bool:
        """True when nothing is queued or mid-serialization — the VOQ
        state a fluid span may start from (and re-materializes to)."""
        return not self._busy and not self.queue._fifo

    def _tx_done(self, packet: Packet, path: NetworkPath) -> None:
        # The packet is on the wire: it arrives even if a night started
        # mid-serialization. Delivery takes the delay of the path that
        # carried it, not of whatever path is active by arrival time.
        sim = self.sim
        sim._queue.push(sim.now + path.one_way_delay_ns, self.deliver, (packet,))
        self._busy = False
        # Skip the _serve frame when the VOQ is empty or a night is on.
        if self.active_tdn is not None and self.queue._fifo:
            self._serve()


# Construction shared by the two-rack and rotor fabrics: ``config`` is an
# RDCNConfig or an OperaConfig (both carry the fields read here).
def build_voqs(
    config,
    names: Dict[Hashable, str],
    pool_total: int,
    pool_name: str,
    mark_threshold: Optional[int] = None,
) -> Tuple[Dict[Hashable, DropTailQueue], Optional[SharedBufferPool]]:
    """One ToR's VOQs, ``{key: queue}`` for ``names = {key: queue name}``.

    Static policy: per-queue carving of ``config.voq_capacity``, no
    pool. Shared policies: every queue draws from one pool of
    ``pool_total`` cells — the regime where a hot destination can
    borrow buffer from idle ones — and its hard cap is the pool total
    (the pool is the binding constraint; fault squeezes still clamp the
    cap below it).
    """
    pool = None
    capacity = config.voq_capacity
    if config.buffer_policy != "static":
        pool = SharedBufferPool(
            pool_total, config.buffer_policy, config.buffer_alpha, pool_name
        )
        capacity = pool_total
    voqs = {
        key: DropTailQueue(capacity, name, mark_threshold, pool)
        for key, name in names.items()
    }
    return voqs, pool


def attach_hosts(sim: Simulator, tor, rack: int, config) -> List[Host]:
    """One rack's hosts, each wired to ``tor`` (anything with
    ``forward`` and ``add_downlink``) by a full-duplex access link."""
    rate, delay = config.host_link_rate_bps, config.host_link_delay_ns
    hosts: List[Host] = []
    for index in range(config.n_hosts_per_rack):
        host = Host(sim, host_address(rack, index))
        up = Link(sim, rate, delay, tor.forward, name=f"{host.address}-up")
        # Late-bound so tests (and fault injectors) can wrap
        # host.deliver after construction.
        down = Link(
            sim, rate, delay, lambda pkt, h=host: h.deliver(pkt),
            name=f"{host.address}-down",
        )
        host.attach_egress(up)
        tor.add_downlink(host.address, down)
        hosts.append(host)
    return hosts
