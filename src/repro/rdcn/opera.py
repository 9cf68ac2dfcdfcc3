"""An OCS-only rotor fabric with two-hop indirection (§6, RotorNet [30]
and Opera [29]).

"OCS-only RDCNs do not include a separate packet network; instead, ToRs
with no direct connectivity send traffic through transit ToRs or hold
traffic until direct connectivity is restored."

Model: ``n_racks`` ToRs cycle through the round-robin matchings of
:mod:`repro.rdcn.rotor`. During a slot a ToR has exactly one circuit —
to its matching partner — on which it sends, in priority order:

1. *direct* traffic destined to the partner's rack;
2. *transit* traffic it previously accepted on behalf of other racks
   (now deliverable directly, since transit packets are only ever
   relayed once);
3. when ``two_hop`` is enabled, *indirect* traffic for other racks,
   which the partner stores and forwards when it is matched to the
   destination (RotorNet's Valiant-style load balancing).

Latency to a fixed destination therefore swings between "direct this
slot" and "store-and-forward across slots" — the drastic variation that
motivates treating each configuration as its own TDN. A slot is a day
of the two-rack testbed's :class:`ScheduleDriver`, announced by its
:class:`TDNNotifier` with the matching index as the TDN ID, so a TDTCP
connection here keeps one state set per matching (``n_racks - 1`` TDNs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.net.addressing import _rack_of_cache, rack_of
from repro.net.link import Link
from repro.net.node import Host
from repro.net.packet import MAX_TDN_ID, Packet
from repro.net.queues import BUFFER_POLICIES
from repro.rdcn.config import ECN_THRESHOLD, NotifierConfig
from repro.rdcn.fabric import attach_hosts, build_voqs
from repro.rdcn.notifier import TDNNotifier
from repro.rdcn.rotor import round_robin_matchings
from repro.rdcn.schedule import ScheduleDriver, TDNSchedule
from repro.sim.rng import SeededRandom
from repro.sim.simulator import Simulator
from repro.units import gbps, serialization_delay_ns, usec


@dataclass
class OperaConfig:
    """Configuration of the OCS-only fabric."""

    n_racks: int = 4
    n_hosts_per_rack: int = 2
    mss: int = 1_500
    link_rate_bps: float = gbps(25)
    one_way_delay_ns: int = usec(5)
    host_link_rate_bps: float = gbps(12.5)
    host_link_delay_ns: int = usec(1)
    slot_ns: int = usec(180)
    night_ns: int = usec(20)
    voq_capacity: int = 96          # per destination rack
    two_hop: bool = True
    # "rotor": the fixed demand-oblivious round-robin cycle.
    # "demand-aware" (§6, Helios/ProjecToR class): each slot, a greedy
    # max-weight matching over current VOQ backlogs, with an aging bonus
    # so idle pairs are not starved. Hosts are then notified with their
    # rack's *partner id* as the TDN ID (the configuration space is no
    # longer a fixed cycle).
    matching_policy: str = "rotor"
    # Shared-memory ToR buffering (see RDCNConfig): "static" carves
    # voq_capacity per destination rack; the shared policies back each
    # ToR's n_racks-1 VOQs with one pool of buffer_total_capacity cells
    # (default: voq_capacity × (n_racks - 1), same total memory).
    buffer_policy: str = "static"
    buffer_alpha: float = 1.0
    buffer_total_capacity: Optional[int] = None
    seed: int = 1

    def __post_init__(self) -> None:
        if self.n_racks < 2 or self.n_racks % 2:
            raise ValueError("OCS-only fabric needs an even rack count >= 2")
        if self.n_hosts_per_rack < 1:
            raise ValueError("need at least one host per rack")
        if self.matching_policy not in ("rotor", "demand-aware"):
            raise ValueError(f"unknown matching policy {self.matching_policy!r}")
        # Protocol ceiling: the TDN ID travels in one byte capped at
        # MAX_TDN_ID, and hosts silently drop out-of-range notifications
        # (the graceful-degradation path) — a fabric whose IDs exceed the
        # cap would quietly stop adapting instead of failing loudly.
        # Rotor uses the slot index (0..n_racks-2); demand-aware uses the
        # partner rack id (0..n_racks-1), so its ceiling is one lower.
        max_racks = MAX_TDN_ID + (1 if self.matching_policy == "demand-aware" else 2)
        if self.n_racks > max_racks:
            raise ValueError(
                f"n_racks={self.n_racks} exceeds the {self.matching_policy!r} "
                f"TDN-ID protocol ceiling of {max_racks} racks (MAX_TDN_ID="
                f"{MAX_TDN_ID}): hosts would silently ignore every "
                "out-of-range TDN notification"
            )
        if self.buffer_policy not in BUFFER_POLICIES:
            raise ValueError(
                f"unknown buffer policy {self.buffer_policy!r}; known: {BUFFER_POLICIES}"
            )
        if self.buffer_alpha <= 0:
            raise ValueError("buffer_alpha must be positive")
        if self.buffer_total_capacity is not None and self.buffer_total_capacity <= 0:
            raise ValueError("buffer_total_capacity must be positive")

    @property
    def n_slots(self) -> int:
        return self.n_racks - 1

    @property
    def tor_buffer_total(self) -> int:
        """Shared pool size per ToR (its n_racks - 1 VOQs combined)."""
        if self.buffer_total_capacity is not None:
            return self.buffer_total_capacity
        return self.voq_capacity * (self.n_racks - 1)

    @property
    def cycle_ns(self) -> int:
        """One full rotor cycle (the 'week')."""
        return self.n_slots * (self.slot_ns + self.night_ns)


class OperaToR:
    """A ToR on the rotor fabric: per-destination VOQs and one circuit."""

    def __init__(self, sim: Simulator, rack: int, config: OperaConfig):
        self.sim = sim
        self.rack = rack
        self.config = config
        self.name = f"opera-tor{rack}"
        self._downlinks: Dict[str, Link] = {}
        self.voqs, self.pool = build_voqs(
            config,
            {
                dst: f"{self.name}-voq{dst}"
                for dst in range(config.n_racks)
                if dst != rack
            },
            config.tor_buffer_total,
            f"{self.name}-pool",
            mark_threshold=ECN_THRESHOLD,
        )
        self.partner: Optional[int] = None
        self.peers: Dict[int, "OperaToR"] = {}
        self._busy = False
        self.direct_tx = 0
        self.transit_tx = 0
        self.relayed_rx = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def add_downlink(self, host_addr: str, link: Link) -> None:
        self._downlinks[host_addr] = link

    # ------------------------------------------------------------------
    # Schedule hooks
    # ------------------------------------------------------------------
    def set_partner(self, partner: Optional[int]) -> None:
        """Slot start (a rack index) or night start (None)."""
        self.partner = partner
        self._serve()

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def forward(self, packet: Packet) -> None:
        """Entry from local hosts or from the fabric."""
        dst = packet.dst
        # The rack_of memo hit inlined, as in ToRSwitch.forward.
        dst_rack = _rack_of_cache.get(dst)
        if dst_rack is None:
            dst_rack = rack_of(dst)
        if dst_rack == self.rack:
            link = self._downlinks.get(dst)
            if link is None:
                raise KeyError(f"{self.name}: unknown local host {dst}")
            link.send(packet)
            return
        self.voqs[dst_rack].push(packet, self.sim.now)
        # _serve's busy/dark early-out inlined.
        if not self._busy and self.partner is not None:
            self._serve()

    def receive_from_fabric(self, packet: Packet) -> None:
        dst = packet.dst
        dst_rack = _rack_of_cache.get(dst)
        if dst_rack is None:
            dst_rack = rack_of(dst)
        if dst_rack == self.rack:
            self.forward(packet)
            return
        # Transit: hold for the destination; deliverable when matched.
        self.relayed_rx += 1
        packet.relayed = True
        self.voqs[dst_rack].push(packet, self.sim.now)
        if not self._busy and self.partner is not None:
            self._serve()

    def _next_packet(self) -> Optional[Packet]:
        """Priority: direct + previously-accepted transit for the
        partner, then (two-hop) fresh indirection for other racks."""
        assert self.partner is not None
        direct = self.voqs[self.partner]
        packet = direct.pop()
        if packet is not None:
            self.direct_tx += 1
            return packet
        if not self.config.two_hop:
            return None
        # Offer indirection: pick the longest other queue whose head
        # has not been relayed yet (one indirection hop max), the first
        # in dict order on ties.
        partner = self.partner
        best = None
        best_len = 0
        for dst, queue in self.voqs.items():
            fifo = queue._fifo
            length = len(fifo)
            if length > best_len and dst != partner and not fifo[0].relayed:
                best = queue
                best_len = length
        if best is None:
            return None
        packet = best.pop()
        self.transit_tx += 1
        return packet

    def _serve(self) -> None:
        if self._busy or self.partner is None:
            return
        packet = self._next_packet()
        if packet is None:
            return
        self._busy = True
        tx_delay = serialization_delay_ns(packet.size, self.config.link_rate_bps)
        # Packet hops are never cancelled: push handle-free entries.
        sim = self.sim
        sim._queue.push(sim.now + tx_delay, self._tx_done, (packet, self.partner))

    def _tx_done(self, packet: Packet, partner: int) -> None:
        peer = self.peers[partner]
        sim = self.sim
        sim._queue.push(
            sim.now + self.config.one_way_delay_ns, peer.receive_from_fabric, (packet,)
        )
        self._busy = False
        self._serve()


@dataclass
class OperaTestbed:
    """The assembled OCS-only fabric, under the two-rack testbed's names."""

    sim: Simulator
    config: OperaConfig
    matchings: List[List[tuple]]
    schedule: TDNSchedule
    driver: ScheduleDriver
    notifier: TDNNotifier
    rng: SeededRandom
    tors: Dict[int, OperaToR] = field(default_factory=dict)
    hosts: Dict[int, List[Host]] = field(default_factory=dict)
    # Demand-aware state: slots since each pair was last served.
    pair_age: Dict[tuple, int] = field(default_factory=dict)
    chosen_matchings: List[List[tuple]] = field(default_factory=list)

    def host(self, rack: int, index: int) -> Host:
        return self.hosts[rack][index]

    def start(self) -> None:
        """Begin cycling the fabric from the current simulation time."""
        self.driver.start()

    def _demand_aware_matching(self) -> List[tuple]:
        """Greedy max-weight matching: backlog plus an aging bonus (so
        all-to-all connectivity is still eventually provided)."""
        weights = {
            (a, b): len(self.tors[a].voqs[b]) + len(self.tors[b].voqs[a]) + age
            for (a, b), age in self.pair_age.items()
        }
        matched: set = set()
        matching: List[tuple] = []
        for pair, _weight in sorted(weights.items(), key=lambda kv: -kv[1]):
            if matched.isdisjoint(pair):
                matching.append(pair)
                matched.update(pair)
        for pair in self.pair_age:
            self.pair_age[pair] = 0 if pair in matching else self.pair_age[pair] + 1
        return sorted(matching)

    def _slot_started(self, slot: int, _day_index: int) -> None:
        """Day hook: the day's TDN id is the rotor's slot; demand-aware
        picks its own matching ('directly connected to rack p' recurs)."""
        if self.config.matching_policy == "demand-aware":
            matching = self._demand_aware_matching()
            self.chosen_matchings.append(matching)
        else:
            matching = self.matchings[slot]
        for rack_a, rack_b in matching:
            self.tors[rack_a].set_partner(rack_b)
            self.tors[rack_b].set_partner(rack_a)

    def _night_started(self, _day_index: int) -> None:
        for tor in self.tors.values():
            tor.set_partner(None)


def build_opera_testbed(config: OperaConfig, sim: Optional[Simulator] = None) -> OperaTestbed:
    """Construct the OCS-only rotor fabric."""
    sim = sim or Simulator()
    rng = SeededRandom(config.seed)
    n = config.n_racks
    demand_aware = config.matching_policy == "demand-aware"
    schedule = TDNSchedule.uniform(range(config.n_slots), config.slot_ns, config.night_ns)
    driver = ScheduleDriver(sim, schedule)
    # The two-rack ToRs' §5.4 cost model, announced at slot start only:
    # all circuits have one rate and a dark rack has no partner to name.
    notifier = TDNNotifier(
        sim, driver, NotifierConfig(night_policy="none"), rng,
        tdn_id_of=(lambda tor, _slot: tor.partner) if demand_aware else None,
    )
    testbed = OperaTestbed(
        sim=sim, config=config, matchings=round_robin_matchings(n),
        schedule=schedule, driver=driver, notifier=notifier, rng=rng,
        pair_age={(a, b): 0 for a in range(n) for b in range(a + 1, n)},
    )
    driver.on_day_start(testbed._slot_started)
    driver.on_night_start(testbed._night_started)
    for rack in range(n):
        tor = OperaToR(sim, rack, config)
        testbed.tors[rack] = tor
        testbed.hosts[rack] = attach_hosts(sim, tor, rack, config)
        notifier.add_rack(tor, testbed.hosts[rack])
    for tor in testbed.tors.values():
        tor.peers = testbed.tors
    return testbed
