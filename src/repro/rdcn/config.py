"""RDCN configuration (§5.1 testbed parameters as data).

Defaults reproduce the paper's Etalon configuration: two racks, a
10 Gbps / ~100 µs-RTT packet network (TDN 0), a 100 Gbps / ~40 µs-RTT
optical network (TDN 1), 180 µs days, 20 µs nights, a 6:1 packet:optical
schedule, 16-packet VOQs, and jumbo frames.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from repro.net.queues import BUFFER_POLICIES
from repro.records import decode, encode
from repro.units import SEC, gbps, usec

# CE-mark threshold K of every ToR VOQ on either fabric (5 jumbo frames).
ECN_THRESHOLD = 30


@dataclass
class NotifierConfig:
    """TDN-change notification cost model (§5.4).

    The three optimizations the paper evaluates are knobs here; the
    component costs behind them are constants of
    :mod:`repro.rdcn.notifier`, calibrated so the optimized/unoptimized
    ratios match the paper's reported 8x (p50) / 2.7x (p99) for packet
    caching, ~1000x for push->pull, and 5x for the dedicated control
    network.
    """

    # Optimization 1: pre-constructed (cached) ICMP packet at the ToR.
    packet_caching: bool = True

    # Optimization 2: pull model (hosts read a global TDN variable) vs
    # push model (kernel walks every flow and updates it in turn).
    pull_model: bool = True

    # Optimization 3: dedicated control network for ICMPs instead of
    # sharing the (busy) data-plane interface. On the shared path the
    # ICMP waits for the software switch to process the VOQ backlog
    # ahead of it (per-packet pipeline cost) and contends with the
    # host's own transmit backlog on the common NIC.
    dedicated_network: bool = True
    control_delay_ns: int = usec(1)

    # Night policy. ToRs know the schedule (the same knowledge that
    # lets retcpdyn's ToR act 150 us ahead), so they can announce the
    # *upcoming* TDN at the start of the reconfiguration night:
    #
    # * "slowdown" (default): announce at night start only when the
    #   upcoming TDN is slower — an early warning that stops senders
    #   from ACK-clocking a fast TDN's window into the gated VOQ, and
    #   pre-fills the VOQ with the new (small) window instead — the
    #   "initial burst" spike of Figure 7b. Speed-ups are announced at
    #   day start, when the capacity actually exists to absorb them.
    # * "always": announce the upcoming TDN at every night start.
    # * "none": only announce at day starts (notification carries the
    #   currently-active TDN, the paper's literal wire format).
    night_policy: str = "slowdown"

    def __post_init__(self) -> None:
        if self.night_policy not in ("slowdown", "always", "none"):
            raise ValueError(f"unknown night policy {self.night_policy!r}")

    def unoptimized(self) -> "NotifierConfig":
        """This setting with the three optimizations off: what the
        'unoptimized' TDTCP branch runs with."""
        return replace(self, packet_caching=False, pull_model=False, dedicated_network=False)

    def to_dict(self) -> dict:
        return encode(self)

    @classmethod
    def from_dict(cls, data: dict) -> "NotifierConfig":
        return decode(cls, data)


@dataclass
class RDCNConfig:
    """Full testbed configuration (Figure 6 / §5.1).

    Byte-level parameters match the paper: 10/100 Gbps networks,
    ~100/40 us base RTTs, a 144 KB VOQ (the paper's 16 jumbo frames),
    180 us days and 20 us nights at 6:1. Two deliberate deviations,
    documented in DESIGN.md: the MSS is 1500 B (so the VOQ is 96
    segments — identical byte capacity, finer window granularity than
    jumbo frames give a Python-scale flow count), and each emulated
    host's access link gets the fabric fair share (the paper's 16
    containers share one NIC, so per-host rates there are likewise a
    fraction of the fabric rate).
    """

    # Topology
    n_hosts_per_rack: int = 8
    mss: int = 1_500

    # TDN 0: electrical packet network; TDN 1: optical circuit network.
    packet_rate_bps: float = gbps(10)
    optical_rate_bps: float = gbps(100)
    # Fabric one-way propagation, chosen so base RTTs land near the
    # paper's 100 us (packet) and 40 us (optical) including host links
    # and serialization.
    packet_one_way_ns: int = usec(46)
    optical_one_way_ns: int = usec(17)

    # Host access links: fabric fair share (optical rate / hosts).
    host_link_rate_bps: float = gbps(12.5)
    host_link_delay_ns: int = usec(1)

    # ToR virtual output queues: 144 KB, the paper's 16 jumbo frames.
    voq_capacity: int = 96
    # CE-mark threshold K: every VOQ marks ECN-capable packets arriving
    # to >= K queued; non-ECT traffic never sees it.
    ecn_threshold: int = ECN_THRESHOLD

    # Shared-memory ToR buffering (repro.net.queues.SharedBufferPool).
    # "static" keeps the paper's per-VOQ carving (no pool object —
    # byte-identical traces to pre-pool builds); the other
    # policies back every VOQ of a ToR with one shared pool of
    # `buffer_total_capacity` cells (default: voq_capacity × the ToR's
    # VOQ count, i.e. the same total memory re-partitioned).
    buffer_policy: str = "static"
    buffer_alpha: float = 1.0          # dynamic-threshold alpha
    buffer_total_capacity: Optional[int] = None

    # Schedule: a week of `schedule_pattern` days (TDN ids), each
    # `day_ns` long, separated by `night_ns` reconfiguration blackouts.
    schedule_pattern: Tuple[int, ...] = (0, 0, 0, 0, 0, 0, 1)
    day_ns: int = usec(180)
    night_ns: int = usec(20)

    notifier: NotifierConfig = field(default_factory=NotifierConfig)

    seed: int = 1

    def __post_init__(self) -> None:
        if self.n_hosts_per_rack <= 0:
            raise ValueError("need at least one host per rack")
        if not self.schedule_pattern:
            raise ValueError("schedule pattern cannot be empty")
        if self.voq_capacity <= 0:
            raise ValueError("VOQ capacity must be positive")
        if self.buffer_policy not in BUFFER_POLICIES:
            raise ValueError(
                f"unknown buffer policy {self.buffer_policy!r}; known: {BUFFER_POLICIES}"
            )
        if self.buffer_alpha <= 0:
            raise ValueError("buffer_alpha must be positive")
        if self.buffer_total_capacity is not None and self.buffer_total_capacity <= 0:
            raise ValueError("buffer_total_capacity must be positive")

    def with_buffer(
        self,
        total: Optional[int] = None,
        policy: Optional[str] = None,
        alpha: Optional[float] = None,
    ) -> "RDCNConfig":
        """This setting with ``total`` packets of ToR buffer under one
        sharing ``policy``; ``None`` keeps the current value. Every
        policy gets the same per-ToR memory: static carves ``total``
        into the VOQ, pooled policies also back it with a shared pool
        of the same size."""
        policy = policy or self.buffer_policy
        changes = {"buffer_policy": policy}
        if total is not None:
            changes["voq_capacity"] = total
            changes["buffer_total_capacity"] = None if policy == "static" else total
        if alpha is not None:
            changes["buffer_alpha"] = alpha
        return replace(self, **changes)

    def tor_buffer_total(self, n_voqs: int) -> int:
        """The shared pool size one ToR gets for ``n_voqs`` VOQs."""
        if self.buffer_total_capacity is not None:
            return self.buffer_total_capacity
        return self.voq_capacity * max(n_voqs, 1)

    @property
    def n_tdns(self) -> int:
        return max(self.schedule_pattern) + 1

    @property
    def week_ns(self) -> int:
        return len(self.schedule_pattern) * (self.day_ns + self.night_ns)

    def tdn_rate_bps(self, tdn_id: int) -> float:
        return self.packet_rate_bps if tdn_id == 0 else self.optical_rate_bps

    def tdn_one_way_ns(self, tdn_id: int) -> int:
        return self.packet_one_way_ns if tdn_id == 0 else self.optical_one_way_ns

    def nominal_rtt_ns(self, tdn_id: int) -> int:
        """Queue-free base RTT of a host-to-host path through ``tdn_id``:
        propagation out and back (two host links plus the fabric hop each
        way) plus one MSS serialization on the host link and one on the
        fabric uplink. This is the fluid fast path's round-trip clock —
        queueing delay is added on top explicitly, so using a measured
        srtt here would double-count it."""
        prop = 2 * (2 * self.host_link_delay_ns + self.tdn_one_way_ns(tdn_id))
        host_ser = self.mss * 8 * SEC / self.host_link_rate_bps
        fabric_ser = self.mss * 8 * SEC / self.tdn_rate_bps(tdn_id)
        return int(prop + host_ser + fabric_ser)

    def to_dict(self) -> dict:
        return encode(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RDCNConfig":
        return decode(cls, data)
