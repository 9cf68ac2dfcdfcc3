"""Background cross traffic (§2.1: "subject to background traffic, the
bandwidth, latency, and loss rate on a path oscillate within a
comparatively small range").

An on/off source injects opaque packets between a host pair at a
configurable average load. Burst lengths and gaps are exponentially
distributed (seeded), giving the within-TDN oscillation the paper
describes without changing any transport behaviour.
"""

from __future__ import annotations

from repro.net.node import Host
from repro.net.packet import Packet
from repro.sim.rng import SeededRandom
from repro.sim.simulator import Simulator
from repro.units import serialization_delay_ns

#: Size of every background packet (bytes).
PACKET_SIZE = 1500
#: Means of the exponential on (burst) and off (gap) periods.
MEAN_BURST_NS = 100_000
MEAN_GAP_NS = 100_000


class BackgroundTraffic:
    """On/off constant-rate packet source between two hosts."""

    def __init__(
        self,
        sim: Simulator,
        src: Host,
        dst: Host,
        rate_bps: float,
        rng: SeededRandom,
        name: str = "background",
    ):
        if rate_bps <= 0:
            raise ValueError("background rate must be positive")
        self.sim = sim
        self.src = src
        self.dst = dst
        self.rate_bps = rate_bps
        self.rng = rng.fork(f"bg-{src.address}-{dst.address}")
        self.name = name
        self.packets_sent = 0
        self.bytes_sent = 0
        self._on = False
        self._burst_end_ns = 0
        self._running = False
        # Send interval while "on": packet time at twice the average
        # rate, so on/off duty of ~50% hits the average.
        self._interval_ns = max(
            serialization_delay_ns(PACKET_SIZE, rate_bps * 2), 1
        )

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._begin_gap()

    def stop(self) -> None:
        self._running = False

    # ------------------------------------------------------------------
    def _begin_burst(self) -> None:
        if not self._running:
            return
        self._on = True
        burst = max(int(self.rng.expovariate(1.0 / MEAN_BURST_NS)), 1_000)
        self._burst_end_ns = self.sim.now + burst
        self._tick()

    def _begin_gap(self) -> None:
        if not self._running:
            return
        self._on = False
        gap = max(int(self.rng.expovariate(1.0 / MEAN_GAP_NS)), 1_000)
        self.sim.schedule(gap, self._begin_burst)

    def _tick(self) -> None:
        if not self._running or not self._on:
            return
        if self.sim.now >= self._burst_end_ns:
            self._begin_gap()
            return
        packet = Packet(self.src.address, self.dst.address, PACKET_SIZE, self.sim.now)
        self.src.send(packet)
        self.packets_sent += 1
        self.bytes_sent += PACKET_SIZE
        self.sim.schedule(self._interval_ns, self._tick)
