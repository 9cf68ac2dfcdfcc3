"""Short-lived RPC-style flows and flow-completion-time measurement.

§5.1: "We focus exclusively on long-lived flows because short-lived
flows are unlikely to benefit from TDTCP. For example, RPC workloads
that last a few RTTs likely only exist during one TDN. [...] Overall,
we do not expect TDTCP to impact the completion time of short-lived
flows." This module makes that expectation measurable: a generator
starts fixed-size transfers at seeded intervals between host pairs and
records each flow's completion time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Type

from repro.net.node import Host
from repro.obs.sketch import QuantileSketch
from repro.rdcn.topology import TwoRackTestbed
from repro.sim.rng import SeededRandom
from repro.sim.simulator import Simulator
from repro.tcp.config import TCPConfig
from repro.tcp.connection import TCPConnection
from repro.tcp.sockets import create_connection_pair


@dataclass
class ShortFlowRecord:
    """One short flow's outcome."""

    index: int
    start_ns: int
    size_bytes: int
    completed_ns: Optional[int] = None

    @property
    def completed(self) -> bool:
        return self.completed_ns is not None

    @property
    def fct_ns(self) -> Optional[int]:
        if self.completed_ns is None:
            return None
        return self.completed_ns - self.start_ns


@dataclass
class ShortFlowStats:
    records: List[ShortFlowRecord] = field(default_factory=list)
    # Streaming FCT aggregate (microseconds), fed on every completion:
    # the constant-memory view that survives when per-record lists stop
    # scaling (the ROADMAP's 10M-flow workload engine).
    fct_sketch: QuantileSketch = field(default_factory=QuantileSketch)
    # Streaming counters: flows launched / delivered, and — after
    # finalize() — flows still open at the horizon. Flows the run cut
    # off used to simply vanish from the FCT view (``completed`` filters
    # them out), silently censoring the tail of the distribution.
    started: int = 0
    completed_count: int = 0
    truncated_flows: int = 0

    @property
    def completed(self) -> List[ShortFlowRecord]:
        return [r for r in self.records if r.completed]

    def completion_rate(self) -> float:
        """Delivered fraction of every flow *launched* — truncated
        flows stay in the denominator instead of disappearing."""
        if not self.started:
            return 0.0
        return self.completed_count / self.started

    def finalize(self) -> None:
        """Account for flows still open when the run ended."""
        self.truncated_flows = self.started - self.completed_count

    def fct_values_us(self) -> List[float]:
        return [r.fct_ns / 1000 for r in self.completed]


class ShortFlowGenerator:
    """Start ``flow_size_bytes`` transfers at fixed mean intervals
    between one host pair; each flow is a fresh connection that closes
    when its payload is acknowledged."""

    def __init__(
        self,
        sim: Simulator,
        src: Host,
        dst: Host,
        rng: SeededRandom,
        connection_cls: Type[TCPConnection] = TCPConnection,
        tcp_config: Optional[TCPConfig] = None,
        flow_size_bytes: int = 15_000,
        mean_interarrival_ns: int = 200_000,
        cc_name: str = "cubic",
        **conn_kwargs,
    ):
        self.sim = sim
        self.src = src
        self.dst = dst
        self.rng = rng.fork(f"shortflows-{src.address}")
        self.connection_cls = connection_cls
        self.tcp_config = tcp_config or TCPConfig()
        self.flow_size_bytes = flow_size_bytes
        self.mean_interarrival_ns = mean_interarrival_ns
        self.cc_name = cc_name
        self.conn_kwargs = conn_kwargs
        self.stats = ShortFlowStats()
        self._running = False
        self._next_port = 20_000

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._schedule_next()

    def stop(self) -> None:
        self._running = False

    # ------------------------------------------------------------------
    def _schedule_next(self) -> None:
        if not self._running:
            return
        gap = max(int(self.rng.expovariate(1.0 / self.mean_interarrival_ns)), 1_000)
        self.sim.schedule(gap, self._launch)

    def _launch(self) -> None:
        if not self._running:
            return
        record = ShortFlowRecord(
            index=len(self.stats.records),
            start_ns=self.sim.now,
            size_bytes=self.flow_size_bytes,
        )
        self.stats.records.append(record)
        self.stats.started += 1
        server_port = self._next_port
        self._next_port += 1
        client, server = create_connection_pair(
            self.sim, self.src, self.dst,
            cc_name=self.cc_name, config=self.tcp_config,
            connection_cls=self.connection_cls,
            server_port=server_port, connect=False,
            **self.conn_kwargs,
        )

        def on_established(c=client, r=record):
            c.write(r.size_bytes)
            c.close()

        def on_delivered(time_ns, total, r=record, c=client, s=server):
            if total >= r.size_bytes and r.completed_ns is None:
                r.completed_ns = time_ns
                self.stats.completed_count += 1
                self.stats.fct_sketch.add(r.fct_ns / 1000)
                # Release the pair so long runs don't accumulate.
                self.sim.schedule(1_000_000, self._cleanup, c, s)

        client.on_established = on_established
        server.on_delivered = on_delivered
        client.connect()
        self._schedule_next()

    def _cleanup(self, client: TCPConnection, server: TCPConnection) -> None:
        client.release()
        server.release()


def run_short_flow_study(
    testbed: TwoRackTestbed,
    connection_cls: Type[TCPConnection],
    duration_ns: int,
    flow_size_bytes: int = 15_000,
    mean_interarrival_ns: int = 200_000,
    host_index: int = 0,
    **conn_kwargs,
) -> ShortFlowStats:
    """Convenience: run a generator on a built (unstarted) testbed."""
    generator = ShortFlowGenerator(
        testbed.sim,
        testbed.host(0, host_index),
        testbed.host(1, host_index),
        testbed.rng,
        connection_cls=connection_cls,
        tcp_config=TCPConfig(mss=testbed.config.mss),
        flow_size_bytes=flow_size_bytes,
        mean_interarrival_ns=mean_interarrival_ns,
        **conn_kwargs,
    )
    generator.start()
    testbed.start()
    testbed.sim.run(until=duration_ns)
    generator.stop()
    generator.stats.finalize()
    return generator.stats
