"""Incast: synchronized many-to-one transfers.

The classic data center stress pattern (and the reason DCTCP exists):
one aggregator requests a block from N workers simultaneously; all
responses converge on the aggregator's access link and the shared VOQ.
Rounds proceed barrier-style — the next round starts only when every
worker's block has arrived — so one slow/timed-out flow stalls the
whole round, making goodput collapse visible as round-time inflation.

Not a figure in the paper; included because any credible RDCN transport
repo must show how its variants behave under incast, and because the
per-TDN state machinery must survive N-to-1 convergence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Type

from repro.rdcn.topology import TwoRackTestbed
from repro.sim.simulator import Simulator
from repro.tcp.config import TCPConfig
from repro.tcp.connection import TCPConnection
from repro.tcp.sockets import create_connection_pair

#: Pause between the last block of one round and the next request.
THINK_TIME_NS = 10_000


@dataclass
class IncastRound:
    index: int
    start_ns: int
    completed_ns: Optional[int] = None

    @property
    def duration_ns(self) -> Optional[int]:
        if self.completed_ns is None:
            return None
        return self.completed_ns - self.start_ns


@dataclass
class IncastStats:
    rounds: List[IncastRound] = field(default_factory=list)

    @property
    def completed(self) -> List[IncastRound]:
        return [r for r in self.rounds if r.completed_ns is not None]

    def round_times_us(self) -> List[float]:
        return [r.duration_ns / 1000 for r in self.completed]


class IncastCoordinator:
    """N workers (rack 0) responding to one aggregator host (rack 1)."""

    def __init__(
        self,
        sim: Simulator,
        worker_hosts,
        aggregator_host,
        block_bytes: int = 30_000,
        connection_cls: Type[TCPConnection] = TCPConnection,
        tcp_config: Optional[TCPConfig] = None,
        **conn_kwargs,
    ):
        self.sim = sim
        self.block_bytes = block_bytes
        self.stats = IncastStats()
        self._expected: int = 0
        self._received_this_round = 0
        self._running = False
        self.senders: List[TCPConnection] = []
        self.receivers: List[TCPConnection] = []
        for index, worker in enumerate(worker_hosts):
            client, server = create_connection_pair(
                sim, worker, aggregator_host,
                connection_cls=connection_cls,
                config=tcp_config or TCPConfig(),
                server_port=6000 + index,
                **conn_kwargs,
            )
            server.on_delivered = self._make_progress_cb(index)
            self.senders.append(client)
            self.receivers.append(server)
        self._delivered_at_round_start = [0] * len(self.senders)

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._running:
            return
        self._running = True
        # Give handshakes a moment, then fire the first round.
        self.sim.schedule(200_000, self._begin_round)

    def stop(self) -> None:
        self._running = False

    # ------------------------------------------------------------------
    def _make_progress_cb(self, index: int):
        def on_delivered(_time_ns: int, total_bytes: int) -> None:
            target = self._delivered_at_round_start[index] + self.block_bytes
            if self._expected and total_bytes >= target:
                self._delivered_at_round_start[index] = target
                self._expected -= 1
                self._received_this_round += 1
                if self._expected == 0:
                    self._finish_round()

        return on_delivered

    def _begin_round(self) -> None:
        if not self._running:
            return
        round_ = IncastRound(index=len(self.stats.rounds), start_ns=self.sim.now)
        self.stats.rounds.append(round_)
        self._expected = len(self.senders)
        self._received_this_round = 0
        for sender in self.senders:
            sender.write(self.block_bytes)

    def _finish_round(self) -> None:
        round_ = self.stats.rounds[-1]
        round_.completed_ns = self.sim.now
        if self._running:
            self.sim.schedule(THINK_TIME_NS, self._begin_round)

    # ------------------------------------------------------------------


def run_incast(
    testbed: TwoRackTestbed,
    n_workers: int,
    duration_ns: int,
    block_bytes: int = 30_000,
    connection_cls: Type[TCPConnection] = TCPConnection,
    **conn_kwargs,
) -> IncastCoordinator:
    """Convenience: N workers in rack 0 incast to host 0 of rack 1."""
    workers = [testbed.host(0, i) for i in range(n_workers)]
    coordinator = IncastCoordinator(
        testbed.sim,
        workers,
        testbed.host(1, 0),
        block_bytes=block_bytes,
        tcp_config=TCPConfig(mss=testbed.config.mss),
        connection_cls=connection_cls,
        **conn_kwargs,
    )
    coordinator.start()
    testbed.start()
    testbed.sim.run(until=duration_ns)
    coordinator.stop()
    return coordinator
