"""Fabric-wide workload engine: empirical traffic at scale.

``repro.apps.tracegen`` drives one host pair; this module drives the
whole fabric. A :class:`WorkloadEngine` places Poisson arrivals with
empirical sizes (web-search / data-mining / custom CDF) across every
source -> destination ToR pair of a testbed — two-rack or Opera N-rack,
anything exposing ``hosts: Dict[rack, List[Host]]`` — under a pluggable
traffic matrix, or replays a CSV trace (``start_ns,src,dst,size_bytes``).

Completion accounting is streaming-first (:class:`CompletionStats`):
counters plus FCT and slowdown :class:`QuantileSketch` families, so
memory is independent of flow count. Per-flow records are opt-in behind
a reservoir-sampling cap (Vitter's Algorithm R) — a million-flow
campaign keeps at most ``record_cap`` of them, each an unbiased sample.

Slowdown is FCT divided by the flow's ideal transfer time at line rate
(``size * 8 / capacity_bps``, floored at 1 ns), the normalized FCT
metric of the traffic-generation literature; it is additionally binned
by flow size so the short-flow tail is not drowned by elephants.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple, Type

from repro.apps.tracegen import EmpiricalFlowSizes
from repro.obs.outcome import WALL_SUMMARY_FIELDS  # the keys summary() adds from the wall clock
from repro.obs.sketch import QuantileSketch
from repro.obs.telemetry import Telemetry
from repro.sim.rng import SeededRandom
from repro.tcp.config import TCPConfig
from repro.tcp.connection import TCPConnection
from repro.tcp.sockets import create_connection_pair
from repro.units import SEC

#: The pluggable traffic matrices (docs/workloads.md).
TRAFFIC_MATRICES = ("permutation", "all-to-all", "hotspot")

#: Flow-size classes for the binned slowdown sketches: boundaries are
#: the conventional short-RPC / medium / elephant split of the DCTCP
#: and data-mining CDFs. ``None`` = unbounded.
SIZE_BINS: Tuple[Tuple[str, Optional[int]], ...] = (
    ("small", 100_000),
    ("medium", 10_000_000),
    ("large", None),
)

#: Documented CSV trace schema, in column order.
TRACE_COLUMNS = ("start_ns", "src", "dst", "size_bytes")

_ADDRESS_RE = re.compile(r"^r(\d+)h(\d+)$")


def size_bin(size_bytes: int) -> str:
    """The :data:`SIZE_BINS` label for one flow size."""
    for label, bound in SIZE_BINS:
        if bound is None or size_bytes <= bound:
            return label
    return SIZE_BINS[-1][0]


def average_fabric_rate_bps(config) -> float:
    """Time-averaged per-ToR fabric capacity of a testbed config — the
    denominator of the offered-load definition (nights count as dark).

    Understands :class:`repro.rdcn.config.RDCNConfig` (schedule-weighted
    mean of the TDN rates) and :class:`repro.rdcn.opera.OperaConfig`
    (duty-cycled circuit rate).
    """
    if hasattr(config, "schedule_pattern"):
        active = sum(
            config.day_ns * config.tdn_rate_bps(tdn) for tdn in config.schedule_pattern
        )
        return active / config.week_ns
    if hasattr(config, "link_rate_bps"):
        duty = config.slot_ns / (config.slot_ns + config.night_ns)
        return config.link_rate_bps * duty
    raise TypeError(f"no fabric rate known for config type {type(config).__name__}")


def pair_weights(
    n_racks: int,
    matrix: str,
    rng: SeededRandom,
    hotspot_fraction: float = 0.5,
) -> List[Tuple[Tuple[int, int], float]]:
    """Ordered (src_rack, dst_rack) pairs with arrival-probability
    weights summing to 1.

    * ``permutation``: rack ``i`` sends to rack ``(i + 1) % n`` only —
      each source ToR offers its full per-ToR load to one destination.
    * ``all-to-all``: every ordered pair equally.
    * ``hotspot``: all-to-all background, with ``hotspot_fraction`` of
      all arrivals redirected onto one seeded victim pair (skew).

    With two racks (the two-rack testbed, the only fabric
    ``ExperimentConfig`` builds) ``all-to-all`` and ``permutation``
    return the same weights: one pair each way, half the arrivals each.
    """
    if n_racks < 2:
        raise ValueError("need at least two racks for cross-rack traffic")
    if matrix not in TRAFFIC_MATRICES:
        raise ValueError(f"unknown matrix {matrix!r}; known: {TRAFFIC_MATRICES}")
    if matrix == "permutation":
        share = 1.0 / n_racks
        return [((i, (i + 1) % n_racks), share) for i in range(n_racks)]
    pairs = [(i, j) for i in range(n_racks) for j in range(n_racks) if i != j]
    uniform = 1.0 / len(pairs)
    if matrix == "all-to-all":
        return [(pair, uniform) for pair in pairs]
    if not (0.0 <= hotspot_fraction <= 1.0):
        raise ValueError("hotspot_fraction must be in [0, 1]")
    hot_rng = rng.fork("hotspot")
    hot = pairs[int(hot_rng.random() * len(pairs)) % len(pairs)]
    background = (1.0 - hotspot_fraction) * uniform
    return [
        (pair, background + (hotspot_fraction if pair == hot else 0.0))
        for pair in pairs
    ]


# ----------------------------------------------------------------------
# CSV trace replay
# ----------------------------------------------------------------------
@dataclass
class TraceFlow:
    """One row of a workload trace: a flow of ``size_bytes`` from host
    ``src`` to host ``dst`` starting at ``start_ns`` (addresses are the
    canonical ``r<rack>h<index>`` form)."""

    start_ns: int
    src: str
    dst: str
    size_bytes: int


def parse_host_address(address: str) -> Tuple[int, int]:
    """``"r0h3"`` -> ``(0, 3)``; raises ``ValueError`` on anything else."""
    match = _ADDRESS_RE.match(address)
    if match is None:
        raise ValueError(f"malformed host address {address!r} (want r<rack>h<index>)")
    return int(match.group(1)), int(match.group(2))


def _parse_trace_row(row: Sequence[str], line: int) -> TraceFlow:
    if len(row) != len(TRACE_COLUMNS):
        raise ValueError(
            f"line {line}: expected {len(TRACE_COLUMNS)} columns "
            f"{','.join(TRACE_COLUMNS)}, got {len(row)}"
        )
    try:
        start_ns = int(row[0])
        size_bytes = int(row[3])
    except ValueError:
        raise ValueError(f"line {line}: start_ns and size_bytes must be integers") from None
    if start_ns < 0:
        raise ValueError(f"line {line}: start_ns must be >= 0")
    if size_bytes < 1:
        raise ValueError(f"line {line}: size_bytes must be >= 1")
    src, dst = row[1].strip(), row[2].strip()
    for address in (src, dst):
        try:
            parse_host_address(address)
        except ValueError as error:
            raise ValueError(f"line {line}: {error}") from None
    if src == dst:
        raise ValueError(f"line {line}: src and dst must differ")
    return TraceFlow(start_ns=start_ns, src=src, dst=dst, size_bytes=size_bytes)


def load_trace(path, strict: bool = True) -> Tuple[List[TraceFlow], int]:
    """Parse a workload trace CSV.

    Schema: ``start_ns,src,dst,size_bytes`` — an optional literal header
    row, then one flow per row; addresses are ``r<rack>h<index>``.
    Returns ``(flows sorted by start time, skipped_row_count)``.

    ``strict=True`` raises ``ValueError`` (with the line number) on the
    first malformed row; ``strict=False`` skips malformed rows, counting
    them in the second return value.
    """
    flows: List[TraceFlow] = []
    skipped = 0
    with open(path, newline="") as handle:
        for line, row in enumerate(csv.reader(handle), start=1):
            if not row or (line == 1 and tuple(c.strip() for c in row) == TRACE_COLUMNS):
                continue
            try:
                flows.append(_parse_trace_row(row, line))
            except ValueError:
                if strict:
                    raise
                skipped += 1
    flows.sort(key=lambda f: (f.start_ns, f.src, f.dst, f.size_bytes))
    return flows, skipped


def poisson_trace(
    rng: SeededRandom,
    src: str,
    dst: str,
    size_bytes: int,
    mean_interarrival_ns: int,
    horizon_ns: int,
) -> List[TraceFlow]:
    """Poisson arrivals of ``size_bytes`` flows from ``src`` to ``dst``
    up to ``horizon_ns``: §5.1's short-flow workload as a trace (gaps
    floored at 1 us, drawn from the ``shortflows-<src>`` substream)."""
    rng = rng.fork(f"shortflows-{src}")
    flows: List[TraceFlow] = []
    start_ns = 0
    while True:
        start_ns += max(int(rng.expovariate(1 / mean_interarrival_ns)), 1_000)
        if start_ns > horizon_ns:
            return flows
        flows.append(TraceFlow(start_ns, src, dst, size_bytes))


def write_trace(path, flows: Sequence[TraceFlow]) -> None:
    """Write flows in the documented CSV schema (``load_trace``'s exact
    inverse)."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(TRACE_COLUMNS)
        for flow in flows:
            writer.writerow([flow.start_ns, flow.src, flow.dst, flow.size_bytes])


# ----------------------------------------------------------------------
# Streaming completion accounting
# ----------------------------------------------------------------------
@dataclass
class FlowRecord:
    """One completed flow kept by the reservoir."""

    start_ns: int
    fct_ns: int


class CompletionStats:
    """Constant-memory flow-completion accounting.

    Counters plus sketches; the optional ``record_cap``-sized reservoir
    (Algorithm R over its own RNG substream, so enabling it never
    perturbs the traffic) is the only per-flow storage. ``finalize()``
    books flows still open at the horizon as ``truncated_flows`` so the
    censored tail is explicit rather than silently missing.
    """

    def __init__(
        self,
        capacity_bps: float,
        record_cap: int = 0,
        rng: Optional[SeededRandom] = None,
    ):
        if record_cap < 0:
            raise ValueError("record_cap must be >= 0")
        self.capacity_bps = capacity_bps
        self.record_cap = record_cap
        self._rng = rng
        if record_cap > 0 and rng is None:
            raise ValueError("record_cap > 0 needs an rng for the reservoir")
        self.started = 0
        self.completed = 0
        self.truncated_flows = 0
        self.trace_rows_skipped = 0
        # Wall-clock run time, set by WorkloadEngine.finish(); feeds the
        # engine_flows_per_sec throughput metric of summary().
        self.wall_seconds: Optional[float] = None
        self.bytes_offered = 0
        self.bytes_completed = 0
        self.fct_sketch = QuantileSketch()
        self.slowdown_sketch = QuantileSketch()
        self.slowdown_by_bin: Dict[str, QuantileSketch] = {
            label: QuantileSketch() for label, _bound in SIZE_BINS
        }
        self.records: List[FlowRecord] = []
        self._reservoir_seen = 0

    def ideal_fct_ns(self, size_bytes: int) -> int:
        """Transfer time at line rate — the slowdown denominator."""
        return max(int(size_bytes * 8 * SEC / self.capacity_bps), 1)

    def on_start(self, size_bytes: int) -> None:
        self.started += 1
        self.bytes_offered += size_bytes

    def on_complete(self, start_ns: int, size_bytes: int, completed_ns: int) -> float:
        """Book one delivered flow; returns its slowdown."""
        self.completed += 1
        self.bytes_completed += size_bytes
        fct_ns = completed_ns - start_ns
        slowdown = fct_ns / self.ideal_fct_ns(size_bytes)
        self.fct_sketch.add(fct_ns / 1000)
        self.slowdown_sketch.add(slowdown)
        self.slowdown_by_bin[size_bin(size_bytes)].add(slowdown)
        if self.record_cap > 0:
            self._reservoir_insert(FlowRecord(start_ns, fct_ns))
        return slowdown

    def _reservoir_insert(self, record: FlowRecord) -> None:
        self._reservoir_seen += 1
        if len(self.records) < self.record_cap:
            self.records.append(record)
            return
        slot = int(self._rng.random() * self._reservoir_seen)
        if slot < self.record_cap:
            self.records[slot] = record

    def finalize(self) -> None:
        self.truncated_flows = self.started - self.completed

    def completion_rate(self) -> float:
        """Delivered fraction of every flow launched (truncated flows
        stay in the denominator)."""
        if not self.started:
            return 0.0
        return self.completed / self.started

    def load_of(self, n_bytes: int, duration_ns: int, n_src_racks: int) -> float:
        """``n_bytes`` over the run as a fraction of the fabric capacity
        (per source ToR, like the requested load)."""
        if duration_ns <= 0 or n_src_racks <= 0:
            return 0.0
        return (n_bytes * 8.0 * SEC) / (duration_ns * self.capacity_bps * n_src_racks)

    def achieved_load(self, duration_ns: int, n_src_racks: int) -> float:
        """Delivered bytes as a fraction of the fabric capacity."""
        return self.load_of(self.bytes_completed, duration_ns, n_src_racks)

    def sketches(self) -> Dict[str, dict]:
        """Serialized sketch states, ready for ``ExperimentResult`` and
        exact cross-run merging."""
        out = {
            "fct_us": self.fct_sketch.to_dict(),
            "slowdown": self.slowdown_sketch.to_dict(),
        }
        for label, sketch in self.slowdown_by_bin.items():
            out[f"slowdown_{label}"] = sketch.to_dict()
        return out

    def summary(self, duration_ns: int, n_src_racks: int, offered_load: float) -> dict:
        """JSON-ready digest. Deterministic except for the
        :data:`WALL_SUMMARY_FIELDS` (present only when ``finish()``
        recorded a wall clock) — compare two summaries through
        :func:`repro.obs.outcome.strip_wall`."""
        out = {
            "started": self.started,
            "completed": self.completed,
            "truncated_flows": self.truncated_flows,
            "trace_rows_skipped": self.trace_rows_skipped,
            "completion_rate": self.completion_rate(),
            "bytes_offered": self.bytes_offered,
            "bytes_completed": self.bytes_completed,
            "offered_load": offered_load,
            "achieved_load": self.achieved_load(duration_ns, n_src_racks),
            "fct_us": self.fct_sketch.percentiles(),
            "slowdown": self.slowdown_sketch.percentiles(),
            "slowdown_by_bin": {
                label: sketch.percentiles()
                for label, sketch in self.slowdown_by_bin.items()
            },
        }
        if self.wall_seconds is not None:
            out["engine_wall_s"] = self.wall_seconds
            out["engine_flows_per_sec"] = (
                self.completed / self.wall_seconds if self.wall_seconds > 0 else 0.0
            )
        return out


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class WorkloadEngine:
    """Fabric-wide flow launcher over any testbed with rack-indexed
    hosts.

    Two modes, mutually exclusive:

    * empirical (``trace=None``): a single global Poisson arrival
      process at the aggregate rate ``load * n_racks * capacity_bps /
      (8 * mean_size)`` flows/s; each arrival draws a (src, dst) rack
      pair from the traffic matrix, uniform hosts within the racks, and
      a size from the CDF. Separate RNG substreams per decision keep the
      traffic invariant under observer changes (e.g. reservoir on/off).
    * trace replay (``trace=[TraceFlow, ...]``): every flow starts at
      its recorded offset from engine start, between its recorded hosts.

    A flow is booked (``started``, ``bytes_offered``) when it launches,
    and nothing launches once the engine is stopped. Each flow is a
    fresh connection that writes its payload, closes, and is released
    (:meth:`TCPConnection.release`) shortly after delivery, which keeps
    host demux tables, TDN listener lists (and therefore memory and the
    cost of a TDN change) flat at millions of flows.
    """

    def __init__(
        self,
        testbed,
        rng: SeededRandom,
        load: float = 0.4,
        cdf=None,
        matrix: str = "permutation",
        hotspot_fraction: float = 0.5,
        trace: Optional[Sequence[TraceFlow]] = None,
        connection_cls: Type[TCPConnection] = TCPConnection,
        cc_name: str = "cubic",
        tcp_config: Optional[TCPConfig] = None,
        record_cap: int = 0,
        max_flows: Optional[int] = None,
        **conn_kwargs,
    ):
        if not (0.0 < load <= 1.0):
            raise ValueError("load must be in (0, 1]")
        self.testbed = testbed
        self.sim = testbed.sim
        self.rng = rng.fork("engine")
        self.capacity_bps = average_fabric_rate_bps(testbed.config)
        self.load = load
        self.matrix = matrix
        self.connection_cls = connection_cls
        self.cc_name = cc_name
        self.tcp_config = tcp_config or TCPConfig(mss=testbed.config.mss)
        self.conn_kwargs = conn_kwargs
        self.max_flows = max_flows
        self.n_racks = len(testbed.hosts)
        self.stats = CompletionStats(
            self.capacity_bps,
            record_cap=record_cap,
            rng=self.rng.fork("reservoir") if record_cap > 0 else None,
        )
        self.trace = list(trace) if trace is not None else None
        if self.trace is None:
            if cdf is None:
                from repro.apps.tracegen import WEB_SEARCH_CDF

                cdf = WEB_SEARCH_CDF
            self.sizes = EmpiricalFlowSizes(cdf, self.rng.fork("sizes"))
            weighted = pair_weights(
                self.n_racks, matrix, self.rng, hotspot_fraction=hotspot_fraction
            )
            self._pairs = [pair for pair, _w in weighted]
            # Cumulative weights for one-uniform-draw pair selection.
            self._cum_weights: List[float] = []
            acc = 0.0
            for _pair, weight in weighted:
                acc += weight
                self._cum_weights.append(acc)
            self._cum_weights[-1] = 1.0  # guard against float drift
            aggregate_rate = (  # flows/s across the whole fabric
                load * self.n_racks * self.capacity_bps / 8.0 / self.sizes.mean()
            )
            self.mean_interarrival_ns = max(int(round(SEC / aggregate_rate)), 1)
            self._arrival_rng = self.rng.fork("arrivals")
            self._pair_rng = self.rng.fork("pairs")
            self._placement_rng = self.rng.fork("placement")
        telemetry = Telemetry.of(self.sim)
        self._tp_start = telemetry.tracepoint("workload:flow_start")
        self._tp_complete = telemetry.tracepoint("workload:flow_complete")
        self._tp_report = telemetry.tracepoint("workload:load_report")
        self._running = False
        self._start_ns = 0
        self._wall_start: Optional[float] = None
        self._next_port = 30_000
        # Tiered fidelity (repro.sim.fastpath): set by the runner on
        # tiered runs; every launched pair is registered so arrivals
        # interrupt fluid spans and steady groups can re-enter them.
        self.fastpath = None

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin launching flows (idempotent)."""
        if self._running:
            return
        self._running = True
        self._start_ns = self.sim.now
        self._wall_start = perf_counter()
        if self.trace is not None:
            for flow in self.trace[: self.max_flows]:
                src = self.testbed.host(*parse_host_address(flow.src))
                dst = self.testbed.host(*parse_host_address(flow.dst))
                if flow.start_ns <= 0:
                    self._launch(src, dst, flow.size_bytes)
                else:
                    self.sim.schedule(flow.start_ns, self._launch, src, dst, flow.size_bytes)
        else:
            self._schedule_next_arrival()

    def stop(self) -> None:
        self._running = False

    def offered_load(self, duration_ns: int) -> float:
        """The requested load; for a trace replay, which has none, the
        load its launched rows offered."""
        if self.trace is None:
            return self.load
        return self.stats.load_of(self.stats.bytes_offered, duration_ns, self.n_racks)

    def finish(self) -> CompletionStats:
        """Close the books at the horizon: stop arrivals, count open
        flows as truncated, emit the load report tracepoint."""
        self.stop()
        if self._wall_start is not None:
            self.stats.wall_seconds = perf_counter() - self._wall_start
        self.stats.finalize()
        if self._tp_report.enabled:
            duration = max(self.sim.now - self._start_ns, 1)
            self._tp_report.emit(
                self.sim.now,
                offered_load=self.offered_load(duration),
                achieved_load=self.stats.achieved_load(duration, self.n_racks),
                started=self.stats.started,
                completed=self.stats.completed,
                truncated=self.stats.truncated_flows,
            )
        return self.stats

    # ------------------------------------------------------------------
    def _schedule_next_arrival(self) -> None:
        if not self._running:
            return
        if self.max_flows is not None and self.stats.started >= self.max_flows:
            return
        gap = max(
            int(self._arrival_rng.expovariate(1.0 / self.mean_interarrival_ns)), 1
        )
        self.sim.schedule(gap, self._arrive)

    def _arrive(self) -> None:
        if not self._running:
            return
        u = self._pair_rng.random()
        index = 0
        while index < len(self._cum_weights) - 1 and u > self._cum_weights[index]:
            index += 1
        src_rack, dst_rack = self._pairs[index]
        src = self.testbed.hosts[src_rack]
        dst = self.testbed.hosts[dst_rack]
        src_host = src[self._placement_rng.randint(0, len(src) - 1)]
        dst_host = dst[self._placement_rng.randint(0, len(dst) - 1)]
        self._launch(src_host, dst_host, self.sizes.sample())
        self._schedule_next_arrival()

    def _launch(self, src, dst, size_bytes: int) -> None:
        if not self._running:
            return
        self.stats.on_start(size_bytes)
        server_port = self._next_port
        self._next_port += 1
        client, server = create_connection_pair(
            self.sim, src, dst,
            cc_name=self.cc_name, config=self.tcp_config,
            connection_cls=self.connection_cls,
            server_port=server_port, connect=False,
            **self.conn_kwargs,
        )
        start_ns = self.sim.now
        if self._tp_start.enabled:
            self._tp_start.emit(
                start_ns, src=src.address, dst=dst.address, size_bytes=size_bytes
            )

        def on_established(c=client):
            c.write(size_bytes)
            c.close()

        def on_delivered(time_ns, total, c=client, s=server):
            if total >= size_bytes and not getattr(s, "_engine_done", False):
                s._engine_done = True
                slowdown = self.stats.on_complete(start_ns, size_bytes, time_ns)
                if self._tp_complete.enabled:
                    self._tp_complete.emit(
                        time_ns,
                        src=c.host.address, dst=s.host.address,
                        size_bytes=size_bytes,
                        fct_ns=time_ns - start_ns,
                        slowdown=slowdown,
                    )
                # Release the pair so campaigns don't accumulate.
                self.sim.schedule(1_000_000, self._cleanup, c, s)

        client.on_established = on_established
        server.on_delivered = on_delivered
        if self.fastpath is not None:
            # Register before the handshake: the arrival interrupts any
            # live fluid span on this direction, and the pair becomes a
            # candidate for the group's next span.
            self.fastpath.register_flow(client, server)
        client.connect()

    def _cleanup(self, client: TCPConnection, server: TCPConnection) -> None:
        if self.fastpath is not None:
            self.fastpath.unregister_flow(client)
        client.release()
        server.release()
