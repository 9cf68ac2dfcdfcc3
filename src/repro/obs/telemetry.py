"""The telemetry facade: one object wiring tracepoints, metrics,
exporters, and the simulator profiler together.

Lifecycle::

    from repro.obs import ObsConfig, Telemetry
    from repro.sim import Simulator

    telemetry = Telemetry(ObsConfig(trace_dir="out", profile=True))
    sim = Simulator()
    telemetry.attach(sim)          # BEFORE building the testbed/stack
    ...build testbed, run...
    artifacts = telemetry.finish() # writes JSONL / Chrome trace / CSVs

Instrumented code never imports this module's state directly; it calls
``Telemetry.of(sim)``, which returns the attached instance or a shared
disabled stand-in whose tracepoints never enable. A probe site in a run
without telemetry therefore costs one attribute check.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, fields, replace
from typing import Any, List, Optional

from repro.obs.exporters import (
    MemoryExporter,
    render_chrome_trace,
    render_jsonl,
    write_csv_series,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiling import SimulatorProfiler
from repro.obs.tracepoints import (
    NULL_TRACEPOINT,
    Subscriber,
    Tracepoint,
    TracepointRegistry,
)


@dataclass(frozen=True)
class ObsConfig:
    """What a run should record and where the artifacts go.

    ``tracepoints`` is a glob over tracepoint names (``"tcp:*"`` records
    only the TCP families); exporters subscribe to the matching set.
    """

    trace_dir: Optional[str] = None       # JSONL + Chrome trace + CSVs
    metrics_dir: Optional[str] = None     # metrics registry snapshot (JSON)
    profile: bool = False                 # simulator wall-time attribution
    tracepoints: str = "*"
    label: str = "run"
    chrome_trace: bool = True
    csv: bool = True

    @property
    def active(self) -> bool:
        """Does this configuration record anything at all?"""
        return bool(self.trace_dir or self.metrics_dir or self.profile)

    def for_run(self, label: str) -> "ObsConfig":
        """Copy with a run-specific artifact label (figure_variant)."""
        return replace(self, label=label)

    def to_dict(self) -> dict:
        """Canonical JSON-ready view (every field, declaration order)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "ObsConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown ObsConfig fields {sorted(unknown)}")
        return cls(**data)


class Telemetry:
    """Owns the tracepoint registry, metrics registry, event buffer,
    exporters, and (optionally) the simulator profiler for one run."""

    enabled = True

    def __init__(self, config: Optional[ObsConfig] = None):
        self.config = config or ObsConfig()
        self.tracepoints = TracepointRegistry()
        self.metrics = MetricsRegistry()
        self.recorder = MemoryExporter()
        self.profiler: Optional[SimulatorProfiler] = None
        self.sim: Any = None
        self._artifacts: List[str] = []
        if self.config.trace_dir:
            self.tracepoints.subscribe(self.config.tracepoints, self.recorder)
        if self.config.metrics_dir:
            self.enable_metrics_bridge()

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------
    @staticmethod
    def of(sim: Any) -> "Telemetry":
        """The telemetry attached to ``sim``, or the disabled stand-in."""
        telemetry = getattr(sim, "telemetry", None)
        return telemetry if telemetry is not None else DISABLED

    def attach(self, sim: Any) -> "Telemetry":
        """Bind to a simulator. Must happen before instrumented objects
        (connections, testbeds) are constructed — they fetch their
        tracepoints at construction time."""
        sim.telemetry = self
        self.sim = sim
        if self.config.profile:
            self.enable_profiling()
        return self

    # ------------------------------------------------------------------
    # Tracepoints / metrics
    # ------------------------------------------------------------------
    def tracepoint(self, name: str) -> Tracepoint:
        """Fetch a probe point by name (one dict lookup)."""
        return self.tracepoints.get(name)

    def subscribe(self, pattern: str, fn: Subscriber) -> None:
        """Attach a subscriber to every tracepoint matching the glob."""
        self.tracepoints.subscribe(pattern, fn)

    def enable_metrics_bridge(self) -> None:
        """Derive the standard metric families from the tracepoint
        stream (counters/gauges/sketches with per-connection and
        per-TDN labels)."""
        bridge = _MetricsBridge(self.metrics)
        self.tracepoints.subscribe("*", bridge)

    def enable_profiling(self) -> SimulatorProfiler:
        """Install a wall-time profiler on the attached simulator."""
        if self.sim is None:
            raise RuntimeError("attach() a simulator before enabling profiling")
        if self.profiler is None:
            self.profiler = SimulatorProfiler()
            self.sim.profiler = self.profiler
        return self.profiler

    # ------------------------------------------------------------------
    # Object instrumentation helpers
    # ------------------------------------------------------------------
    def instrument_queue(self, queue: Any, sim: Any) -> None:
        """Wire a :class:`repro.net.queues.DropTailQueue` into the
        ``queue:occupancy`` / ``queue:drop`` tracepoints."""
        tp_occupancy = self.tracepoint("queue:occupancy")
        tp_drop = self.tracepoint("queue:drop")
        qname = queue.name
        # attach/detach mutate the subscriber list in place, so the
        # closure can capture the list itself and skip one lookup.
        occupancy_subs = tp_occupancy._subscribers

        def on_length(length: int) -> None:
            # Dispatches to the subscriber list directly (the loop is
            # exactly Tracepoint.emit's body): queue occupancy is the
            # highest-volume tracepoint and the extra frame shows up.
            if tp_occupancy.enabled:
                now = sim.now
                fields = {"queue": qname, "length": length}
                for fn in occupancy_subs:
                    fn(now, "queue:occupancy", fields)

        def on_drop(_packet: Any) -> None:
            if tp_drop.enabled:
                tp_drop.emit(sim.now, queue=qname, occupancy=len(queue))

        queue.subscribe_length(on_length)
        queue.subscribe_drop(on_drop)

    def instrument_pool(self, pool: Any, sim: Any) -> None:
        """Wire a :class:`repro.net.queues.SharedBufferPool` into the
        ``pool:occupancy`` / ``pool:reject`` tracepoints."""
        tp_occupancy = self.tracepoint("pool:occupancy")
        tp_reject = self.tracepoint("pool:reject")
        pname = pool.name

        def on_used(used: int) -> None:
            if tp_occupancy.enabled:
                tp_occupancy.emit(
                    sim.now, pool=pname, used=used, free=pool.total - used
                )

        def on_reject(queue_name: str, occupancy: int) -> None:
            if tp_reject.enabled:
                tp_reject.emit(
                    sim.now, pool=pname, queue=queue_name, occupancy=occupancy
                )

        pool.subscribe_occupancy(on_used)
        pool.subscribe_reject(on_reject)

    # ------------------------------------------------------------------
    # Artifacts
    # ------------------------------------------------------------------
    def profile_report(self) -> Optional[str]:
        return self.profiler.report() if self.profiler is not None else None

    def finish(self) -> List[str]:
        """Write every configured artifact; returns the paths written.
        Idempotent: a second call rewrites the same files."""
        self._artifacts = []
        cfg = self.config
        if cfg.trace_dir:
            directory = pathlib.Path(cfg.trace_dir)
            directory.mkdir(parents=True, exist_ok=True)
            path = directory / f"{cfg.label}.jsonl"
            path.write_text(render_jsonl(self.recorder.events))
            self._artifacts.append(str(path))
            if cfg.chrome_trace:
                path = directory / f"{cfg.label}.trace.json"
                path.write_text(
                    json.dumps(render_chrome_trace(self.recorder.events), sort_keys=True)
                )
                self._artifacts.append(str(path))
            if cfg.csv:
                self._artifacts.extend(
                    write_csv_series(self.recorder.events, directory, cfg.label)
                )
        if cfg.metrics_dir:
            directory = pathlib.Path(cfg.metrics_dir)
            directory.mkdir(parents=True, exist_ok=True)
            path = directory / f"{cfg.label}_metrics.json"
            path.write_text(json.dumps(self.metrics.snapshot(), indent=2, sort_keys=True))
            self._artifacts.append(str(path))
        if self.profiler is not None and (cfg.trace_dir or cfg.metrics_dir):
            directory = pathlib.Path(cfg.trace_dir or cfg.metrics_dir)
            directory.mkdir(parents=True, exist_ok=True)
            path = directory / f"{cfg.label}_profile.txt"
            path.write_text(self.profiler.report() + "\n")
            self._artifacts.append(str(path))
        return list(self._artifacts)

class _MetricsBridge:
    """Maps the standard tracepoint families onto metric families."""

    def __init__(self, registry: MetricsRegistry):
        self._retransmits = registry.counter(
            "tcp_retransmits_total", "retransmissions", ("conn", "tdn")
        )
        self._cwnd = registry.gauge("tcp_cwnd", "congestion window (MSS)", ("conn", "tdn"))
        self._ca_transitions = registry.counter(
            "tcp_ca_transitions_total", "CA state machine transitions", ("conn", "state")
        )
        self._switches = registry.counter(
            "tdtcp_switches_total", "TDN state-set switches", ("conn",)
        )
        self._day_night = registry.counter(
            "rdcn_transitions_total", "fabric day/night transitions", ("phase",)
        )
        self._drops = registry.counter("queue_drops_total", "VOQ drop-tail drops", ("queue",))
        self._occupancy = registry.gauge("queue_occupancy", "VOQ length (packets)", ("queue",))
        self._occupancy_dist = registry.sketch(
            "queue_occupancy_dist", "VOQ length distribution", ("queue",)
        )
        self._pool_rejects = registry.counter(
            "pool_rejections_total", "shared-buffer pool admission refusals", ("pool", "queue")
        )
        self._pool_occupancy = registry.gauge(
            "pool_occupancy", "shared-buffer pool cells in use", ("pool",)
        )
        self._notify_latency = registry.sketch(
            "notifier_delivery_latency_ns", "TDN notification end-to-end latency", ()
        )
        self._notify_stale = registry.counter(
            "tdn_notification_stale", "stale/duplicate/unknown TDN notifications ignored",
            ("where", "reason"),
        )
        self._workload_flows = registry.counter(
            "workload_flows_total", "workload-engine flows by lifecycle stage",
            ("stage",),
        )
        self._workload_fct = registry.sketch(
            "workload_fct_ns", "workload-engine flow completion time", ()
        )
        self._workload_offered = registry.gauge(
            "workload_offered_load",
            "offered load (fraction of fabric): requested, or a trace's launched rows",
            (),
        )
        self._workload_achieved = registry.gauge(
            "workload_achieved_load", "achieved load (delivered bytes / capacity)", ()
        )
        self._fault_injections = registry.counter(
            "fault_injections_total", "injected fault effects", ("kind",)
        )
        self._audit_violations = registry.counter(
            "audit_violations_total", "runtime invariant violations", ("check",)
        )

    def __call__(self, time_ns: int, name: str, fields: dict) -> None:
        if name == "tcp:cwnd_update":
            self._cwnd.set(fields.get("cwnd", 0.0), conn=fields.get("conn"), tdn=fields.get("tdn"))
        elif name == "tcp:retransmit":
            self._retransmits.inc(1, conn=fields.get("conn"), tdn=fields.get("tdn"))
        elif name == "tcp:ca_state":
            self._ca_transitions.inc(1, conn=fields.get("conn"), state=fields.get("state"))
        elif name == "tdtcp:tdn_switch":
            self._switches.inc(1, conn=fields.get("conn"))
        elif name == "rdcn:day_night":
            self._day_night.inc(1, phase=fields.get("phase"))
        elif name == "queue:drop":
            self._drops.inc(1, queue=fields.get("queue"))
        elif name == "queue:occupancy":
            length = fields.get("length", 0)
            self._occupancy.set(length, queue=fields.get("queue"))
            self._occupancy_dist.observe(length, queue=fields.get("queue"))
        elif name == "pool:occupancy":
            self._pool_occupancy.set(fields.get("used", 0), pool=fields.get("pool"))
        elif name == "pool:reject":
            self._pool_rejects.inc(
                1, pool=fields.get("pool"), queue=fields.get("queue")
            )
        elif name == "notifier:deliver":
            self._notify_latency.observe(fields.get("latency_ns", 0))
        elif name == "notifier:stale":
            self._notify_stale.inc(
                1, where=fields.get("where"), reason=fields.get("reason")
            )
        elif name == "workload:flow_start":
            self._workload_flows.inc(1, stage="started")
        elif name == "workload:flow_complete":
            self._workload_flows.inc(1, stage="completed")
            self._workload_fct.observe(fields.get("fct_ns", 0))
        elif name == "workload:load_report":
            self._workload_offered.set(fields.get("offered_load", 0.0))
            self._workload_achieved.set(fields.get("achieved_load", 0.0))
        elif name == "fault:inject":
            self._fault_injections.inc(1, kind=fields.get("kind"))
        elif name == "audit:violation":
            self._audit_violations.inc(1, check=fields.get("check"))


class _DisabledTelemetry:
    """Stand-in returned by :meth:`Telemetry.of` when nothing is
    attached: every tracepoint is the shared disabled sentinel and the
    instrumentation helpers are no-ops."""

    enabled = False

    def tracepoint(self, name: str) -> Tracepoint:
        return NULL_TRACEPOINT

    def instrument_queue(self, queue: Any, sim: Any) -> None:
        pass

    def instrument_pool(self, pool: Any, sim: Any) -> None:
        pass


DISABLED = _DisabledTelemetry()
