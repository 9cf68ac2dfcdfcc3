"""Run one variant on one RDCN configuration and collect everything
the figures need."""

from __future__ import annotations

import logging
import math

from bisect import bisect_right
from collections import Counter
from itertools import chain
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.apps.engine import WorkloadEngine, load_trace
from repro.apps.workload import build_workload
from repro.experiments.config import ExperimentConfig, file_sha256
from repro.experiments.variants import engine_flow_opener, get_variant
from repro.faults.audit import (
    InvariantAuditor,
    WatchdogExceeded,
    run_with_watchdog,
    write_repro_bundle,
)
from repro.faults.injectors import FaultInjector
from repro.net.queues import DropTailQueue
from repro.obs.outcome import outcome_digest, strip_wall
from repro.obs.sketch import sketch_from_samples
from repro.obs.telemetry import Telemetry
from repro.rdcn.topology import TwoRackTestbed, build_two_rack_testbed
from repro.sim.fastpath import FLUID_VARIANTS, FluidFastPath, fidelity_report
from repro.sim.simulator import Simulator
from repro.units import throughput_gbps

logger = logging.getLogger(__name__)


# ----------------------------------------------------------------------
# The paper's averaging over optical weeks (§5: sequence and VOQ graphs
# average "results across thousands of optical weeks")
# ----------------------------------------------------------------------
def week_grid(week_ns: int) -> List[int]:
    """The 400 points of one week a series is folded onto."""
    return [int(i * (week_ns / 400)) for i in range(400)]


def step_interpolate(
    times: Sequence[int], values: Sequence[float], grid: Iterable[int], initial: float = 0.0
) -> List[float]:
    """Previous-value (step) interpolation of a step series onto a grid.

    Queue lengths and rcv_nxt are right-continuous step functions; the
    value at grid point g is the sample at the latest time <= g.
    """
    out = []
    for point in grid:
        index = bisect_right(times, point) - 1
        out.append(float(values[index]) if index >= 0 else float(initial))
    return out


def _pairwise_sum(values: Sequence[float]) -> float:
    """Sum in the order NumPy's ``pairwise_sum`` adds a float64 array
    (plain order below 8 values, 8 running accumulators up to 128,
    halves above), so a mean taken with it is bit-identical to NumPy's.
    Not ``sum()``: it compensates float rounding from Python 3.12 on."""
    n = len(values)
    if n > 128:
        half = n // 2 - (n // 2) % 8
        return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])
    total, tail = 0.0, values
    if n >= 8:
        stop = n - n % 8
        acc = list(values[:8])
        for i in range(8, stop, 8):
            for j in range(8):
                acc[j] += values[i + j]
        total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
        tail = values[stop:]
    for value in tail:
        total += value
    return total


class WeekFolder:
    """Average a step series over the post-warm-up weeks while its
    samples arrive in time order (:meth:`add`): each sample answers the
    :func:`week_grid` points it passes with the latest value at or
    before them (0.0 before any), so only 400 sums, one progress per
    week and ``max`` are kept. :meth:`result` is ``(mean_curve,
    mean_week_progress)``: a ``cumulative`` series (sequence numbers) is
    re-based to zero at each week start, so ``mean_curve[j]`` is the
    mean progress ``week_grid(week_ns)[j]`` into a week; a level series
    (queue occupancy) is averaged as-is, with progress 0."""

    def __init__(
        self, week_ns: int, total_weeks: int, warmup_weeks: int, cumulative: bool = True
    ) -> None:
        grid = week_grid(week_ns)
        # (time, grid index) of every point to answer, in time order; a
        # cumulative series also reads the last week's end.
        self._points = chain(
            ((week * week_ns + offset, j)
             for week in range(warmup_weeks, total_weeks) for j, offset in enumerate(grid)),
            [(total_weeks * week_ns, 0)] if cumulative else [],
        )
        self._next, self._j = next(self._points, (math.inf, 0))
        self._n_weeks, self._cumulative = total_weeks - warmup_weeks, cumulative
        self._sums = [0.0] * len(grid)
        self._progresses: List[float] = []
        self._time, self._value, self._base = 0, 0.0, None
        self.max = 0

    def add(self, time_ns: int, value: float) -> None:
        if time_ns > self._next:
            self._answer_until(time_ns)
        elif time_ns < self._time:
            raise ValueError(f"sample at {time_ns} ns after one at {self._time} ns")
        self._time, self._value = time_ns, value
        if value > self.max:
            self.max = value

    def _answer_until(self, time_ns: float) -> None:
        value = float(self._value)
        point, j = self._next, self._j
        while point < time_ns:
            if j == 0:
                # A week boundary: the last week's end, this week's base.
                if self._base is not None:
                    self._progresses.append(value - self._base)
                self._base = value
            self._sums[j] += value - self._base if self._cumulative else value
            point, j = next(self._points, (math.inf, 0))
        self._next, self._j = point, j

    def result(self) -> Tuple[List[float], float]:
        n_weeks = self._n_weeks
        if n_weeks <= 0:
            raise ValueError("need at least one week after warm-up")
        self._answer_until(math.inf)
        mean_progress = _pairwise_sum(self._progresses) / n_weeks if self._cumulative else 0.0
        return [total / n_weeks for total in self._sums], mean_progress


def count_per_week(
    times: Iterable[int], week_ns: int, total_weeks: int, warmup_weeks: int = 0
) -> List[int]:
    """Events per optical day after the warm-up, zero days included.

    Cross-TDN reordering happens around the transition *into* the
    optical day, so an event at ``t`` counts for the week containing
    ``t``. The zeros matter: the paper's "80% of transitions see no
    reordering" is the share of zero days.
    """
    per_week = Counter(time_ns // week_ns for time_ns in times)
    return [per_week[week] for week in range(warmup_weeks, total_weeks)]


def watch_queue_length(sim: Simulator, queue: DropTailQueue, folder: WeekFolder) -> None:
    """Feed ``queue``'s length changes to ``folder`` from ``sim.now``
    on: a folder attached mid-run must not claim the queue held its
    current length since time 0."""
    folder.add(sim.now, len(queue))
    queue.subscribe_length(lambda length: folder.add(sim.now, length))


# Process-wide heartbeat hook installed by the executor (directly for
# inline runs, by the worker entry point for pooled runs). It lives in
# module state rather than ExperimentConfig because liveness reporting
# must not perturb cache keys or run semantics.
_WORKER_HEARTBEAT: Optional[Tuple[Callable[[int, int, float, int], None], int]] = None


def set_worker_heartbeat(
    fn: Optional[Callable[[int, int, float, int], None]], every_events: int = 0
) -> None:
    """Install (or clear, with ``fn=None``) the heartbeat hook every
    subsequent :func:`run_experiment` in this process wires onto its
    simulator: ``fn(sim_now, lifetime_events, events_per_s,
    pending_events)`` every ``every_events`` processed events, plus one
    final flush per run."""
    global _WORKER_HEARTBEAT
    if fn is None:
        _WORKER_HEARTBEAT = None
        return
    if every_events < 1:
        raise ValueError("every_events must be >= 1")
    _WORKER_HEARTBEAT = (fn, every_events)


@dataclass
class RunFailure:
    """Structured description of a crashed run: everything needed to
    reproduce it (the bundle on disk holds the full config and plan)."""

    error_type: str
    error_message: str
    seed: int
    fault_plan_path: Optional[str]
    bundle_path: Optional[str]
    # True for failures *outside* the simulation (broken worker pool,
    # transport error, a wall-clock watchdog abort): running again
    # elsewhere may succeed, so resume resubmits them instead of
    # quarantining.
    infrastructure: bool = False

    def render(self) -> str:
        lines = [
            f"run FAILED: {self.error_type}: {self.error_message}",
            f"  seed: {self.seed}",
        ]
        if self.fault_plan_path:
            lines.append(f"  fault plan: {self.fault_plan_path}")
        if self.bundle_path:
            lines.append(f"  repro bundle: {self.bundle_path}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "error_type": self.error_type,
            "error_message": self.error_message,
            "seed": self.seed,
            "fault_plan_path": self.fault_plan_path,
            "bundle_path": self.bundle_path,
            "infrastructure": self.infrastructure,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunFailure":
        return cls(**data)


@dataclass
class ExperimentResult:
    """Outputs of one run."""

    config: ExperimentConfig
    duration_ns: int
    flow_delivered: List[int] = field(default_factory=list)
    aggregate_delivered: int = 0
    # Aggregate delivered bytes at the last delivery inside the warm-up.
    warmup_delivered: int = 0
    # A bulk run's post-warm-up weeks folded onto week_grid(week_ns):
    # the mean receiver progress into a week (bytes) and the mean
    # progress per week (collect_sequence), and the mean VOQ depth of
    # the rack-0 -> rack-1 uplink (collect_voq). None when not folded.
    seq_week_curve: Optional[List[float]] = None
    seq_week_progress: float = 0.0
    voq_week_curve: Optional[List[float]] = None
    voq_max: int = 0
    # Per-optical-day counters (Figure 10).
    reordering_per_day: List[int] = field(default_factory=list)
    retx_marks_per_day: List[int] = field(default_factory=list)
    # Sender-side totals.
    retransmissions: int = 0
    spurious_retransmissions: int = 0
    rtos: int = 0
    fast_recoveries: int = 0
    reinjections: int = 0
    notification_latencies: List[int] = field(default_factory=list)
    # Workload-engine outputs (config.workload runs): the deterministic
    # completion digest, and the count of flows the horizon cut off —
    # explicit, so the censored FCT tail is visible instead of missing.
    workload_summary: Optional[dict] = None
    truncated_flows: int = 0
    # Streaming aggregates: name -> serialized QuantileSketch state
    # (repro.obs.sketch). Constant-memory summaries that merge exactly
    # across runs — the campaign dashboard's percentile source.
    sketches: Dict[str, dict] = field(default_factory=dict)
    # Telemetry outputs (populated when config.obs is set): artifact
    # paths written by Telemetry.finish() and the profiler's report.
    artifacts: List[str] = field(default_factory=list)
    profile_report: Optional[str] = None
    events_per_second: Optional[float] = None
    # Robustness outputs: set when fault injection / auditing ran, and
    # on any crash (the run then returns instead of raising).
    failure: Optional[RunFailure] = None
    fault_report: Optional[dict] = None
    audit_report: Optional[dict] = None
    # Tiered-fidelity accounting (config.fidelity == "tiered"): the
    # effective mode, forced-packet reasons (if any), and fluid-span
    # counters. None on plain packet runs.
    fidelity_report: Optional[dict] = None

    @classmethod
    def failed(
        cls,
        config: ExperimentConfig,
        error_type: str,
        error_message: str,
        bundle_path: Optional[str] = None,
        infrastructure: bool = False,
    ) -> "ExperimentResult":
        """The one constructor of a failed run's result."""
        result = cls(config=config, duration_ns=config.duration_ns)
        result.failure = RunFailure(
            error_type=error_type,
            error_message=error_message,
            seed=config.seed,
            fault_plan_path=config.fault_plan_path,
            bundle_path=bundle_path,
            infrastructure=infrastructure,
        )
        return result

    @property
    def ok(self) -> bool:
        return self.failure is None

    @property
    def throughput_gbps(self) -> float:
        return throughput_gbps(self.aggregate_delivered, self.duration_ns)

    def steady_state_throughput_gbps(self) -> float:
        """Throughput excluding the warm-up weeks."""
        warmup_ns = self.config.warmup_weeks * self.config.rdcn.week_ns
        return throughput_gbps(
            self.aggregate_delivered - self.warmup_delivered, self.duration_ns - warmup_ns
        )

    def render_reports(self, prefix: str = "") -> List[str]:
        """What the fault injector and the auditor did to this run, as
        the lines every CLI trailer prints; empty when the run carried
        neither report. ``prefix`` tags the headline of each block."""
        lines: List[str] = []
        report = self.fault_report
        if report is not None:
            lines.append(f"{prefix}fault plan: {report['plan']} ({report['specs']} specs, "
                         f"{report['total_effects']} effects)")
            lines += [f"  {kind}: {count}" for kind, count in sorted(report["effects"].items())]
            lines += [f"  warning: {note}" for note in report["unmatched"]]
        report = self.audit_report
        if report is not None:
            lines.append(f"{prefix}auditor [{report['mode']}]: {report['checks_run']} audits, "
                         f"{report['violation_count']} violations")
            lines += [f"  [{v['time_ns']} ns] {v['check']} @ {v['subject']}: {v['detail']}"
                      for v in report["violations"][:10]]
        return lines

    # ------------------------------------------------------------------
    # Canonical serialization (executor result cache, worker transport)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready summary carrying everything the figures and sweeps
        consume. ``from_dict(to_dict(r))`` is value-identical."""
        return {
            "config": self.config.to_dict(),
            "duration_ns": self.duration_ns,
            "flow_delivered": list(self.flow_delivered),
            "aggregate_delivered": self.aggregate_delivered,
            "warmup_delivered": self.warmup_delivered,
            "seq_week_curve": self.seq_week_curve,
            "seq_week_progress": self.seq_week_progress,
            "voq_week_curve": self.voq_week_curve,
            "voq_max": self.voq_max,
            "reordering_per_day": list(self.reordering_per_day),
            "retx_marks_per_day": list(self.retx_marks_per_day),
            "retransmissions": self.retransmissions,
            "spurious_retransmissions": self.spurious_retransmissions,
            "rtos": self.rtos,
            "fast_recoveries": self.fast_recoveries,
            "reinjections": self.reinjections,
            "notification_latencies": list(self.notification_latencies),
            "workload_summary": self.workload_summary,
            "truncated_flows": self.truncated_flows,
            "sketches": dict(self.sketches),
            "artifacts": list(self.artifacts),
            "profile_report": self.profile_report,
            "events_per_second": self.events_per_second,
            "failure": self.failure.to_dict() if self.failure is not None else None,
            "fault_report": self.fault_report,
            "audit_report": self.audit_report,
            "fidelity_report": self.fidelity_report,
        }

    def outcome(self) -> dict:
        """:meth:`to_dict` without the host fields
        (:data:`repro.obs.outcome.HOST_FIELDS`): what the run simulated.
        Telemetry settings decide what a run writes, not what it
        simulates, so the config reads with ``obs`` off."""
        data = self.to_dict()
        data["config"]["obs"] = None
        return strip_wall(data)

    def outcome_digest(self) -> str:
        """The digest goldens pin: equal for two runs of one seeded
        config, with or without telemetry, inline, pooled or cached."""
        return outcome_digest(self.outcome())

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentResult":
        kwargs = dict(data)
        kwargs["config"] = ExperimentConfig.from_dict(kwargs["config"])
        if kwargs.get("failure") is not None:
            kwargs["failure"] = RunFailure.from_dict(kwargs["failure"])
        return cls(**kwargs)


class _AggregateSeqCollector:
    """Merges per-flow rcv_nxt advances into one total-bytes series (fed
    to ``folder``, if any) and the total at the last warm-up delivery."""

    def __init__(self, warmup_ns: int, folder: Optional[WeekFolder]) -> None:
        self.total = 0
        self.warmup_delivered = 0
        self.folder = folder
        # -1 once a delivery has landed past the warm-up: the snapshot
        # is final even if a later callback carries an earlier time.
        self._warmup_ns = warmup_ns
        self._per_flow_last: Dict[int, int] = {}

    def make_callback(self, flow_index: int):
        self._per_flow_last[flow_index] = 0

        def on_delivered(time_ns: int, rcv_nxt: int) -> None:
            delta = rcv_nxt - self._per_flow_last[flow_index]
            if delta <= 0:
                return
            self._per_flow_last[flow_index] = rcv_nxt
            self.total += delta
            if self.folder is not None:
                self.folder.add(time_ns, self.total)
            if time_ns <= self._warmup_ns:
                self.warmup_delivered = self.total
            else:
                self._warmup_ns = -1

        return on_delivered


def _iter_sender_stats(sender):
    """Yield ConnStats objects from a sender endpoint (MPTCP has one
    per subflow)."""
    if hasattr(sender, "subflows"):
        for subflow in sender.subflows:
            yield subflow.stats
    else:
        yield sender.stats


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Build the testbed, run the workload, gather the results.

    Robustness path: when ``config.fault_plan`` is set a
    :class:`FaultInjector` is armed on the testbed before start; when
    ``config.audit`` is set an :class:`InvariantAuditor` periodically
    re-checks accounting invariants. Any exception during the run
    (including ``fail``-mode audit violations and watchdog aborts) is
    captured into a repro bundle and returned as a structured
    ``result.failure`` instead of propagating.
    """
    variant = get_variant(config.variant)
    rdcn = config.rdcn
    if variant.unoptimized_notifier:
        rdcn = replace(rdcn, notifier=rdcn.notifier.unoptimized())

    # Tiered fidelity: scenarios the fluid model cannot represent run at
    # packet fidelity instead, with the reasons logged and reported.
    fastpath: Optional[FluidFastPath] = None
    forced_reasons: List[str] = []
    if config.fidelity == "tiered":
        if config.fault_plan is not None and len(config.fault_plan) > 0:
            forced_reasons.append("fault_plan")
        if config.audit == "fail":
            forced_reasons.append("audit_fail")
        if config.variant not in FLUID_VARIANTS:
            forced_reasons.append(f"variant:{config.variant}")
        if config.tcp.ecn_enabled:
            # ECT senders: the fluid model cannot CE-mark.
            forced_reasons.append("ecn")
        if forced_reasons:
            logger.info(
                "tiered fidelity unsupported for this run; forcing packet (%s)",
                ", ".join(forced_reasons),
            )

    # Telemetry attaches to the simulator before anything instrumented
    # is constructed (tracepoints are fetched at construction time).
    sim = Simulator()
    telemetry: Optional[Telemetry] = None
    if config.obs is not None and config.obs.active:
        telemetry = Telemetry(config.obs).attach(sim)

    # Campaign liveness: wire the process-wide heartbeat hook (if any)
    # onto this run's simulator. Heartbeats never alter simulation
    # behavior — the hook only reads clock/counters.
    heartbeat = _WORKER_HEARTBEAT
    if heartbeat is not None:
        sim.set_heartbeat(heartbeat[0], heartbeat[1])

    injector: Optional[FaultInjector] = None
    auditor: Optional[InvariantAuditor] = None

    def finish(result: ExperimentResult) -> ExperimentResult:
        """The run's one epilogue, crashed or not: what the injector,
        the auditor, the fidelity tier and telemetry have to report. A
        failed run keeps the full telemetry story — artifacts and
        profile — so a crash is debuggable from the same outputs."""
        if injector is not None:
            result.fault_report = injector.report()
        if auditor is not None:
            result.audit_report = auditor.report()
        if config.fidelity == "tiered" and (fastpath is not None or forced_reasons):
            # Neither: the set-up crashed before the fast path was built.
            result.fidelity_report = fidelity_report(forced_reasons, fastpath)
        if telemetry is not None:
            result.artifacts = telemetry.finish()
            result.profile_report = telemetry.profile_report()
            if telemetry.profiler is not None:
                result.events_per_second = telemetry.profiler.events_per_second
        return result

    try:
        # Set-up runs under the same capture as the run: a config the
        # set-up rejects is this run's failure, with its bundle.
        testbed = build_two_rack_testbed(rdcn, sim=sim)
        if not variant.listens_to_tdn_changes():
            # Nothing but the notifier's latency recorder will listen.
            testbed.notifier.announce_without_events(config.duration_ns)

        # Fault arming happens before variant/workload construction so the
        # injector's deliver-wrappers sit underneath everything.
        if config.fault_plan is not None and len(config.fault_plan) > 0:
            injector = FaultInjector(testbed.sim, config.fault_plan, testbed.rng)
            injector.arm_testbed(testbed)

        context = variant.prepare(testbed, config)

        week = (rdcn.week_ns, config.weeks, config.warmup_weeks)
        seq_folder = WeekFolder(*week) if config.collect_sequence else None
        seq_collector = _AggregateSeqCollector(config.warmup_weeks * rdcn.week_ns, seq_folder)
        workload = None
        engine: Optional[WorkloadEngine] = None
        if config.workload is not None:
            # Workload-engine path: fabric-wide empirical traffic or trace
            # replay instead of the bulk long-lived flows.
            wl = config.workload
            connection_cls, cc_name, conn_kwargs = engine_flow_opener(
                config.variant, testbed, config
            )
            trace = None
            if wl.kind == "trace":
                try:
                    # The stated hash names the run in cache keys: replaying
                    # other bytes under it would hand the cache a result for
                    # a trace that never ran.
                    actual = file_sha256(wl.trace_path)
                    if actual != wl.trace_sha256:
                        raise ValueError(
                            f"trace {wl.trace_path} has sha256 {actual}, "
                            f"the config states {wl.trace_sha256}"
                        )
                    trace, skipped = load_trace(wl.trace_path, strict=wl.strict_trace)
                except (OSError, ValueError) as error:
                    # A bad trace is this run's failure, not a crash that
                    # takes down the whole batch.
                    return ExperimentResult.failed(config, type(error).__name__, str(error))
            engine = WorkloadEngine(
                testbed,
                testbed.rng,
                load=wl.load,
                cdf=wl.size_cdf() if wl.kind == "empirical" else None,
                matrix=wl.matrix,
                hotspot_fraction=wl.hotspot_fraction,
                trace=trace,
                connection_cls=connection_cls,
                cc_name=cc_name,
                tcp_config=config.tcp,
                max_flows=wl.max_flows,
                **conn_kwargs,
            )
            if wl.kind == "trace":
                engine.stats.trace_rows_skipped = skipped
            engine.start()
        else:

            def flow_factory(tb: TwoRackTestbed, src, dst, index: int):
                sender, receiver = variant.make_flow(tb, src, dst, index, config, context)
                receiver.on_delivered = seq_collector.make_callback(index)
                return sender, receiver

            workload = build_workload(testbed, flow_factory, n_flows=config.n_flows)

        voq: Optional[WeekFolder] = None
        if config.collect_voq:
            # An engine run folds no week: a folder of none keeps only the maximum.
            voq = WeekFolder(*(week if engine is None else (rdcn.week_ns, 0, 0)), cumulative=False)
            watch_queue_length(testbed.sim, testbed.uplinks[0].queue, voq)

        if config.fidelity == "tiered" and not forced_reasons:
            # Fluid spans bypass the real VOQ; feed the folder the model's
            # per-round occupancy at historical timestamps.
            fastpath = FluidFastPath(
                testbed, config.duration_ns, occupancy_hook=voq.add if voq is not None else None
            )
            if engine is not None:
                engine.fastpath = fastpath
            elif workload is not None:
                for flow in workload.flows:
                    fastpath.register_flow(flow.sender, flow.receiver)

        if config.audit is not None:
            auditor = InvariantAuditor(testbed.sim, mode=config.audit)
            if workload is not None:
                auditor.watch_workload(workload)
            for uplink in testbed.uplinks.values():
                auditor.watch_uplink(uplink)

        testbed.start()
        if fastpath is not None:
            fastpath.start()
        if auditor is not None:
            auditor.start()
        run_with_watchdog(
            testbed.sim,
            until=config.duration_ns,
            max_events=config.watchdog_max_events,
            max_wall_s=config.watchdog_max_wall_s,
        )
        if auditor is not None:
            auditor.audit()  # final sweep at the horizon
        # Guarantee >= 1 heartbeat per executed run, however short.
        testbed.sim.flush_heartbeat()
    except Exception as error:
        sim.flush_heartbeat()
        bundle_path: Optional[str] = None
        try:
            bundle_path = write_repro_bundle(
                config.bundle_dir,
                config=config,
                error=error,
                fault_plan=config.fault_plan,
                seed=config.seed,
                label=config.variant,
            )
        except OSError:
            pass  # an unwritable bundle dir must not mask the failure
        # A wall-clock abort measures the host's load, not the
        # simulation: resume re-executes it instead of quarantining.
        wall_abort = isinstance(error, WatchdogExceeded) and error.reason == "wall-clock budget"
        return finish(ExperimentResult.failed(
            config, type(error).__name__, str(error), bundle_path=bundle_path,
            infrastructure=wall_abort,
        ))

    result = ExperimentResult(config=config, duration_ns=config.duration_ns)
    if voq is not None:
        result.voq_max = voq.max
    if engine is not None:
        stats = engine.finish()
        result.workload_summary = stats.summary(
            config.duration_ns, engine.n_racks, engine.offered_load(config.duration_ns)
        )
        result.truncated_flows = stats.truncated_flows
        result.aggregate_delivered = stats.bytes_completed
    else:
        result.flow_delivered = [flow.delivered_bytes for flow in workload.flows]
        result.aggregate_delivered = seq_collector.total
        result.warmup_delivered = seq_collector.warmup_delivered
        if seq_folder is not None and seq_collector.total:
            result.seq_week_curve, result.seq_week_progress = seq_folder.result()
        if voq is not None:
            result.voq_week_curve, _ = voq.result()
        senders = [
            stats for flow in workload.flows for stats in _iter_sender_stats(flow.sender)
        ]
        for stats in senders:
            result.retransmissions += stats.retransmissions
            result.spurious_retransmissions += stats.spurious_retransmissions
            result.rtos += stats.rtos
            result.fast_recoveries += stats.fast_recoveries
        for flow in workload.flows:
            if hasattr(flow.sender, "stats") and hasattr(flow.sender.stats, "reinjections"):
                result.reinjections += flow.sender.stats.reinjections
        result.reordering_per_day = count_per_week(
            (t for stats in senders for t, _n in stats.reordering_events), *week
        )
        result.retx_marks_per_day = count_per_week(
            (mark[0] for stats in senders for mark in stats.retransmit_marks), *week
        )
    result.notification_latencies = list(testbed.notifier.delivery_latency_samples)
    result.sketches = {
        "notify_latency_ns": sketch_from_samples(result.notification_latencies).to_dict(),
        "retx_marks_per_day": sketch_from_samples(result.retx_marks_per_day).to_dict(),
        "reordering_per_day": sketch_from_samples(result.reordering_per_day).to_dict(),
    }
    if engine is not None:
        result.sketches.update(engine.stats.sketches())
    return finish(result)
