"""Runtime invariant auditing, run watchdog, and crash capture.

Three robustness services for experiment runs:

* :class:`InvariantAuditor` — a periodic simulator event that re-derives
  ground truth from the live objects and compares it with the fast-path
  counters: scoreboard vs ``packets_out``/``sacked_out``/``lost_out``/
  ``retrans_out`` on every watched connection, cwnd/ssthresh floors,
  event-queue/clock monotonicity, and VOQ conservation (every accepted
  packet is either still queued or was transmitted). ``warn`` mode
  records violations (and emits ``audit:violation`` tracepoints);
  ``fail`` mode raises :class:`InvariantViolation` at the first dirty
  audit, stopping the run inside the event that corrupted state.
* :func:`run_with_watchdog` — drives ``sim.run`` in bounded chunks and
  aborts with :class:`WatchdogExceeded` when a run blows its event or
  wall-clock budget (a wedged retransmission loop under faults would
  otherwise spin forever).
* :func:`write_repro_bundle` — serializes seed + fault plan + config +
  traceback into a directory on any crash, so every failure is
  replayable from the bundle alone.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import traceback as traceback_module
from time import perf_counter
from typing import Any, Dict, List, Optional

from repro.obs.telemetry import Telemetry
from repro.sim.simulator import Simulator

AUDIT_MODES = ("warn", "fail")

#: Simulated time between two audit sweeps of a started auditor.
AUDIT_INTERVAL_NS = 200_000

#: Events per watchdog slice: a wedged run is caught within one slice.
WATCHDOG_CHUNK_EVENTS = 100_000


class InvariantViolation(AssertionError):
    """A runtime invariant audit found corrupted state (fail mode)."""

    def __init__(self, violations: List[dict]):
        self.violations = violations
        lines = [
            f"  [{v['time_ns']} ns] {v['check']} @ {v['subject']}: {v['detail']}"
            for v in violations
        ]
        super().__init__(
            f"{len(violations)} invariant violation(s):\n" + "\n".join(lines)
        )


class WatchdogExceeded(RuntimeError):
    """A run blew its event or wall-clock budget."""

    def __init__(self, reason: str, processed: int, wall_s: float):
        self.reason = reason
        self.processed = processed
        self.wall_s = wall_s
        super().__init__(
            f"watchdog: {reason} exceeded after {processed:,} events / {wall_s:.1f}s wall"
        )


class InvariantAuditor:
    """Periodic runtime auditing of the live simulation state.

    Watched objects are plain references — the auditor never mutates
    them. ``audit()`` can also be called directly (the runner does a
    final audit after the horizon). Note that a started auditor keeps
    one event pending forever, so drive the simulator with ``until=``.
    """

    def __init__(self, sim: Simulator, mode: str = "warn"):
        if mode not in AUDIT_MODES:
            raise ValueError(f"audit mode must be one of {AUDIT_MODES}, got {mode!r}")
        self.sim = sim
        self.mode = mode
        self.interval_ns = AUDIT_INTERVAL_NS
        self.connections: List[Any] = []
        self.uplinks: List[Any] = []
        self.queues: List[Any] = []
        self.pools: List[Any] = []
        self.checks_run = 0
        self.violations: List[dict] = []
        self._tp = Telemetry.of(sim).tracepoint("audit:violation")
        self._last_now: Optional[int] = None
        self._started = False

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def watch_connection(self, conn: Any) -> None:
        if conn not in self.connections:
            self.connections.append(conn)

    def watch_endpoint(self, endpoint: Any) -> None:
        """Watch a flow endpoint: unwraps MPTCP connections into their
        subflows; ignores objects without TCP accounting."""
        if hasattr(endpoint, "subflows"):
            for subflow in endpoint.subflows:
                self.watch_endpoint(subflow)
            return
        if hasattr(endpoint, "segments") and hasattr(endpoint, "paths"):
            self.watch_connection(endpoint)

    def watch_uplink(self, uplink: Any) -> None:
        if uplink not in self.uplinks:
            self.uplinks.append(uplink)
            self.watch_queue(uplink.queue)

    def watch_queue(self, queue: Any) -> None:
        if queue not in self.queues:
            self.queues.append(queue)
        if queue.pool is not None:
            self.watch_pool(queue.pool)

    def watch_pool(self, pool: Any) -> None:
        if pool not in self.pools:
            self.pools.append(pool)

    def watch_workload(self, workload: Any) -> None:
        for flow in workload.flows:
            self.watch_endpoint(flow.sender)
            self.watch_endpoint(flow.receiver)

    # ------------------------------------------------------------------
    # Periodic driving
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._started:
            raise RuntimeError("auditor already started")
        self._started = True
        self.sim.schedule(self.interval_ns, self._tick)

    def _tick(self) -> None:
        self.audit()
        self.sim.schedule(self.interval_ns, self._tick)

    # ------------------------------------------------------------------
    # Checks
    # ------------------------------------------------------------------
    def audit(self) -> List[dict]:
        """Run every check once; returns (and records) fresh violations.
        Raises :class:`InvariantViolation` in ``fail`` mode."""
        self.checks_run += 1
        found: List[dict] = []
        now = self.sim.now
        if self._last_now is not None and now < self._last_now:
            found.append(self._violation(
                "clock_monotonic", "sim",
                f"clock went backwards: {self._last_now} -> {now}",
            ))
        self._last_now = now
        heap = self.sim._queue._heap
        if heap:
            head_time, _seq, head_fn, head_args = heap[0]
            # A handle entry (args None) carries its Event in ``fn``.
            live = head_args is not None or not head_fn.cancelled
            if head_time < now and live:
                found.append(self._violation(
                    "event_queue_monotonic", "sim",
                    f"live event pending at {head_time} < now {now}",
                ))
        for conn in self.connections:
            # The connection owns its scoreboard recount.
            found.extend(
                self._violation(*finding) for finding in conn.invariant_findings()
            )
        for uplink in self.uplinks:
            found.extend(self._audit_uplink(uplink))
        for queue in self.queues:
            found.extend(self._audit_queue(queue))
        for pool in self.pools:
            found.extend(self._audit_pool(pool))
        if found:
            self.violations.extend(found)
            if self._tp.enabled:
                for violation in found:
                    self._tp.emit(
                        now,
                        check=violation["check"],
                        subject=violation["subject"],
                        detail=violation["detail"],
                    )
            if self.mode == "fail":
                raise InvariantViolation(found)
        return found

    def _violation(self, check: str, subject: str, detail: str) -> dict:
        return {
            "time_ns": self.sim.now,
            "check": check,
            "subject": subject,
            "detail": detail,
        }

    def _audit_uplink(self, uplink: Any) -> List[dict]:
        """VOQ conservation: every packet the VOQ accepted was either
        transmitted by the uplink or is still queued."""
        queue = uplink.queue
        expected = uplink.tx_packets + len(queue)
        if queue.enqueued != expected:
            return [self._violation(
                "voq_conservation", uplink.name,
                f"enqueued={queue.enqueued} != tx={uplink.tx_packets} + queued={len(queue)}",
            )]
        return []

    def _audit_queue(self, queue: Any) -> List[dict]:
        found: List[dict] = []
        if queue.drops < 0 or queue.enqueued < 0:
            found.append(self._violation(
                "counter_floor", queue.name,
                f"drops={queue.drops} enqueued={queue.enqueued}",
            ))
        if len(queue) > queue.max_occupancy:
            found.append(self._violation(
                "occupancy_watermark", queue.name,
                f"length {len(queue)} exceeds recorded max {queue.max_occupancy}",
            ))
        return found

    def _audit_pool(self, pool: Any) -> List[dict]:
        """Pool conservation: the used-cell counter must equal the sum
        of member queue lengths (an acquire without a matching release —
        e.g. an inlined dequeue that skips the pool — drifts it)."""
        found: List[dict] = []
        queued = sum(len(queue) for queue in pool.queues)
        if pool.used != queued:
            found.append(self._violation(
                "pool_conservation", pool.name,
                f"used={pool.used} != sum(member lengths)={queued}",
            ))
        if pool.used < 0:
            found.append(self._violation(
                "counter_floor", pool.name, f"used={pool.used} < 0",
            ))
        if pool.peak_used < pool.used:
            found.append(self._violation(
                "occupancy_watermark", pool.name,
                f"used {pool.used} exceeds recorded peak {pool.peak_used}",
            ))
        return found

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    @property
    def clean(self) -> bool:
        return not self.violations

    def report(self) -> dict:
        return {
            "mode": self.mode,
            "interval_ns": self.interval_ns,
            "checks_run": self.checks_run,
            "watched_connections": len(self.connections),
            "watched_uplinks": len(self.uplinks),
            "watched_pools": len(self.pools),
            "violation_count": len(self.violations),
            "violations": list(self.violations),
        }


def run_with_watchdog(
    sim: Simulator,
    until: Optional[int] = None,
    max_events: Optional[int] = None,
    max_wall_s: Optional[float] = None,
) -> int:
    """Drive ``sim.run(until=...)`` under event/wall budgets.

    Runs the simulator in :data:`WATCHDOG_CHUNK_EVENTS` slices so a
    wedged run is detected within one slice. With no budgets this
    degrades to a single plain ``sim.run`` call (zero overhead for the
    common case).
    """
    if max_events is None and max_wall_s is None:
        return sim.run(until=until)
    processed = 0
    started = perf_counter()
    while True:
        chunk = WATCHDOG_CHUNK_EVENTS
        if max_events is not None:
            # Never run further than one event past the budget, so a
            # blown budget is detected even when it is smaller than one
            # chunk (a run needing exactly max_events still completes).
            chunk = min(chunk, max_events - processed + 1)
        n = sim.run(until=until, max_events=chunk)
        processed += n
        wall_s = perf_counter() - started
        if n < chunk:
            break  # drained, horizon reached, or stopped
        if max_events is not None and processed > max_events:
            raise WatchdogExceeded("event budget", processed, wall_s)
        if max_wall_s is not None and wall_s > max_wall_s:
            if sim.run(until=until, max_events=1) == 0:
                break  # budget hit exactly at completion
            raise WatchdogExceeded("wall-clock budget", processed + 1, wall_s)
    return processed


# ----------------------------------------------------------------------
# Crash capture
# ----------------------------------------------------------------------
def _jsonable(value: Any) -> Any:
    """Best-effort JSON view of configs (dataclasses, tuples, paths)."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _jsonable(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def write_repro_bundle(
    directory,
    config: Any = None,
    error: Optional[BaseException] = None,
    fault_plan: Any = None,
    seed: Optional[int] = None,
    label: str = "run",
) -> str:
    """Serialize everything needed to replay a failure; returns the
    bundle directory path.

    Deterministic naming (label + seed + collision counter, no
    timestamps): re-running the same failing configuration overwrites
    nothing and produces a predictable path.
    """
    base = pathlib.Path(directory)
    stem = f"bundle_{label}_seed{seed if seed is not None else 'x'}"
    bundle = base / stem
    suffix = 1
    while bundle.exists():
        suffix += 1
        bundle = base / f"{stem}_{suffix}"
    bundle.mkdir(parents=True)

    manifest: Dict[str, Any] = {
        "schema": "repro-bundle/1",
        "label": label,
        "seed": seed,
        "files": {},
    }
    if config is not None:
        (bundle / "config.json").write_text(
            json.dumps(_jsonable(config), indent=2, sort_keys=True) + "\n"
        )
        manifest["files"]["config"] = "config.json"
    if fault_plan is not None:
        text = fault_plan.to_json() if hasattr(fault_plan, "to_json") else json.dumps(fault_plan)
        (bundle / "fault_plan.json").write_text(text + "\n")
        manifest["files"]["fault_plan"] = "fault_plan.json"
        manifest["replay"] = (
            "PYTHONPATH=src python -m repro.experiments.cli chaos "
            f"--fault-plan {bundle / 'fault_plan.json'} --seed {seed} --audit fail"
        )
    if error is not None:
        manifest["error_type"] = type(error).__name__
        manifest["error_message"] = str(error)
        (bundle / "error.txt").write_text(
            "".join(traceback_module.format_exception(type(error), error, error.__traceback__))
        )
        manifest["files"]["error"] = "error.txt"
    (bundle / "MANIFEST.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )
    return str(bundle)
