"""Executor chaos: deterministic fault injection for the campaign layer.

:mod:`repro.faults.plan` injects faults *inside* a simulation; this
module injects them *around* it — at the process-pool, result-cache,
and journal layers the crash-safe campaign machinery (checkpoint
sidecar, resume replay, pool rebuild, quarantine) exists to survive.
An :class:`ExecutorFaultPlan` is the same shape as a ``FaultPlan``: a
named, serializable list of specs, each matched deterministically
against ``(run label, attempt)`` (or cache key, for cache faults), so
a chaos campaign replays byte-identically from a JSON file + seed.

Fault kinds (:data:`EXECUTOR_FAULT_CATALOG`):

* ``worker_kill`` — the pool worker SIGKILLs itself, immediately or
  after ``after_events`` simulated events (mid-run). A dead child
  breaks the whole ``ProcessPoolExecutor``; the executor must rebuild
  the pool and retry every casualty.
* ``broken_pool`` — submission raises ``BrokenProcessPool`` directly
  (the pool died between completions).
* ``cache_write_error`` — the result-cache write raises
  ``OSError(ENOSPC)``; the batch must continue uncached.
* ``cache_corrupt`` — the just-written cache entry is truncated in
  place; the *next* read must degrade to a miss, never an error.
* ``slow_worker`` — the worker stalls ``stall_s`` seconds before
  executing (tests heartbeat liveness and drain ordering).
* ``journal_truncate`` — the campaign journal's final record is torn
  in half **after the batch** (the CLI harness applies it once the log
  is closed; truncating under an open append handle would punch
  null-byte holes instead of the torn tail a real SIGKILL leaves).

The executor consumes a plan through an :class:`ExecutorChaos` runtime
via four hooks: ``worker_directive`` (ships a kill/stall directive into
the worker), ``on_submit``, ``on_cache_put``, ``after_cache_put``.
"""

from __future__ import annotations

import errno
import fnmatch
import json
import os
import pathlib
import signal
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.experiments.executor import execute_config_dict, execute_config_dict_hb
from repro.experiments.runner import set_worker_heartbeat
from repro.faults.plan import FaultPlanError
from repro.sim.rng import SeededRandom

__all__ = [
    "EXECUTOR_FAULT_CATALOG",
    "ExecutorChaos",
    "ExecutorFaultPlan",
    "ExecutorFaultSpec",
    "execute_config_dict_chaos",
    "load_executor_fault_plan",
    "truncate_journal_tail",
]

#: kind -> (recognized params, one-line description).
EXECUTOR_FAULT_CATALOG: Dict[str, Tuple[Tuple[str, ...], str]] = {
    "worker_kill": (
        ("after_events",),
        "pool worker SIGKILLs itself (immediately, or mid-run after after_events events)",
    ),
    "broken_pool": (
        (),
        "submission raises BrokenProcessPool (pool died between completions)",
    ),
    "cache_write_error": (
        (),
        "result-cache write raises OSError(ENOSPC); run continues uncached",
    ),
    "cache_corrupt": (
        (),
        "truncate the cache entry just written (next read must be a miss)",
    ),
    "slow_worker": (
        ("stall_s",),
        "worker stalls stall_s seconds before executing",
    ),
    "journal_truncate": (
        (),
        "tear the journal's final record after the batch (applied by the CLI harness)",
    ),
}

#: Kinds that ship a directive into the worker process.
_WORKER_KINDS = ("worker_kill", "slow_worker")


@dataclass(frozen=True)
class ExecutorFaultSpec:
    """One executor-layer fault.

    ``target`` is an ``fnmatch`` glob over run labels (worker/pool
    kinds) or cache keys (cache kinds). ``attempt`` pins the fault to
    one attempt number (``0`` = any attempt). ``count`` bounds how many
    times the spec fires across the campaign (``0`` = unlimited).
    ``probability`` < 1 makes firing a seeded coin flip — deterministic
    per ``(spec, label, attempt)``, independent of execution order.
    """

    kind: str
    target: str = "*"
    attempt: int = 1
    count: int = 1
    probability: float = 1.0
    params: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in EXECUTOR_FAULT_CATALOG:
            raise FaultPlanError(
                f"unknown executor fault kind {self.kind!r}; "
                f"known: {sorted(EXECUTOR_FAULT_CATALOG)}"
            )
        if self.attempt < 0:
            raise FaultPlanError(f"{self.kind}: attempt must be >= 0 (0 = any)")
        if self.count < 0:
            raise FaultPlanError(f"{self.kind}: count must be >= 0 (0 = unlimited)")
        if not (0.0 <= self.probability <= 1.0):
            raise FaultPlanError(f"{self.kind}: probability must be in [0, 1]")
        known, _desc = EXECUTOR_FAULT_CATALOG[self.kind]
        unknown = set(self.params) - set(known)
        if unknown:
            raise FaultPlanError(
                f"{self.kind}: unknown params {sorted(unknown)}; known: {list(known)}"
            )
        for name, value in self.params.items():
            if not isinstance(value, (int, float)):
                raise FaultPlanError(f"{self.kind}: param {name} must be numeric")

    def param(self, name: str, default: float) -> float:
        return self.params.get(name, default)

    def to_dict(self) -> dict:
        data: Dict[str, Any] = {"kind": self.kind, "target": self.target}
        if self.attempt != 1:
            data["attempt"] = self.attempt
        if self.count != 1:
            data["count"] = self.count
        if self.probability != 1.0:
            data["probability"] = self.probability
        if self.params:
            data["params"] = dict(self.params)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ExecutorFaultSpec":
        if not isinstance(data, dict):
            raise FaultPlanError(
                f"executor fault spec must be an object, got {type(data).__name__}"
            )
        known = {"kind", "target", "attempt", "count", "probability", "params"}
        unknown = set(data) - known
        if unknown:
            raise FaultPlanError(f"unknown executor fault spec fields {sorted(unknown)}")
        if "kind" not in data:
            raise FaultPlanError("executor fault spec needs a 'kind'")
        return cls(
            kind=data["kind"],
            target=data.get("target", "*"),
            attempt=int(data.get("attempt", 1)),
            count=int(data.get("count", 1)),
            probability=float(data.get("probability", 1.0)),
            params=dict(data.get("params", {})),
        )


@dataclass(frozen=True)
class ExecutorFaultPlan:
    """A named, serializable, seeded list of executor fault specs."""

    specs: Sequence[ExecutorFaultSpec] = ()
    name: str = "executor-fault-plan"
    seed: int = 0

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "specs": [spec.to_dict() for spec in self.specs],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExecutorFaultPlan":
        if not isinstance(data, dict):
            raise FaultPlanError(
                f"executor fault plan must be an object, got {type(data).__name__}"
            )
        specs = data.get("specs", [])
        if not isinstance(specs, list):
            raise FaultPlanError("executor fault plan 'specs' must be a list")
        return cls(
            specs=tuple(ExecutorFaultSpec.from_dict(spec) for spec in specs),
            name=str(data.get("name", "executor-fault-plan")),
            seed=int(data.get("seed", 0)),
        )

    def save(self, path) -> str:
        path = pathlib.Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")
        return str(path)

    def journal_truncate_specs(self) -> List[ExecutorFaultSpec]:
        """The post-batch journal faults (the CLI harness applies them
        after the log closes; the executor never sees them)."""
        return [spec for spec in self.specs if spec.kind == "journal_truncate"]


def load_executor_fault_plan(path) -> ExecutorFaultPlan:
    try:
        text = pathlib.Path(path).read_text()
    except OSError as error:
        raise FaultPlanError(f"cannot read executor fault plan {path}: {error}") from error
    try:
        return ExecutorFaultPlan.from_dict(json.loads(text))
    except json.JSONDecodeError as error:
        raise FaultPlanError(f"executor fault plan {path} is not JSON: {error}") from error


class ExecutorChaos:
    """Runtime for one plan: matches specs, enforces fire budgets, and
    keeps an audit log of every injection (for tests and the CLI
    gauntlet report). Safe to share across batches of one campaign."""

    def __init__(self, plan: ExecutorFaultPlan) -> None:
        self.plan = plan
        self._fired = [0] * len(plan.specs)
        self._root = SeededRandom(plan.seed)
        #: (kind, matched name, attempt) per injection, in firing order.
        self.log: List[Tuple[str, str, int]] = []

    def _take(self, kinds: Tuple[str, ...], name: str,
              attempt: Optional[int] = None) -> Optional[ExecutorFaultSpec]:
        """The first armed spec of ``kinds`` matching ``name`` (and
        ``attempt``, when the caller has one — cache hooks don't);
        consumes one firing from its budget. Probability draws fork a
        fresh seeded stream per decision so the outcome never depends
        on pool completion order."""
        for index, spec in enumerate(self.plan.specs):
            if spec.kind not in kinds:
                continue
            if attempt is not None and spec.attempt not in (0, attempt):
                continue
            if not fnmatch.fnmatchcase(name, spec.target):
                continue
            if spec.count and self._fired[index] >= spec.count:
                continue
            if spec.probability < 1.0:
                draw = self._root.fork(f"chaos:{index}:{name}:{attempt or 0}")
                if not draw.chance(spec.probability):
                    continue
            self._fired[index] += 1
            self.log.append((spec.kind, name, attempt or 0))
            return spec
        return None

    # -- executor hooks -------------------------------------------------
    def worker_directive(self, label: str, attempt: int) -> Optional[dict]:
        """A picklable directive for the worker about to run ``label``
        attempt ``attempt``, or None for a clean run."""
        spec = self._take(_WORKER_KINDS, label, attempt)
        if spec is None:
            return None
        if spec.kind == "worker_kill":
            return {
                "kind": "worker_kill",
                "after_events": int(spec.param("after_events", 0)),
            }
        return {"kind": "slow_worker", "stall_s": float(spec.param("stall_s", 0.5))}

    def on_submit(self, label: str, attempt: int) -> None:
        """Called before every pool submission; may raise."""
        if self._take(("broken_pool",), label, attempt) is not None:
            raise BrokenProcessPool(
                f"injected: pool broke before submitting {label} (attempt {attempt})"
            )

    def on_cache_put(self, key: str) -> None:
        """Called before every result-cache write; may raise OSError."""
        if self._take(("cache_write_error",), key) is not None:
            raise OSError(errno.ENOSPC, "No space left on device (injected)")

    def after_cache_put(self, key: str, path: Optional[str]) -> None:
        """Called after a successful cache write; corrupts in place."""
        if path is None:
            return
        if self._take(("cache_corrupt",), key) is not None:
            data = pathlib.Path(path).read_bytes()
            pathlib.Path(path).write_bytes(data[: max(1, len(data) // 2)])


def truncate_journal_tail(path, keep_fraction: float = 0.5) -> bool:
    """Tear the journal's final record in half — the artifact a SIGKILL
    mid-``write`` leaves behind. Returns False when the journal has no
    record to tear. Apply only to a *closed* log file."""
    path = pathlib.Path(path)
    text = path.read_text()
    lines = text.splitlines(keepends=True)
    if not lines:
        return False
    last = lines[-1].rstrip("\n")
    if not last:
        return False
    cut = max(1, int(len(last) * keep_fraction))
    if cut >= len(last):
        cut = len(last) - 1
    if cut < 1:
        return False
    path.write_text("".join(lines[:-1]) + last[:cut])
    return True


def execute_config_dict_chaos(
    payload: dict, label: str, hb_queue, every_events: int, directive: dict
) -> dict:
    """Worker entry point under chaos: applies ``directive`` then runs
    the config through the normal (heartbeating) path."""
    kind = directive.get("kind")
    if kind == "worker_kill":
        after = int(directive.get("after_events", 0))
        if after <= 0:
            os.kill(os.getpid(), signal.SIGKILL)

        # Mid-run kill: piggyback on the heartbeat hook so the worker
        # dies at a simulated-event count, not a wall-clock guess —
        # deterministic for a deterministic simulation.
        def hook(sim_now: int, events: int, events_per_s: float, pending: int) -> None:
            if hb_queue is not None:
                try:
                    hb_queue.put((label, sim_now, events, events_per_s, pending))
                except Exception:
                    pass
            if events >= after:
                os.kill(os.getpid(), signal.SIGKILL)

        set_worker_heartbeat(hook, min(every_events, after))
        try:
            return execute_config_dict(payload)
        finally:
            set_worker_heartbeat(None)
    if kind == "slow_worker":
        time.sleep(float(directive.get("stall_s", 0.5)))
    if hb_queue is None:
        return execute_config_dict(payload)
    return execute_config_dict_hb(payload, label, hb_queue, every_events)
