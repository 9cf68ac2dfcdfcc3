"""Executor chaos: deterministic fault injection for the campaign layer.

:mod:`repro.faults.plan` injects faults *inside* a simulation; this
module injects them *around* it — at the process-pool, result-cache,
and journal layers the crash-safe campaign machinery (checkpoint
sidecar, resume replay, pool rebuild, quarantine) exists to survive.
An :class:`ExecutorFaultPlan` is a list of specs, each matched
deterministically against ``(run label, attempt)`` (or cache key, for
cache faults), so a chaos campaign replays byte-identically.

Fault kinds (:data:`EXECUTOR_FAULT_CATALOG`):

* ``worker_kill`` — the pool worker SIGKILLs itself, immediately or
  after ``after_events`` simulated events (mid-run). A dead child
  breaks the whole ``ProcessPoolExecutor``; the executor must rebuild
  the pool and resubmit every casualty.
* ``broken_pool`` — submission raises ``BrokenProcessPool`` directly
  (the pool died between completions).
* ``cache_write_error`` — the result-cache write raises
  ``OSError(ENOSPC)``; the batch must continue uncached.
* ``cache_corrupt`` — the just-written cache entry is truncated in
  place; the *next* read must degrade to a miss, never an error.
* ``journal_truncate`` — the campaign journal's final record is torn
  in half **after the batch** (the CLI harness applies it once the log
  is closed; truncating under an open append handle would punch
  null-byte holes instead of the torn tail a real SIGKILL leaves).

The executor consumes a plan through an :class:`ExecutorChaos` runtime
via four hooks: ``on_submit``, ``worker_kill``, ``on_cache_put``,
``after_cache_put``.
"""

from __future__ import annotations

import errno
import fnmatch
import os
import pathlib
import signal
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.executor import execute_config_dict
from repro.experiments.runner import set_worker_heartbeat
from repro.faults.plan import FaultPlanError

__all__ = [
    "EXECUTOR_FAULT_CATALOG",
    "ExecutorChaos",
    "ExecutorFaultPlan",
    "ExecutorFaultSpec",
    "execute_config_dict_chaos",
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
    "journal_truncate": (
        (),
        "tear the journal's final record after the batch (applied by the CLI harness)",
    ),
}


@dataclass(frozen=True)
class ExecutorFaultSpec:
    """One executor-layer fault.

    ``target`` is an ``fnmatch`` glob over run labels (worker/pool
    kinds) or cache keys (cache kinds). ``attempt`` pins the fault to
    one attempt number (``0`` = any attempt). ``count`` bounds how many
    times the spec fires across the campaign (``0`` = unlimited).
    """

    kind: str
    target: str = "*"
    attempt: int = 1
    count: int = 1
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
        known, _desc = EXECUTOR_FAULT_CATALOG[self.kind]
        unknown = set(self.params) - set(known)
        if unknown:
            raise FaultPlanError(
                f"{self.kind}: unknown params {sorted(unknown)}; known: {list(known)}"
            )
        for name, value in self.params.items():
            if not isinstance(value, (int, float)):
                raise FaultPlanError(f"{self.kind}: param {name} must be numeric")


@dataclass(frozen=True)
class ExecutorFaultPlan:
    """A list of executor fault specs. ``journal_truncate`` specs are
    applied by the CLI harness after the log closes; the executor never
    sees them."""

    specs: Sequence[ExecutorFaultSpec] = ()


class ExecutorChaos:
    """Runtime for one plan: matches specs, enforces fire budgets, and
    keeps an audit log of every injection (for tests and the CLI
    gauntlet report). Safe to share across batches of one campaign."""

    def __init__(self, plan: ExecutorFaultPlan) -> None:
        self.plan = plan
        self._fired = [0] * len(plan.specs)
        #: (kind, matched name, attempt) per injection, in firing order.
        self.log: List[Tuple[str, str, int]] = []

    def _take(self, kind: str, name: str,
              attempt: Optional[int] = None) -> Optional[ExecutorFaultSpec]:
        """The first armed spec of ``kind`` matching ``name`` (and
        ``attempt``, when the caller has one — cache hooks don't);
        consumes one firing from its budget."""
        for index, spec in enumerate(self.plan.specs):
            if spec.kind != kind:
                continue
            if attempt is not None and spec.attempt not in (0, attempt):
                continue
            if not fnmatch.fnmatchcase(name, spec.target):
                continue
            if spec.count and self._fired[index] >= spec.count:
                continue
            self._fired[index] += 1
            self.log.append((spec.kind, name, attempt or 0))
            return spec
        return None

    # -- executor hooks -------------------------------------------------
    def on_submit(self, label: str, attempt: int) -> None:
        """Called before every pool submission; may raise."""
        if self._take("broken_pool", label, attempt) is not None:
            raise BrokenProcessPool(
                f"injected: pool broke before submitting {label} (attempt {attempt})"
            )

    def worker_kill(self, label: str, attempt: int) -> Optional[int]:
        """The event count at which the worker about to run ``label``
        attempt ``attempt`` kills itself (0 = at once), or None for a
        clean run."""
        spec = self._take("worker_kill", label, attempt)
        if spec is None:
            return None
        return int(spec.params.get("after_events", 0))

    def on_cache_put(self, key: str) -> None:
        """Called before every result-cache write; may raise OSError."""
        if self._take("cache_write_error", key) is not None:
            raise OSError(errno.ENOSPC, "No space left on device (injected)")

    def after_cache_put(self, key: str, path: Optional[str]) -> None:
        """Called after a successful cache write; corrupts in place."""
        if path is None:
            return
        if self._take("cache_corrupt", key) is not None:
            data = pathlib.Path(path).read_bytes()
            pathlib.Path(path).write_bytes(data[: max(1, len(data) // 2)])


def truncate_journal_tail(path) -> bool:
    """Tear the journal's final record in half — the artifact a SIGKILL
    mid-``write`` leaves behind. Returns False when the journal has no
    record to tear. Apply only to a *closed* log file."""
    path = pathlib.Path(path)
    lines = path.read_text().splitlines(keepends=True)
    last = lines[-1].rstrip("\n") if lines else ""
    if len(last) < 2:
        return False
    path.write_text("".join(lines[:-1]) + last[: len(last) // 2])
    return True


def execute_config_dict_chaos(
    payload: dict, every_events: Optional[int], after_events: int
) -> Tuple[dict, List[tuple]]:
    """Pool worker entry point that SIGKILLs its own process: at once,
    or at the first heartbeat at or past ``after_events`` simulated
    events — deterministic for a deterministic simulation, not a
    wall-clock guess. A run that ends first returns like
    :func:`~repro.experiments.executor.execute_pooled`."""
    if after_events <= 0:
        os.kill(os.getpid(), signal.SIGKILL)
    beats: List[tuple] = []

    def hook(*beat) -> None:
        beats.append(beat)
        if beat[1] >= after_events:
            os.kill(os.getpid(), signal.SIGKILL)

    set_worker_heartbeat(hook, min(every_events or after_events, after_events))
    try:
        return execute_config_dict(payload), beats
    finally:
        set_worker_heartbeat(None)
