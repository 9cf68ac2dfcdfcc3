"""Parallel experiment execution with deterministic result caching.

The paper averages "results across thousands of optical weeks" per
figure (§5); every figure and sweep is a batch of fully independent
seeded runs, so :class:`ExperimentExecutor` maps a list of
:class:`~repro.experiments.config.ExperimentConfig`\\ s across worker
processes and reassembles the results **in input order** — a parallel
batch is value-identical to the sequential loop it replaces.

Four layers:

* **Transport** — workers receive a config as its canonical dict
  (:meth:`ExperimentConfig.to_dict`) and return the result the same way
  (:meth:`ExperimentResult.to_dict`), so the pool is spawn-safe: no
  live simulator objects ever cross a process boundary, and the
  ``jobs=1`` inline path round-trips through the very same encoding to
  keep both paths bit-for-bit interchangeable. A pooled worker collects
  its run's heartbeats and returns them with the result; the executor
  journals them just before the run's ``finished`` or ``failed``
  record. Inline runs heartbeat straight into the log.
* **Cache** — :class:`ResultCache` stores successful results on disk
  under ``sha256(canonical config JSON)``
  (:meth:`ExperimentConfig.cache_key`). Two configs share a key iff
  every simulation-affecting field matches (fault plan included;
  telemetry output paths excluded), so a warm cache replays a batch
  without executing a single simulation. Corrupt or stale-schema
  entries read as misses, never as errors; a failed *write* (ENOSPC, a
  read-only volume) is counted and traced but never crashes the batch.
  Runs with active telemetry bypass the cache entirely — their
  artifacts must actually be written.
* **Failures** — each run is attempted once: the simulation is
  deterministic, so running it again fails the same way. A failed run
  comes back as a structured
  :class:`~repro.experiments.runner.RunFailure` result — callers decide
  whether a failed item degrades or aborts the batch. A failure of the
  simulation itself is **quarantined** in the journal, so a resumed
  campaign never resubmits it; an *infrastructure* failure (a dead
  worker, a transport error, a wall-clock watchdog on a loaded host)
  stays plain ``failed`` and resume re-executes it. The one
  resubmission inside a batch is a broken pool's: its casualties run
  again on a fresh pool (journaled as ``retry``), at most
  :data:`POOL_REBUILDS` times. Failed results are never cached.
* **Crash safety** — the campaign journal (flushed per record) is the
  recovery record; results are cached write-through the moment a run
  finishes, and SIGINT/SIGTERM route through a graceful-shutdown path
  that emits a ``campaign_abort`` record and raises
  :class:`CampaignAborted`. ``run_batch(resume_from=...)`` replays
  completed runs from the prior journal + cache and executes only the
  remainder — the resumed journal digests byte-identically to an
  uninterrupted run (see ``docs/robustness.md``).

The executor keeps no books of its own. Every record a batch emits —
journaled or not — passes through one fresh
:class:`~repro.obs.campaign.CampaignFold`, the lifecycle fold resume
runs over the journal, and what the executor reports is a projection of
it: progress ``done``, the ``campaign_abort`` count, the resume split
and the per-batch :class:`BatchStats`, filled once when the batch ends.
With ``checkpoint_to`` the log's terminal runs are also saved as a
derived status sidecar once per batch, when its books close (the batch
ended or aborted); during a batch the journal is the live status. Failed
cache writes have one count, ``ResultCache.write_errors``.
"""

from __future__ import annotations

import json
import os
import pathlib
import signal
import threading
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from functools import partial
from time import perf_counter
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple,
)

from repro.experiments.checkpoint import CampaignCheckpoint, ResumePlan
from repro.experiments.config import CONFIG_SCHEMA_VERSION, ExperimentConfig
from repro.experiments.runner import ExperimentResult, run_experiment, set_worker_heartbeat
from repro.obs.campaign import CAMPAIGN_SCHEMA_VERSION, CampaignFold, CampaignLog
from repro.obs.tracepoints import Tracepoint

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

#: (done, total, label, outcome) — outcome is "cached", "ok", "failed",
#: or "retry" (a broken pool's casualty resubmitted; retry reports do
#: not advance ``done``). ``done`` is the batch fold's terminal-run
#: count: monotonic across one batch.
ProgressFn = Callable[[int, int, str, str], None]

#: Heartbeat cadence when a campaign log is attached: every
#: ~100k processed events a worker reports (sim_now, events, events/s,
#: heap size) — frequent enough to spot a wedged run within seconds,
#: rare enough to be invisible in the profile.
HEARTBEAT_EVENTS = 100_000

#: How many times one batch replaces a broken process pool; the runs a
#: last break leaves unsettled fail as infrastructure casualties.
POOL_REBUILDS = 2

#: Process-level probe (not simulator-attached — the executor runs in
#: wall time): fired once per result-cache write failure. Tests and
#: harnesses ``subscribe`` directly.
CACHE_WRITE_ERROR_TP = Tracepoint(
    "executor:cache_write_error",
    ("key", "error"),
    "result-cache write failed; the batch continues uncached",
)


class CampaignAborted(RuntimeError):
    """A batch was interrupted (SIGINT/SIGTERM) and shut down cleanly:
    pending work cancelled, books closed (the batch's one status-sidecar
    save), a ``campaign_abort`` record emitted. The CLI maps this to a
    distinct exit code so schedulers can tell an abort from a failure."""

    def __init__(self, reason: str, done: int, total: int) -> None:
        super().__init__(
            f"campaign aborted ({reason}): {done}/{total} runs complete"
        )
        self.reason = reason
        self.done = done
        self.total = total


class _ShutdownRequested(BaseException):
    """Internal: raised by the signal handlers installed around
    ``run_batch`` (BaseException so worker-error handling that catches
    ``Exception`` can never swallow a shutdown)."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


def execute_config_dict(payload: dict) -> dict:
    """Worker entry point (module-level so spawned processes can import
    it): canonical config dict in, canonical result dict out."""
    config = ExperimentConfig.from_dict(payload)
    return run_experiment(config).to_dict()


def execute_pooled(payload: dict, every_events: Optional[int]) -> Tuple[dict, List[tuple]]:
    """Pool worker entry point: the result dict of
    :func:`execute_config_dict` and the ``(sim_now, events,
    events_per_s, pending_events)`` heartbeats its run fired every
    ``every_events`` events, final flush included (none when
    ``every_events`` is None)."""
    beats: List[tuple] = []
    if every_events is not None:
        set_worker_heartbeat(lambda *beat: beats.append(beat), every_events)
    try:
        return execute_config_dict(payload), beats
    finally:
        set_worker_heartbeat(None)


def _synthetic_failure(config: ExperimentConfig, error: Exception) -> ExperimentResult:
    """A structured failure for errors *outside* the run itself
    (transport, a broken worker) — ``run_experiment`` already converts
    in-run crashes into ``result.failure``. Marked ``infrastructure``
    so resume resubmits instead of quarantining."""
    return ExperimentResult.failed(
        config, type(error).__name__, str(error), infrastructure=True
    )


def _default_labels(configs: Sequence[ExperimentConfig]) -> List[str]:
    """``variant/seedN`` per run, with ``#2``, ``#3``, … on repeats: a
    batch may vary something other than variant and seed, and two runs
    must never share a journal label."""
    seen: Dict[str, int] = {}
    labels = []
    for config in configs:
        label = f"{config.variant}/seed{config.seed}"
        seen[label] = seen.get(label, 0) + 1
        labels.append(label if seen[label] == 1 else f"{label}#{seen[label]}")
    return labels


class Plan(NamedTuple):
    """One batch, built before anything runs: every figure, sweep and
    CLI target is one. ``labels`` key the journal (unique within the
    batch); ``tags`` head each run's lines in the CLI trailer ("" for a
    lone run); ``assemble`` makes the caller's value of the results,
    which come in batch order."""

    configs: List[ExperimentConfig]
    labels: List[str]
    tags: List[str]
    assemble: Callable[[List[ExperimentResult]], Any] = list

    def run(self, executor: Optional["ExperimentExecutor"] = None) -> Any:
        """Run the batch on ``executor`` (inline by default) and
        assemble it."""
        if executor is None:
            executor = ExperimentExecutor()
        return self.assemble(executor.run_batch(self.configs, labels=self.labels))


class ResultCache:
    """On-disk map from a config's content hash to its serialized
    result. Entries are sharded by key prefix and written atomically
    (tmp file + rename) so concurrent batches can share a directory."""

    def __init__(self, directory) -> None:
        self.directory = pathlib.Path(directory)
        self.write_errors = 0
        self.last_write_error: Optional[str] = None

    def path_for(self, key: str) -> pathlib.Path:
        return self.directory / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[ExperimentResult]:
        """The cached result, or None on miss/corruption/schema skew."""
        try:
            text = self.path_for(key).read_text()
        except OSError:
            return None
        try:
            doc = json.loads(text)
            if (
                not isinstance(doc, dict)
                or doc.get("schema") != CONFIG_SCHEMA_VERSION
                or doc.get("key") != key
            ):
                return None
            return ExperimentResult.from_dict(doc["result"])
        except (ValueError, KeyError, TypeError):
            return None

    def put(self, key: str, result: ExperimentResult) -> Optional[str]:
        """Store one result; returns the entry path, or None when the
        write failed (ENOSPC, permissions, …). A full disk must degrade
        a batch to "uncached", never crash it: the error is counted in
        ``write_errors`` and the caller traces it and moves on."""
        path = self.path_for(key)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            doc = {
                "schema": CONFIG_SCHEMA_VERSION,
                "key": key,
                "result": result.to_dict(),
            }
            tmp.write_text(json.dumps(doc, sort_keys=True))
            os.replace(tmp, path)
        except OSError as error:
            self.write_errors += 1
            self.last_write_error = f"{type(error).__name__}: {error}"
            try:  # a half-written tmp file must not leak
                tmp.unlink()
            except OSError:
                pass
            return None
        return str(path)


@dataclass
class BatchStats:
    """Counters for one ``run_batch`` call: a projection of the records
    the batch emitted (:meth:`from_fold`), plus the two measurements no
    journal event carries."""

    total: int = 0
    executed: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    retries: int = 0
    failures: int = 0
    quarantined: int = 0
    broken_pools: int = 0
    wall_s: float = 0.0

    @classmethod
    def from_fold(cls, fold: CampaignFold, broken_pools: int = 0, wall_s: float = 0.0):
        runs = fold.runs.values()
        return cls(
            total=fold.total,
            executed=sum(run.attempts > 0 for run in runs),
            cache_hits=fold.states["cached"],
            cache_misses=sum(bool((run.queued or {}).get("cache_miss")) for run in runs),
            retries=sum(run.retries for run in runs),
            failures=fold.failures,
            quarantined=fold.states["quarantined"],
            broken_pools=broken_pools,
            wall_s=wall_s,
        )

    def render(self) -> str:
        extras = ""
        if self.quarantined:
            extras += f", {self.quarantined} quarantined"
        if self.broken_pools:
            extras += f", {self.broken_pools} broken pools"
        return (
            f"{self.total} runs: {self.executed} executed, "
            f"{self.cache_hits} cache hits, {self.cache_misses} cache misses, "
            f"{self.retries} retries, {self.failures} failures{extras} "
            f"in {self.wall_s:.1f}s"
        )


class ExperimentExecutor:
    """Maps config batches across a spawn-context process pool.

    ``jobs=1`` runs inline (no pool) through the same serialized
    transport, so results are identical whichever path executes them.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache_dir: Optional[str] = None,
        use_cache: bool = True,
        progress: Optional[ProgressFn] = None,
        campaign: Optional[CampaignLog] = None,
        resume: Optional[ResumePlan] = None,
        checkpoint_to: Optional[str] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        self.cache = ResultCache(cache_dir) if (cache_dir and use_cache) else None
        self.progress = progress
        self.campaign = campaign
        self.resume = resume
        self.checkpoint_to = str(checkpoint_to) if checkpoint_to else None
        if self.checkpoint_to is not None and campaign is None:
            # The sidecar is a projection of the journal records.
            raise ValueError("checkpoint_to needs a campaign log")
        self.last_batch = BatchStats()
        self.last_replayed = 0
        self.last_fresh = 0
        # The current batch's books: every record it emits, folded.
        self._fold = CampaignFold()
        # Cumulative across batches in one log (sweeps emit several
        # campaign_start records), like the journal it is folded from.
        self._ckpt = CampaignCheckpoint() if self.checkpoint_to else None
        self._batch_keys: List[Optional[str]] = []

    # ------------------------------------------------------------------
    # Batch execution
    # ------------------------------------------------------------------
    def run_batch(
        self,
        configs: Sequence[ExperimentConfig],
        labels: Optional[Sequence[str]] = None,
        resume_from: Optional[ResumePlan] = None,
    ) -> List[ExperimentResult]:
        """Run every config; results come back in input order no matter
        which worker finished first (order-independent assembly — the
        determinism contract the figures rely on).

        With ``resume_from`` (or an executor-level ``resume`` plan),
        runs the prior campaign already completed are *replayed*: their
        journal records are re-emitted verbatim and their results come
        from the cache (or, for quarantined runs, from the recorded
        failure) — zero simulations re-execute for them, and the new
        journal digests byte-identically to an uninterrupted run.
        """
        configs = list(configs)
        if labels is None:
            labels = _default_labels(configs)
        if len(labels) != len(configs):
            raise ValueError("labels must match configs one-to-one")
        repeated = [label for label, n in Counter(labels).items() if n > 1]
        if repeated:
            # The journal keys a run by its label: two runs under one
            # would fold into a single lifecycle with two endings.
            raise ValueError(f"labels repeat within the batch: {repeated[:3]}")
        resume = resume_from if resume_from is not None else self.resume
        started_wall = perf_counter()
        total = len(configs)
        self.last_batch = BatchStats(total=total)
        self.last_replayed = self.last_fresh = 0
        fold = self._fold = CampaignFold()
        results: List[Optional[ExperimentResult]] = [None] * total
        keys = self._batch_keys = [self._cacheable_key(c) for c in configs]
        replay = self._plan_replays(configs, labels, keys, resume)
        with self._signal_guard():
            try:
                self._emit(
                    "campaign_start", schema=CAMPAIGN_SCHEMA_VERSION, total=total, jobs=self.jobs
                )
                if resume is not None:
                    self._emit(
                        "campaign_resume",
                        schema=CAMPAIGN_SCHEMA_VERSION,
                        total=total,
                        replayed=len(replay),
                        remaining=total - len(replay),
                        jobs=self.jobs,
                    )
                pending: List[int] = []
                for i, config in enumerate(configs):
                    if i in replay:
                        results[i] = self._replay_run(labels[i], replay[i], resume)
                        continue
                    queued = dict(
                        run=labels[i], index=i, total=total,
                        variant=config.variant, seed=config.seed,
                    )
                    cached = self.cache.get(keys[i]) if keys[i] is not None else None
                    if keys[i] is not None:
                        # The key and miss flag are what resume needs to
                        # decide a replay from the journal alone.
                        queued["key"] = keys[i]
                        queued["cache_miss"] = cached is None
                    self._emit("queued", **queued)
                    if cached is not None:
                        results[i] = cached
                        self._emit("cache_hit", run=labels[i], index=i)
                        self._report(labels[i], "cached")
                        continue
                    pending.append(i)

                if self.jobs == 1 or len(pending) == 1:
                    for i in pending:
                        results[i] = self._run_inline(configs[i], labels[i])
                        self._finish_item(i, results[i], labels[i])
                elif pending:
                    self._run_pool(configs, labels, pending, results)
            except (KeyboardInterrupt, _ShutdownRequested) as error:
                reason = getattr(error, "reason", "SIGINT")
                self._close_books(started_wall)
                self._emit("campaign_abort", reason=reason, done=fold.done, total=total)
                raise CampaignAborted(reason, done=fold.done, total=total) from error
        self._close_books(started_wall)
        self._emit("campaign_end", stats=asdict(self.last_batch))
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _cacheable_key(self, config: ExperimentConfig) -> Optional[str]:
        if self.cache is None:
            return None
        if config.obs is not None and config.obs.active:
            return None  # telemetry artifacts cannot be replayed from cache
        return config.cache_key()

    def _emit(self, event: str, **fields) -> None:
        """Every record of a batch passes through here: into the journal
        when one is attached, and always into the batch's fold."""
        if self.campaign is not None:
            record = self.campaign.emit(event, **fields)
        else:
            record = dict(fields, event=event)
        self._fold.apply(record)
        if self._ckpt is not None:
            self._ckpt.apply(record)

    def _close_books(self, started_wall: float) -> None:
        """Fill the batch's public numbers, once, from its fold; only
        broken pools and wall time — no journal event carries either —
        are measured. With ``checkpoint_to``, save the status sidecar:
        its one write per batch, whether the batch ended or aborted."""
        if self._ckpt is not None:
            self._ckpt.save(self.checkpoint_to)
        fold = self._fold
        self.last_batch = BatchStats.from_fold(
            fold,
            broken_pools=self.last_batch.broken_pools,
            wall_s=perf_counter() - started_wall,
        )
        fresh = [run for run in fold.runs.values() if not run.replayed]
        self.last_replayed = len(fold.runs) - len(fresh)
        self.last_fresh = sum(run.terminal and run.state != "cached" for run in fresh)

    @contextmanager
    def _signal_guard(self):
        """Route SIGINT/SIGTERM into the graceful-shutdown path for the
        duration of a batch (main thread only; otherwise a no-op)."""
        if threading.current_thread() is not threading.main_thread():
            yield
            return
        previous: Dict[int, object] = {}

        def handler(signum, _frame):
            raise _ShutdownRequested(signal.Signals(signum).name)

        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                previous[sig] = signal.signal(sig, handler)
            except (ValueError, OSError):  # pragma: no cover - exotic hosts
                pass
        try:
            yield
        finally:
            for sig, old in previous.items():
                try:
                    signal.signal(sig, old)
                except (ValueError, OSError):  # pragma: no cover
                    pass

    def _report(self, label: str, outcome: str) -> None:
        if self.progress is not None:
            self.progress(self._fold.done, self._fold.total, label, outcome)

    # -- resume ---------------------------------------------------------
    def _plan_replays(
        self,
        configs: List[ExperimentConfig],
        labels: Sequence[str],
        keys: List[Optional[str]],
        resume: Optional[ResumePlan],
    ) -> Dict[int, ExperimentResult]:
        """Which batch indices can be replayed from the prior campaign,
        with the result each replay hands back. Everything else — runs
        the prior campaign never finished, infrastructure failures, and
        finished runs whose cached result is gone or whose config
        changed (key mismatch) — executes fresh."""
        replay: Dict[int, ExperimentResult] = {}
        if resume is None:
            return replay
        for i, config in enumerate(configs):
            run = resume.checkpoint.runs.get(labels[i])
            if run is None or run.state == "failed":
                continue  # unknown / in-flight / infrastructure: resubmit
            if run.state == "quarantined":
                ending = run.ending or {}
                replay[i] = ExperimentResult.failed(
                    config,
                    ending.get("error_type") or "RunFailure",
                    ending.get("error_message") or "",
                )
                continue
            if keys[i] is None or (run.queued or {}).get("key") != keys[i]:
                continue
            cached = self.cache.get(keys[i])
            if cached is not None:
                replay[i] = cached
        return replay

    def _replay_run(
        self, label: str, result: ExperimentResult, resume: ResumePlan
    ) -> ExperimentResult:
        """Re-emit one completed run's journal records verbatim (fresh
        seq/wall clock, ``replayed`` marker) and hand back its prior
        result. Replayed records pass through the same fold as fresh
        ones, so the per-run record sequence, the campaign summary and
        the batch stats are indistinguishable from an uninterrupted
        run's."""
        for record in resume.run_records(label):
            fields = {
                k: v
                for k, v in record.items()
                if k not in ("event", "seq", "wall_ms", "replayed")
            }
            self._emit(record["event"], replayed=True, **fields)
        self._report(label, "cached" if result.ok else "failed")
        return result

    # -- terminal bookkeeping ------------------------------------------
    def _cache_put(self, i: int, result: ExperimentResult) -> None:
        """Write-through caching at run completion (not batch end), so
        a kill after a run's terminal record loses at most that one
        uncached result. Write errors degrade to uncached: counted
        (``cache.write_errors``), traced, never fatal."""
        key = self._batch_keys[i]
        if self.cache is None or key is None or not result.ok:
            return
        if self.cache.put(key, result) is None and CACHE_WRITE_ERROR_TP.enabled:
            CACHE_WRITE_ERROR_TP.emit(0, key=key, error=self.cache.last_write_error)

    def _finish_item(self, i: int, result: ExperimentResult, label: str) -> None:
        if result.ok:
            self._emit("finished", run=label, outcome="ok", sketches=result.sketches)
            # Report before the cache write: the run is durably terminal
            # once journaled, and a multi-MB cache entry can take long
            # enough that an abort landing mid-write would undercount
            # ``done`` in the campaign_abort record.
            self._report(label, "ok")
            self._cache_put(i, result)
            return
        self._emit(
            "failed",
            run=label,
            error_type=result.failure.error_type,
            error_message=result.failure.error_message,
        )
        # The simulation itself failed: poison, and deterministic, so
        # resume must never resubmit it. Infrastructure casualties
        # (broken pool, transport, wall-clock watchdog) stay plain
        # "failed" and are resubmitted.
        if not result.failure.infrastructure:
            self._emit(
                "quarantined", run=label, attempts=self._fold.runs[label].attempts
            )
        self._report(label, "failed")

    # -- execution paths ------------------------------------------------
    def _heartbeat(
        self, label: str, sim_now: int, events: int, events_per_s: float, pending: int
    ) -> None:
        self._emit(
            "heartbeat",
            run=label,
            sim_now=sim_now,
            events=events,
            events_per_s=events_per_s,
            pending_events=pending,
        )

    def _run_inline(self, config: ExperimentConfig, label: str) -> ExperimentResult:
        campaign = self.campaign
        if campaign is not None:
            # Inline runs heartbeat straight into the log — same hook,
            # no process boundary.
            set_worker_heartbeat(partial(self._heartbeat, label), HEARTBEAT_EVENTS)
        try:
            self._emit("started", run=label, attempt=1)
            return ExperimentResult.from_dict(execute_config_dict(config.to_dict()))
        except Exception as error:
            return _synthetic_failure(config, error)
        finally:
            if campaign is not None:
                set_worker_heartbeat(None)

    def _submit(self, pool, config: ExperimentConfig):
        every = HEARTBEAT_EVENTS if self.campaign is not None else None
        return pool.submit(execute_pooled, config.to_dict(), every)

    def _run_pool(
        self,
        configs: List[ExperimentConfig],
        labels: Sequence[str],
        pending: List[int],
        results: List[Optional[ExperimentResult]],
    ) -> None:
        """Run ``pending`` on a spawn pool. A dead child breaks the
        whole pool: every run it left unsettled goes to a fresh pool
        (a ``retry`` record for each one that had started), at most
        :data:`POOL_REBUILDS` times; after the last break they fail as
        infrastructure casualties. :mod:`multiprocessing` and
        :mod:`concurrent.futures` are imported here, by a batch that
        pools, and not with this module: a ``jobs=1`` run and every
        spawn worker do without them."""
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        ctx = multiprocessing.get_context("spawn")
        workers = min(self.jobs, len(pending))
        attempts = dict.fromkeys(pending, 0)
        todo = pending
        for rebuild in range(POOL_REBUILDS + 1):
            pool = ProcessPoolExecutor(max_workers=workers, mp_context=ctx)
            try:
                broken = self._drain_pool(pool, configs, labels, todo, attempts, results)
                if broken is None:
                    pool.shutdown(wait=True)
                    return
            except BaseException:
                # Graceful shutdown (or an unexpected error): cancel
                # what never started and put the workers down.
                _put_down(pool)
                raise
            self.last_batch.broken_pools += 1
            _put_down(pool)
            todo = [i for i in todo if results[i] is None]
            if rebuild == POOL_REBUILDS:
                break
            for i in todo:
                if attempts[i]:  # it started on the broken pool
                    self._emit("retry", run=labels[i], attempt=attempts[i] + 1)
                    self._report(labels[i], "retry")
        for i in todo:
            results[i] = _synthetic_failure(configs[i], broken)
            self._finish_item(i, results[i], labels[i])

    def _drain_pool(self, pool, configs, labels, todo, attempts, results):
        """Submit ``todo`` to ``pool`` and settle each run as it
        completes, its heartbeats journaled just ahead of its ending.
        Returns None, or the error that broke the pool."""
        from concurrent.futures import BrokenExecutor, as_completed

        futures = {}
        try:
            for i in todo:
                try:
                    future = self._submit(pool, configs[i])
                except BrokenExecutor:
                    raise
                except Exception as error:
                    results[i] = _synthetic_failure(configs[i], error)
                    self._finish_item(i, results[i], labels[i])
                    continue
                futures[future] = i
                attempts[i] += 1
                self._emit("started", run=labels[i], attempt=attempts[i])
            for future in as_completed(futures):
                i = futures[future]
                try:
                    payload, beats = future.result()
                    result = ExperimentResult.from_dict(payload)
                except BrokenExecutor:
                    raise
                except Exception as error:
                    result, beats = _synthetic_failure(configs[i], error), []
                for beat in beats:
                    self._heartbeat(labels[i], *beat)
                results[i] = result
                self._finish_item(i, result, labels[i])
        except BrokenExecutor as error:
            return error
        return None


def _put_down(pool: ProcessPoolExecutor) -> None:
    """Stop ``pool`` without waiting on it: cancel what never started
    and terminate its workers."""
    procs = list((getattr(pool, "_processes", None) or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for proc in procs:
        try:
            proc.terminate()
        except Exception:
            pass
