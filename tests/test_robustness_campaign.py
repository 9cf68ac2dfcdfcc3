"""Crash-safe campaign layer: checkpoint/resume, quarantine, executor faults.

The contract under test (ISSUE: crash-safe campaigns): a campaign that
dies mid-flight — SIGKILL included — resumes from its journal alone
with **zero re-execution of completed runs** and a ``campaign_summary``
byte-identical to an uninterrupted run; executor faults (dead workers,
broken pools, full disks, torn journals) degrade the batch, never
corrupt it. The ``.ckpt.json`` sidecar is a derived status file: after
every real batch here it must equal the fold of the journal next to it.

Each executor fault is injected where it really happens: a pool worker
that SIGKILLs itself (at once, or mid-run), ``BrokenProcessPool`` from
``_submit``, a real ``OSError`` inside ``ResultCache.put``, cache entries
truncated between batches, and a closed journal torn at its tail. Their
tests are the fault legs CI runs by node id.
"""

import json
import os
import pathlib
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, replace
from functools import partial
import signal
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.experiments.executor as executor_mod
from repro.experiments.checkpoint import (
    CampaignCheckpoint,
    checkpoint_path,
    load_resume_plan,
)
from repro.experiments.config import ExperimentConfig, WorkloadConfig
from repro.experiments.executor import (
    CACHE_WRITE_ERROR_TP,
    BatchStats,
    CampaignAborted,
    ExperimentExecutor,
    ResultCache,
)
from repro.experiments.runner import ExperimentResult, RunFailure, run_experiment
from repro.experiments.report import _campaign_timeline
from repro.obs.campaign import (
    CAMPAIGN_SCHEMA_VERSION,
    TERMINAL_STATES,
    CampaignLog,
    campaign_summary,
    fold_campaign,
    read_campaign,
    read_campaign_with_tail,
    validate_records,
)
from tests.helpers import heartbeat_every, kill_pooled_worker_once, truncate_journal_tail

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def small_config(seed: int = 1, variant: str = "cubic") -> ExperimentConfig:
    return ExperimentConfig(
        variant=variant, weeks=4, warmup_weeks=1, n_flows=2, seed=seed
    )


def failing_payload(payload: dict) -> dict:
    config = ExperimentConfig.from_dict(payload)
    result = ExperimentResult(config=config, duration_ns=config.duration_ns)
    result.failure = RunFailure("Boom", "synthetic crash", config.seed, None, None)
    return result.to_dict()


def summary_bytes(path) -> str:
    return json.dumps(campaign_summary(read_campaign(path)), sort_keys=True)


def assert_one_ending_per_run(path, labels) -> list:
    """What every executor fault must leave intact: schema-clean records
    opening with this schema's ``campaign_start``, and exactly one
    run-ending record per run. Returns the records."""
    records = read_campaign(path)
    assert validate_records(records) == []
    assert records[0]["schema"] == CAMPAIGN_SCHEMA_VERSION
    runs = fold_campaign(records).runs
    assert {label: runs[label].endings for label in labels} == dict.fromkeys(labels, 1)
    return records


def run_logged(path, configs, **executor_kwargs):
    """One batch journaled to ``path``; returns (executor, results)."""
    with CampaignLog(str(path)) as log:
        executor = ExperimentExecutor(campaign=log, **executor_kwargs)
        results = executor.run_batch(configs)
    return executor, results


def assert_sidecar_is_journal_fold(log_path) -> CampaignCheckpoint:
    """Fold equivalence: the sidecar the live executor wrote equals the
    checkpoint folded from the journal it sits next to."""
    folded = CampaignCheckpoint.from_journal(read_campaign(log_path))
    with open(checkpoint_path(str(log_path))) as handle:
        assert json.load(handle) == folded.to_dict()
    return folded


def count_sidecar_saves(monkeypatch) -> list:
    """Monkeypatch :meth:`CampaignCheckpoint.save` to record the path of
    every sidecar write; returns that list (the executor saves once per
    batch, when its books close)."""
    saves = []
    original = CampaignCheckpoint.save

    def counted(self, path):
        saves.append(str(path))
        return original(self, path)

    monkeypatch.setattr(CampaignCheckpoint, "save", counted)
    return saves


def spy_executions(monkeypatch):
    """Monkeypatch the (inline-path) worker entry point to record which
    seeds actually execute; returns a thunk yielding the seed list.
    Note: replayed runs contribute their *original* executed/cache
    counters to BatchStats — that is what makes the resumed summary
    byte-identical — so "zero re-execution" must be asserted on real
    worker calls, not on ``stats.executed``."""
    seeds = []
    original = executor_mod.execute_config_dict

    def spy(payload):
        seeds.append(payload["seed"])
        return original(payload)

    monkeypatch.setattr(executor_mod, "execute_config_dict", spy)
    return lambda: seeds


# ----------------------------------------------------------------------
# Checkpoint serialization (property-based)
# ----------------------------------------------------------------------
#: One run's lifecycle plan: (how it ends, retries before that, heartbeats
#: per attempt). ``in_flight``/``retrying``/``queued`` never end — the
#: state a kill leaves behind.
run_plans = st.tuples(
    st.sampled_from(
        ["cached", "finished", "failed", "quarantined", "in_flight", "retrying", "queued"]
    ),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=2),
)


def lifecycle_records(index: int, plan) -> list:
    """The records the executor would journal for one run plan."""
    ending, retries, beats = plan
    label = f"run{index}"
    records = [dict(event="queued", run=label, index=index, total=0,
                    variant="cubic", seed=index, key="ab" * 32,
                    cache_miss=ending != "cached")]
    if ending == "cached":
        return records + [dict(event="cache_hit", run=label, index=index)]
    if ending == "queued":
        return records
    for attempt in range(1, retries + 2):
        if attempt > 1:
            records.append(dict(event="retry", run=label, attempt=attempt))
        records.append(dict(event="started", run=label, attempt=attempt))
        records.extend(
            dict(event="heartbeat", run=label, sim_now=beat, events=beat,
                 events_per_s=1.0, pending_events=0)
            for beat in range(beats)
        )
    if ending == "finished":
        records.append(dict(event="finished", run=label, outcome="ok"))
    elif ending in ("failed", "quarantined"):
        records.append(dict(event="failed", run=label, error_type="Boom",
                            error_message="synthetic"))
        if ending == "quarantined":
            records.append(dict(event="quarantined", run=label, attempts=retries + 1))
    elif ending == "retrying":
        records.append(dict(event="retry", run=label, attempt=retries + 2))
    return records


class TestCheckpointRoundTrip:
    def test_checkpoint_to_needs_a_campaign(self, tmp_path):
        # The sidecar is a projection of the journal records.
        with pytest.raises(ValueError, match="campaign"):
            ExperimentExecutor(checkpoint_to=str(tmp_path / "x.ckpt.json"))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), plans=st.lists(run_plans, max_size=6))
    def test_projections_agree_on_generated_lifecycles(self, data, plans):
        """The state machine is a pure function of records: summary,
        checkpoint, timeline and batch stats of any interleaving of
        per-run lifecycles agree with each other and with the plan the
        stream was generated from — no executor, no process pool."""
        streams = [lifecycle_records(i, plan) for i, plan in enumerate(plans)]
        records = [dict(event="campaign_start", schema=2, total=len(plans), jobs=2)]
        while any(streams):
            live = [stream for stream in streams if stream]
            records.append(data.draw(st.sampled_from(live)).pop(0))
        for seq, record in enumerate(records):
            record.update(seq=seq, wall_ms=float(seq))
        assert validate_records(records) == []

        summary = campaign_summary(records)["runs"]
        checkpoint = CampaignCheckpoint.from_journal(records)
        timeline = {row.label: row for row in _campaign_timeline(fold_campaign(records))}
        assert checkpoint.total == len(plans)
        assert set(summary) == set(timeline) == {f"run{i}" for i in range(len(plans))}
        for i, (ending, retries, _beats) in enumerate(plans):
            label = f"run{i}"
            attempts = 0 if ending in ("cached", "queued") else retries + 1
            state = {"in_flight": "running", "retrying": "retrying"}.get(ending, ending)
            row = timeline[label]
            assert (summary[label]["state"], row.state) == (state, state)
            assert (summary[label]["attempts"], row.attempts) == (attempts, attempts)
            retried = retries + (ending == "retrying") if attempts else 0
            assert (summary[label]["retries"], row.retries) == (retried, retried)
            assert row.endings == (state in ("cached", "finished", "failed", "quarantined"))
            if state in TERMINAL_STATES:
                entry = checkpoint.runs[label]
                assert (entry.state, entry.attempts, entry.retries, entry.index) == (
                    state, attempts, retried, i)
                row = checkpoint.to_dict()["runs"][label]
                assert row["cache_hit"] == (state == "cached")
                assert row["executed"] == (attempts > 0)
            else:
                assert label not in checkpoint.runs
        endings = [ending for ending, _retries, _beats in plans]
        ran = [plan for plan in plans if plan[0] not in ("cached", "queued")]
        assert asdict(BatchStats.from_fold(fold_campaign(records))) == dict(
            total=len(plans),
            executed=len(ran),
            cache_hits=endings.count("cached"),
            cache_misses=len(plans) - endings.count("cached"),
            retries=sum(retries + (ending == "retrying") for ending, retries, _ in ran),
            failures=endings.count("failed") + endings.count("quarantined"),
            quarantined=endings.count("quarantined"),
            broken_pools=0,
            wall_s=0.0,
        )


# ----------------------------------------------------------------------
# Journal tail tolerance
# ----------------------------------------------------------------------
class TestTruncatedJournal:
    def _journal(self, tmp_path):
        path = tmp_path / "camp.jsonl"
        with CampaignLog(str(path)) as log:
            executor = ExperimentExecutor(
                campaign=log, checkpoint_to=checkpoint_path(str(path))
            )
            executor.run_batch([small_config()])
        assert_sidecar_is_journal_fold(path)
        return path

    def test_tolerant_reader_reports_tail(self, tmp_path):
        path = self._journal(tmp_path)
        whole, tail = read_campaign_with_tail(path)
        assert tail is None
        assert truncate_journal_tail(path)
        records, tail = read_campaign_with_tail(path)
        assert tail is not None
        assert len(records) == len(whole) - 1
        assert read_campaign(path) == records  # the torn tail is dropped

    def test_corrupt_middle_line_still_raises(self, tmp_path):
        path = self._journal(tmp_path)
        lines = path.read_text().splitlines()
        lines[1] = lines[1][: len(lines[1]) // 2]  # torn, but not the tail
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="corrupt record"):
            read_campaign(path)

    def test_resume_plan_from_torn_journal_without_sidecar(self, tmp_path):
        path = self._journal(tmp_path)
        os.unlink(checkpoint_path(str(path)))
        truncate_journal_tail(path)  # tears the campaign_end record
        plan = load_resume_plan(str(path))
        assert plan.partial_tail is not None
        assert plan.checkpoint.total == 1
        assert plan.checkpoint.runs["cubic/seed1"].state == "finished"

    def test_torn_journal_resume_matches_uninterrupted(self, tmp_path):
        """Fault leg: a closed journal torn mid-record (its
        ``campaign_end``) is detected, resumes with every run replayed,
        and digests like the uninterrupted campaign."""
        configs = [small_config(seed=s) for s in (1, 2)]
        labels = [f"cubic/seed{s}" for s in (1, 2)]
        torn = tmp_path / "torn.jsonl"
        run_logged(torn, configs, cache_dir=str(tmp_path / "cache"))
        assert truncate_journal_tail(torn)
        plan = load_resume_plan(str(torn))
        assert plan.partial_tail is not None
        resumed_path = tmp_path / "resumed.jsonl"
        resumed, results = run_logged(
            resumed_path, configs, cache_dir=str(tmp_path / "cache"), resume=plan
        )
        assert all(r.ok for r in results)
        assert resumed.last_replayed == 2
        assert_one_ending_per_run(resumed_path, labels)
        ref = tmp_path / "ref.jsonl"
        run_logged(ref, configs, cache_dir=str(tmp_path / "cache_ref"))
        assert summary_bytes(resumed_path) == summary_bytes(ref)


# ----------------------------------------------------------------------
# Cache write failures (ENOSPC et al.)
# ----------------------------------------------------------------------
class TestCacheWriteErrors:
    def test_put_failure_returns_none(self, tmp_path):
        blocker = tmp_path / "cache"
        blocker.write_text("a file where the cache dir should be")
        cache = ResultCache(blocker)
        [result] = ExperimentExecutor().run_batch([small_config()])
        assert result.ok
        assert cache.put("ab" * 32, result) is None
        assert cache.write_errors == 1
        assert cache.last_write_error

    def test_write_error_does_not_crash_batch(self, tmp_path):
        """Fault leg: every shard directory the batch would write into
        is a regular file, so ``ResultCache.put`` meets a real OSError.
        The runs finish uncached, and each failed write is counted and
        traced."""
        configs = [small_config(seed=s) for s in (31, 32)]
        cache_dir = tmp_path / "cache"
        for config in configs:
            shard = ResultCache(cache_dir).path_for(config.cache_key()).parent
            shard.parent.mkdir(parents=True, exist_ok=True)
            shard.write_text("a file where the shard directory should be")
        emitted = []
        CACHE_WRITE_ERROR_TP.subscribe(lambda t, name, fields: emitted.append(fields))
        try:
            executor, results = run_logged(
                tmp_path / "camp.jsonl", configs, cache_dir=str(cache_dir)
            )
        finally:
            CACHE_WRITE_ERROR_TP._subscribers.clear()
            CACHE_WRITE_ERROR_TP.enabled = False
        assert all(r.ok for r in results)
        assert executor.cache.write_errors == 2
        assert [fields["key"] for fields in emitted] == [c.cache_key() for c in configs]
        assert all(fields["error"].startswith("FileExistsError") for fields in emitted)
        assert_one_ending_per_run(tmp_path / "camp.jsonl", ["cubic/seed31", "cubic/seed32"])
        # nothing was cached: a re-run executes again
        rerun = ExperimentExecutor(cache_dir=str(cache_dir))
        rerun.run_batch(configs)
        assert rerun.last_batch.cache_hits == 0

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        """Fault leg: every cache entry a cold batch wrote is truncated
        before the warm batch, which reads each as a miss and runs it
        again instead of failing."""
        configs = [small_config(seed=s) for s in (33, 34)]
        labels = ["cubic/seed33", "cubic/seed34"]
        cache_dir = tmp_path / "cache"
        run_logged(tmp_path / "cold.jsonl", configs, cache_dir=str(cache_dir))
        entries = sorted(cache_dir.glob("*/*.json"))
        assert len(entries) == 2
        for entry in entries:
            data = entry.read_bytes()
            entry.write_bytes(data[: len(data) // 2])
        warm, results = run_logged(tmp_path / "warm.jsonl", configs, cache_dir=str(cache_dir))
        assert all(r.ok for r in results)
        assert (warm.last_batch.cache_hits, warm.last_batch.executed) == (0, 2)
        assert_one_ending_per_run(tmp_path / "warm.jsonl", labels)


# ----------------------------------------------------------------------
# Quarantine vs infrastructure failures
# ----------------------------------------------------------------------
class TestQuarantine:
    def test_sim_failure_quarantined_and_not_resubmitted(self, tmp_path, monkeypatch):
        monkeypatch.setattr(executor_mod, "execute_config_dict", failing_payload)
        saves = count_sidecar_saves(monkeypatch)
        path = tmp_path / "camp.jsonl"
        with CampaignLog(str(path)) as log:
            executor = ExperimentExecutor(
                campaign=log, checkpoint_to=checkpoint_path(str(path)),
            )
            executor.run_batch([small_config()])
        assert executor.last_batch.quarantined == 1
        assert saves == [checkpoint_path(str(path))]
        assert_sidecar_is_journal_fold(path)
        records = read_campaign(path)
        assert [r["event"] for r in records if r.get("run")][-1] == "quarantined"
        plan = load_resume_plan(str(path))
        assert plan.checkpoint.runs["cubic/seed1"].state == "quarantined"

        # Resume never re-executes a quarantined run: the recorded
        # failure is handed back without calling the worker at all.
        calls = []
        monkeypatch.setattr(
            executor_mod, "execute_config_dict",
            lambda payload: calls.append(payload) or failing_payload(payload),
        )
        resumed = ExperimentExecutor(resume=plan)
        results = resumed.run_batch([small_config()])
        assert calls == []
        assert resumed.last_replayed == 1
        assert not results[0].ok
        assert results[0].failure.error_type == "Boom"

    def bad_cdf_config(self, tmp_path) -> ExperimentConfig:
        """A config whose workload CDF the engine's set-up rejects."""
        workload = WorkloadConfig(cdf="custom", custom_cdf=((0.5, 1000), (0.2, 2000)))
        return ExperimentConfig(
            variant="cubic", weeks=4, warmup_weeks=1, n_flows=2, seed=1,
            workload=workload, bundle_dir=str(tmp_path / "bundles"),
        )

    def test_setup_crash_is_the_runs_own_failure(self, tmp_path):
        """A set-up step that raises is captured like a crash mid-run:
        not an infrastructure casualty, and it leaves a repro bundle."""
        (result,) = ExperimentExecutor().run_batch([self.bad_cdf_config(tmp_path)])
        failure = result.failure
        assert (failure.error_type, failure.infrastructure) == ("ValueError", False)
        assert "CDF must span probabilities" in failure.error_message
        assert failure.bundle_path is not None
        assert pathlib.Path(failure.bundle_path).is_dir()
        # Crashed before the fast path was built: no fidelity story to tell.
        tiered = run_experiment(replace(self.bad_cdf_config(tmp_path), fidelity="tiered"))
        assert tiered.failure is not None and tiered.fidelity_report is None

    def test_unknown_variant_is_rejected_by_the_config(self):
        with pytest.raises(ValueError, match="unknown variant 'bogus'"):
            small_config(variant="bogus")

    def test_setup_crash_is_quarantined_on_resume(self, tmp_path, monkeypatch):
        config = self.bad_cdf_config(tmp_path)
        path = tmp_path / "camp.jsonl"
        with CampaignLog(str(path)) as log:
            ExperimentExecutor(campaign=log, checkpoint_to=checkpoint_path(str(path))).run_batch(
                [config]
            )
        plan = load_resume_plan(str(path))
        assert plan.checkpoint.runs["cubic/seed1"].state == "quarantined"
        calls = []
        monkeypatch.setattr(executor_mod, "execute_config_dict", calls.append)
        (result,) = ExperimentExecutor(resume=plan).run_batch([config])
        assert calls == []
        assert result.failure.error_type == "ValueError"

    def test_infrastructure_failure_not_quarantined(self, tmp_path, monkeypatch):
        def transport_crash(payload):
            raise OSError("worker transport down")

        monkeypatch.setattr(executor_mod, "execute_config_dict", transport_crash)
        saves = count_sidecar_saves(monkeypatch)
        path = tmp_path / "camp.jsonl"
        with CampaignLog(str(path)) as log:
            executor = ExperimentExecutor(
                campaign=log, checkpoint_to=checkpoint_path(str(path)),
            )
            results = executor.run_batch([small_config()])
        assert not results[0].ok
        assert results[0].failure.infrastructure
        assert executor.last_batch.quarantined == 0
        assert executor.last_batch.failures == 1
        assert saves == [checkpoint_path(str(path))]
        # failed, not quarantined: resume resubmits it
        folded = assert_sidecar_is_journal_fold(path)
        assert folded.runs["cubic/seed1"].state == "failed"

    def test_wall_clock_abort_resubmitted_event_budget_abort_quarantined(
        self, tmp_path, monkeypatch
    ):
        """How long a run takes depends on the host; how many events it
        takes does not. A wall-clock watchdog abort is an infrastructure
        failure that resume re-executes; an event-budget abort fails the
        same way every time and stays quarantined."""
        monkeypatch.chdir(tmp_path)  # repro bundles land under cwd
        # 12 weeks is more than one 100k-event watchdog chunk, so the
        # 1 ns wall budget is checked, and blown, mid-run.
        configs = [
            ExperimentConfig(variant="cubic", weeks=12, warmup_weeks=1, n_flows=2,
                             seed=1, watchdog_max_wall_s=1e-9),
            ExperimentConfig(variant="cubic", weeks=4, warmup_weeks=1, n_flows=2,
                             seed=2, watchdog_max_events=500),
        ]
        path = tmp_path / "camp.jsonl"
        with CampaignLog(str(path)) as log:
            results = ExperimentExecutor(campaign=log).run_batch(configs)
        assert [r.failure.error_type for r in results] == ["WatchdogExceeded"] * 2
        assert "wall-clock budget" in results[0].failure.error_message
        assert "event budget" in results[1].failure.error_message
        assert [r.failure.infrastructure for r in results] == [True, False]
        plan = load_resume_plan(str(path))
        assert {label: run.state for label, run in plan.checkpoint.runs.items()} == {
            "cubic/seed1": "failed", "cubic/seed2": "quarantined"}

        executed = spy_executions(monkeypatch)
        resumed = ExperimentExecutor(resume=plan)
        results = resumed.run_batch(configs)
        assert executed() == [1]  # only the wall-clock abort runs again
        assert resumed.last_replayed == 1
        assert results[1].failure.error_type == "WatchdogExceeded"


# ----------------------------------------------------------------------
# Graceful shutdown
# ----------------------------------------------------------------------
class TestGracefulShutdown:
    def test_keyboard_interrupt_aborts_with_record(self, tmp_path, monkeypatch):
        seen = {"n": 0}

        def interrupt_second(payload):
            seen["n"] += 1
            if seen["n"] >= 2:
                raise KeyboardInterrupt()
            return executor_mod.run_experiment(
                ExperimentConfig.from_dict(payload)
            ).to_dict()

        monkeypatch.setattr(executor_mod, "execute_config_dict", interrupt_second)
        saves = count_sidecar_saves(monkeypatch)
        monkeypatch.setattr(executor_mod, "HEARTBEAT_EVENTS", 2_000)
        path = tmp_path / "camp.jsonl"
        with pytest.raises(CampaignAborted) as abort:
            with CampaignLog(str(path)) as log:
                executor = ExperimentExecutor(
                    campaign=log,
                    cache_dir=str(tmp_path / "cache"),
                    checkpoint_to=checkpoint_path(str(path)),
                )
                executor.run_batch([small_config(seed=41), small_config(seed=42)])
        assert abort.value.done == 1
        assert abort.value.total == 2
        records = read_campaign(path)
        assert records[-1]["event"] == "campaign_abort"
        assert records[-1]["done"] == 1
        # Ordering pinned: every heartbeat precedes its run's terminal
        # record, and everything precedes the abort record.
        abort_seq = records[-1]["seq"]
        finished = {r["run"]: r["seq"] for r in records if r["event"] == "finished"}
        for r in records:
            assert r["seq"] <= abort_seq
            if r["event"] == "heartbeat" and r["run"] in finished:
                assert r["seq"] < finished[r["run"]]
        # The abort closed the books: one sidecar save, holding the
        # completed run; resume replays it and only executes the
        # interrupted one.
        assert saves == [checkpoint_path(str(path))]
        assert_sidecar_is_journal_fold(path)
        plan = load_resume_plan(str(path))
        assert list(plan.checkpoint.runs) == ["cubic/seed41"]
        monkeypatch.undo()
        executed = spy_executions(monkeypatch)
        resumed = ExperimentExecutor(
            cache_dir=str(tmp_path / "cache"), resume=plan
        )
        results = resumed.run_batch([small_config(seed=41), small_config(seed=42)])
        assert resumed.last_replayed == 1
        assert executed() == [42]  # only the interrupted run re-executes
        assert all(r.ok for r in results)

    def test_sigterm_aborts_with_the_signal_name(self, monkeypatch):
        def terminate(_payload):
            os.kill(os.getpid(), signal.SIGTERM)
            raise AssertionError("the SIGTERM handler did not interrupt the run")

        monkeypatch.setattr(executor_mod, "execute_config_dict", terminate)
        with pytest.raises(CampaignAborted) as abort:
            ExperimentExecutor().run_batch([small_config(seed=41)])
        assert abort.value.reason == "SIGTERM"
        assert (abort.value.done, abort.value.total) == (0, 1)


# ----------------------------------------------------------------------
# Resume identity (in-process)
# ----------------------------------------------------------------------
class TestResumeIdentity:
    def test_partial_then_resume_matches_uninterrupted(self, tmp_path, monkeypatch):
        configs = [small_config(seed=s) for s in (1, 2, 3)]
        ref = tmp_path / "ref.jsonl"
        with CampaignLog(str(ref)) as log:
            ExperimentExecutor(
                cache_dir=str(tmp_path / "cache_ref"), campaign=log
            ).run_batch(configs)

        part = tmp_path / "part.jsonl"
        with CampaignLog(str(part)) as log:
            ExperimentExecutor(
                cache_dir=str(tmp_path / "cache"), campaign=log,
                checkpoint_to=checkpoint_path(str(part)),
            ).run_batch(configs[:2])

        executed = spy_executions(monkeypatch)
        res = tmp_path / "res.jsonl"
        with CampaignLog(str(res)) as log:
            resumed = ExperimentExecutor(
                cache_dir=str(tmp_path / "cache"), campaign=log,
                checkpoint_to=checkpoint_path(str(res)),
                resume=load_resume_plan(str(part)),
            )
            resumed.run_batch(configs)
        assert resumed.last_replayed == 2
        assert executed() == [3]  # completed runs never re-execute
        assert summary_bytes(res) == summary_bytes(ref)
        assert_sidecar_is_journal_fold(part)
        assert_sidecar_is_journal_fold(res)

    def test_kill_between_journal_and_cache_put_reexecutes_that_run(
        self, tmp_path, monkeypatch
    ):
        """``_finish_item`` journals "finished" before ``_cache_put``; a
        SIGKILL in between leaves a finished run with no cached result.
        Resume replays what it can serve and re-executes that one run,
        to the same result and the same summary."""
        configs = [small_config(seed=s) for s in (1, 2, 3)]
        ref = tmp_path / "ref.jsonl"
        with CampaignLog(str(ref)) as log:
            ref_results = ExperimentExecutor(
                cache_dir=str(tmp_path / "cache_ref"), campaign=log
            ).run_batch(configs)

        part = tmp_path / "part.jsonl"
        with CampaignLog(str(part)) as log:
            ExperimentExecutor(
                cache_dir=str(tmp_path / "cache"), campaign=log
            ).run_batch(configs[:2])
        ResultCache(tmp_path / "cache").path_for(configs[1].cache_key()).unlink()

        plan = load_resume_plan(str(part))
        assert plan.checkpoint.runs["cubic/seed2"].state == "finished"
        executed = spy_executions(monkeypatch)
        res = tmp_path / "res.jsonl"
        with CampaignLog(str(res)) as log:
            resumed = ExperimentExecutor(
                cache_dir=str(tmp_path / "cache"), campaign=log, resume=plan
            )
            results = resumed.run_batch(configs)
        assert resumed.last_replayed == 1
        assert executed() == [2, 3]
        assert [r.to_dict() for r in results] == [r.to_dict() for r in ref_results]
        assert summary_bytes(res) == summary_bytes(ref)

    @pytest.mark.parametrize("sidecar", ["lagging", "foreign"])
    def test_kill_window_sidecar_cannot_change_the_resume(
        self, tmp_path, monkeypatch, sidecar
    ):
        """A stale sidecar — one holding N-1 of the journal's N
        run-ending records, or one left over from another campaign —
        cannot change a resume. Resume reads the journal only: all N
        replay, none re-executes, and the digest matches the
        uninterrupted run."""
        configs = [small_config(seed=s) for s in (1, 2, 3)]
        ref = tmp_path / "ref.jsonl"
        with CampaignLog(str(ref)) as log:
            ExperimentExecutor(
                cache_dir=str(tmp_path / "cache"), campaign=log,
                checkpoint_to=checkpoint_path(str(ref)),
            ).run_batch(configs)
        if sidecar == "lagging":
            stale = CampaignCheckpoint.from_journal(
                r for r in read_campaign(ref) if r.get("run") != "cubic/seed3"
            )
        else:
            stale = CampaignCheckpoint.from_journal(
                lifecycle_records(0, ("finished", 0, 0))
            )
        assert "cubic/seed3" not in stale.runs
        stale.save(checkpoint_path(str(ref)))

        plan = load_resume_plan(str(ref))
        assert sorted(plan.checkpoint.runs) == [f"cubic/seed{s}" for s in (1, 2, 3)]
        executed = spy_executions(monkeypatch)
        res = tmp_path / "res.jsonl"
        with CampaignLog(str(res)) as log:
            resumed = ExperimentExecutor(
                cache_dir=str(tmp_path / "cache"), campaign=log, resume=plan
            )
            resumed.run_batch(configs)
        assert resumed.last_replayed == 3
        assert executed() == []
        assert summary_bytes(res) == summary_bytes(ref)

    def test_replayed_records_flagged_but_summary_identical(self, tmp_path, monkeypatch):
        config = small_config(seed=9)
        saves = count_sidecar_saves(monkeypatch)
        part = tmp_path / "one.jsonl"
        with CampaignLog(str(part)) as log:
            ExperimentExecutor(
                cache_dir=str(tmp_path / "cache"), campaign=log,
                checkpoint_to=checkpoint_path(str(part)),
            ).run_batch([config])
        res = tmp_path / "one.resumed.jsonl"
        with CampaignLog(str(res)) as log:
            ExperimentExecutor(
                cache_dir=str(tmp_path / "cache"), campaign=log,
                resume=load_resume_plan(str(part)),
            ).run_batch([config])
        records = read_campaign(res)
        replayed = [r for r in records if r.get("replayed")]
        assert replayed  # lifecycle re-emitted, marked
        assert any(r["event"] == "campaign_resume" for r in records)
        assert summary_bytes(res) == summary_bytes(part)

        # A resumed journal is itself resumable, and a warm batch's
        # cache hits checkpoint like any other run-ending record.
        again = tmp_path / "one.resumed2.jsonl"
        warm = tmp_path / "one.warm.jsonl"
        for path, resume in ((again, load_resume_plan(str(res))), (warm, None)):
            with CampaignLog(str(path)) as log:
                ExperimentExecutor(
                    cache_dir=str(tmp_path / "cache"), campaign=log,
                    checkpoint_to=checkpoint_path(str(path)), resume=resume,
                ).run_batch([config])
        assert summary_bytes(again) == summary_bytes(part)
        assert saves == [checkpoint_path(str(path)) for path in (part, again, warm)]
        assert assert_sidecar_is_journal_fold(again).runs["cubic/seed9"].attempts == 1
        assert assert_sidecar_is_journal_fold(warm).runs["cubic/seed9"].state == "cached"

    def test_sidecar_saved_once_per_cold_warm_and_resumed_batch(
        self, tmp_path, monkeypatch
    ):
        """One sidecar save per batch, when its books close, whether its
        three runs executed, were cache hits or were replayed; each
        sidecar equals the fold of the journal next to it."""
        configs = [small_config(seed=s) for s in (1, 2, 3)]
        cold = tmp_path / "cold.jsonl"
        saves = count_sidecar_saves(monkeypatch)
        states = {}
        for name, resume in (("cold", None), ("warm", None), ("resumed", cold)):
            path = tmp_path / f"{name}.jsonl"
            plan = load_resume_plan(str(resume)) if resume else None
            with CampaignLog(str(path)) as log:
                executor = ExperimentExecutor(
                    cache_dir=str(tmp_path / "cache"), campaign=log,
                    checkpoint_to=checkpoint_path(str(path)),
                )
                executor.run_batch(configs, resume_from=plan)
            assert saves == [checkpoint_path(str(path))], name
            saves.clear()
            folded = assert_sidecar_is_journal_fold(path)
            states[name] = sorted(run.state for run in folded.runs.values())
        assert executor.last_replayed == 3
        assert states == {
            "cold": ["finished"] * 3, "warm": ["cached"] * 3, "resumed": ["finished"] * 3,
        }


# ----------------------------------------------------------------------
# Pool faults, injected at the pool's own seams
# ----------------------------------------------------------------------
class TestExecutorChaos:
    LABELS = ["cubic/seed1", "cubic/seed2"]

    def _killed_campaign(self, tmp_path, monkeypatch, after_events: int):
        """A two-run pooled campaign whose worker for seed 1 SIGKILLs
        itself once; returns (executor, results, records, events at the
        kill)."""
        marker = tmp_path / "killed"
        monkeypatch.setattr(executor_mod, "execute_pooled", partial(
            kill_pooled_worker_once, seed=1, after_events=after_events, marker=str(marker),
        ))
        saves = count_sidecar_saves(monkeypatch)
        monkeypatch.setattr(executor_mod, "HEARTBEAT_EVENTS", 2_000)
        path = tmp_path / "camp.jsonl"
        executor, results = run_logged(
            path, [small_config(seed=s) for s in (1, 2)], jobs=2,
            checkpoint_to=checkpoint_path(str(path)),
        )
        assert marker.exists(), "the worker never killed itself"
        assert saves == [checkpoint_path(str(path))]  # one per batch, pooled too
        assert_sidecar_is_journal_fold(path)
        records = assert_one_ending_per_run(path, self.LABELS)
        return executor, results, records, int(marker.read_text())

    def test_worker_kill_rebuilds_pool_and_completes(self, tmp_path, monkeypatch):
        """Fault leg: a worker dies before running; the pool is rebuilt
        and its casualties resubmitted (``retry``)."""
        executor, results, records, events = self._killed_campaign(
            tmp_path, monkeypatch, after_events=0)
        assert events == 0
        assert all(r.ok for r in results)
        assert executor.last_batch.broken_pools >= 1
        assert {"run": "cubic/seed1", "attempt": 2} in [
            {"run": r["run"], "attempt": r["attempt"]} for r in records if r["event"] == "retry"
        ]

    def test_worker_killed_mid_run_rebuilds_pool_and_completes(self, tmp_path, monkeypatch):
        """Fault leg: a worker dies mid-simulation, after 5,000 events;
        the broken pool is reported by the run's future, not at submit."""
        executor, results, records, events = self._killed_campaign(
            tmp_path, monkeypatch, after_events=5_000)
        assert events >= 5_000
        assert all(r.ok for r in results)
        assert executor.last_batch.broken_pools >= 1
        assert any(r["event"] == "retry" and r["run"] == "cubic/seed1" for r in records)

    def test_broken_pool_at_submit_rebuilds_and_completes(self, tmp_path, monkeypatch):
        """Fault leg: the pool is already broken when the first run is
        submitted. It is rebuilt; nothing had started, so nothing retries."""
        submit = ExperimentExecutor._submit
        broke = []

        def break_once(self, pool, config):
            if not broke:
                broke.append(config.seed)
                raise BrokenProcessPool("the pool died between completions")
            return submit(self, pool, config)

        monkeypatch.setattr(ExperimentExecutor, "_submit", break_once)
        path = tmp_path / "camp.jsonl"
        executor, results = run_logged(path, [small_config(seed=s) for s in (1, 2)], jobs=2)
        assert broke == [1]
        assert all(r.ok for r in results)
        assert executor.last_batch.broken_pools == 1
        records = assert_one_ending_per_run(path, self.LABELS)
        assert not [r for r in records if r["event"] == "retry"]

    def test_broken_pool_budget_exhausted_fails_cleanly(self, tmp_path, monkeypatch):
        def always_broken(self, pool, config):
            raise BrokenProcessPool("the pool died between completions")

        monkeypatch.setattr(executor_mod, "POOL_REBUILDS", 1)
        monkeypatch.setattr(ExperimentExecutor, "_submit", always_broken)
        executor = ExperimentExecutor(jobs=2)
        results = executor.run_batch([small_config(seed=s) for s in (1, 2)])
        assert all(not r.ok for r in results)
        assert all(r.failure.infrastructure for r in results)
        assert executor.last_batch.broken_pools == 2
        # infrastructure casualties are failed, never quarantined
        assert executor.last_batch.quarantined == 0


# ----------------------------------------------------------------------
# SIGKILL integration: a pooled campaign killed -9 mid-flight resumes
# to a byte-identical summary
# ----------------------------------------------------------------------
CHILD_SCRIPT = """
import sys
import time
sys.path.insert(0, {src!r})
import repro.experiments.executor as executor_mod
from repro.experiments.checkpoint import checkpoint_path
from repro.experiments.config import ExperimentConfig
from repro.experiments.executor import ExperimentExecutor
from repro.obs.campaign import CampaignLog

# Spawned pool workers import this module too, so the patch is in force
# where the runs execute: the third run stalls 120s in its worker, and
# the campaign is guaranteed mid-flight (2 finished, 1 running) at the
# SIGKILL.
run_payload = executor_mod.execute_config_dict


def stall_the_third(payload):
    if payload["seed"] == 3:
        time.sleep(120.0)
    return run_payload(payload)


executor_mod.execute_config_dict = stall_the_third
executor_mod.HEARTBEAT_EVENTS = 2000


def main():
    configs = [
        ExperimentConfig(variant="cubic", weeks=4, warmup_weeks=1, n_flows=2, seed=s)
        for s in (1, 2, 3)
    ]
    with CampaignLog({log!r}) as log:
        executor = ExperimentExecutor(
            jobs=2, cache_dir={cache!r}, campaign=log,
            checkpoint_to=checkpoint_path({log!r}),
        )
        executor.run_batch(configs)


if __name__ == "__main__":  # spawn-safe: workers re-import this module
    main()
"""


class TestSigkillResume:
    def test_kill9_mid_campaign_resume_is_byte_identical(self, tmp_path):
        configs = [small_config(seed=s) for s in (1, 2, 3)]
        log_path = tmp_path / "killed.jsonl"
        script = tmp_path / "child.py"
        script.write_text(
            CHILD_SCRIPT.format(
                src=str(REPO_ROOT / "src"),
                log=str(log_path),
                cache=str(tmp_path / "cache"),
            )
        )
        cache = ResultCache(tmp_path / "cache")
        cached = [cache.path_for(c.cache_key()) for c in configs[:2]]
        child = subprocess.Popen(
            [sys.executable, str(script)],
            cwd=str(tmp_path),
            start_new_session=True,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 90.0
            while time.monotonic() < deadline:
                try:
                    text = log_path.read_text()
                except OSError:
                    text = ""
                # ``_finish_item`` journals before ``_cache_put``: two
                # "finished" records alone leave a window in which a
                # kill replays one run, not two. Wait for both cache
                # entries (``put`` is tmp + rename: existing = whole).
                if text.count('"finished"') >= 2 and all(
                    path.exists() for path in cached
                ):
                    break
                if child.poll() is not None:
                    pytest.fail("campaign child exited before the kill")
                time.sleep(0.05)
            else:
                pytest.fail("campaign child never finished its first two runs")
            os.killpg(child.pid, signal.SIGKILL)
            child.wait(timeout=30)
        finally:
            try:
                os.killpg(child.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass

        plan = load_resume_plan(str(log_path))
        done = {
            label for label, run in plan.checkpoint.runs.items()
            if run.state == "finished"
        }
        assert done == {"cubic/seed1", "cubic/seed2"}

        resumed_path = tmp_path / "resumed.jsonl"
        with CampaignLog(str(resumed_path)) as log:
            resumed = ExperimentExecutor(
                jobs=2, cache_dir=str(tmp_path / "cache"), campaign=log,
                checkpoint_to=checkpoint_path(str(resumed_path)), resume=plan,
            )
            with heartbeat_every(2000):
                results = resumed.run_batch(configs)
        assert all(r.ok for r in results)
        assert resumed.last_replayed == 2  # zero re-execution of done sims

        ref_path = tmp_path / "ref.jsonl"
        with CampaignLog(str(ref_path)) as log:
            reference = ExperimentExecutor(
                jobs=2, cache_dir=str(tmp_path / "cache_ref"), campaign=log,
            )
            with heartbeat_every(2000):
                reference.run_batch(configs)
        assert summary_bytes(resumed_path) == summary_bytes(ref_path)
