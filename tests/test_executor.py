"""Parallel experiment executor: serialization round trips, cache
behavior, the attempt-once policy, parallel-vs-sequential equivalence, and the
failure-surfacing regressions (silent sweeps, crash-path telemetry,
mid-run collector attach, report resampling)."""

import json
import math
from dataclasses import asdict, replace

import numpy as np
import pytest

from repro.experiments import executor as executor_mod
from repro.experiments.checkpoint import load_resume_plan
from repro.experiments.config import ExperimentConfig, WorkloadConfig
from repro.experiments.executor import (
    BatchStats,
    ExperimentExecutor,
    ResultCache,
)
from repro.experiments.figures import FigureData, fig2
from repro.experiments.report import render_series_table
from repro.experiments.runner import (
    ExperimentResult,
    RunFailure,
    WeekFolder,
    run_experiment,
    watch_queue_length,
)
from repro.experiments.sweeps import day_length_sweep
from repro.faults.plan import FaultPlan, FaultSpec
from repro.net.packet import Packet
from repro.net.queues import DropTailQueue
from repro.obs.campaign import CampaignLog, campaign_summary, fold_campaign, read_campaign
from repro.obs.telemetry import ObsConfig
from repro.rdcn.config import RDCNConfig
from repro.sim.simulator import Simulator

SMALL = dict(weeks=4, warmup_weeks=1, n_flows=2)


def small_config(**overrides):
    kwargs = dict(variant="cubic", weeks=4, warmup_weeks=1, n_flows=2, seed=1)
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


def flap_plan():
    return FaultPlan(
        specs=[FaultSpec(kind="link_flap", target="uplink-*", at_ns=1_000,
                         params={"down_ns": 500.0})],
        name="flap",
    )


def ok_result_dict(config: ExperimentConfig) -> dict:
    result = ExperimentResult(config=config, duration_ns=config.duration_ns)
    result.aggregate_delivered = 123
    return result.to_dict()


def failed_result_dict(config: ExperimentConfig) -> dict:
    result = ExperimentResult(config=config, duration_ns=config.duration_ns)
    result.failure = RunFailure("Boom", "synthetic crash", config.seed, None, None)
    return result.to_dict()


class TestConfigSerialization:
    def test_round_trip_with_fault_plan(self):
        config = small_config(variant="tdtcp", fault_plan=flap_plan(),
                              audit="warn")
        blob = json.dumps(config.to_dict(), sort_keys=True)
        restored = ExperimentConfig.from_dict(json.loads(blob))
        assert restored == config
        assert restored.cache_key() == config.cache_key()
        assert restored.fault_plan == config.fault_plan

    def test_round_trip_with_obs(self):
        config = small_config(obs=ObsConfig(trace_dir="out", label="x"))
        restored = ExperimentConfig.from_dict(json.loads(json.dumps(config.to_dict())))
        assert restored == config

    def test_cache_key_ignores_non_semantic_fields(self):
        base = small_config()
        assert small_config(bundle_dir="elsewhere").cache_key() == base.cache_key()
        assert small_config(obs=ObsConfig(trace_dir="out")).cache_key() == base.cache_key()

    def test_cache_key_tracks_semantic_fields(self):
        base = small_config()
        assert small_config(seed=2).cache_key() != base.cache_key()
        assert small_config(variant="tdtcp").cache_key() != base.cache_key()
        assert small_config(fault_plan=flap_plan()).cache_key() != base.cache_key()
        assert small_config(weeks=5).cache_key() != base.cache_key()

    def test_cache_key_stable_across_processes(self):
        # sha256 of canonical JSON — no PYTHONHASHSEED dependence.
        config = small_config(fault_plan=flap_plan())
        rebuilt = ExperimentConfig.from_dict(config.to_dict())
        assert rebuilt.cache_key() == config.cache_key()
        assert len(config.cache_key()) == 64

    def test_from_dict_rejects_unknown_fields(self):
        data = small_config().to_dict()
        data["not_a_field"] = 1
        with pytest.raises(ValueError, match="not_a_field"):
            ExperimentConfig.from_dict(data)


class TestResultSerialization:
    def test_round_trip_preserves_everything(self):
        result = run_experiment(small_config())
        restored = ExperimentResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert restored.to_dict() == result.to_dict()
        assert result.seq_week_curve and result.voq_week_curve
        assert restored.seq_week_curve == result.seq_week_curve
        assert restored.voq_week_curve == result.voq_week_curve
        assert restored.steady_state_throughput_gbps() == pytest.approx(
            result.steady_state_throughput_gbps()
        )

    def test_failure_round_trip(self):
        config = small_config()
        result = ExperimentResult(config=config, duration_ns=config.duration_ns)
        result.failure = RunFailure("WatchdogExceeded", "budget", 1, None, "b/path")
        restored = ExperimentResult.from_dict(result.to_dict())
        assert not restored.ok
        assert restored.failure == result.failure


class TestLeanRecord:
    """A run returns the week it averaged, not its raw samples, so the
    record the executor ships and caches does not grow with ``weeks``."""

    BULK = dict(variant="tdtcp", weeks=2, warmup_weeks=1, n_flows=8, seed=1)

    def test_bulk_record_carries_folded_weeks_only(self):
        result = run_experiment(ExperimentConfig(**self.BULK))
        record = result.to_dict()
        assert "seq_samples" not in record and "voq_samples" not in record
        assert len(json.dumps(record)) <= 16 * 1024  # 189 KB with the raw series
        assert len(result.seq_week_curve) == len(result.voq_week_curve) == 400

        # As figures 13 and 14 run: the same run, minus the sequence curve.
        lean = run_experiment(ExperimentConfig(**self.BULK, collect_sequence=False))
        assert lean.seq_week_curve is None
        assert lean.voq_week_curve == result.voq_week_curve
        assert lean.steady_state_throughput_gbps() == result.steady_state_throughput_gbps()
        assert lean.flow_delivered == result.flow_delivered

    def test_engine_run_carries_no_curves(self):
        config = ExperimentConfig(variant="tdtcp", weeks=3, warmup_weeks=1, seed=1,
                                  workload=WorkloadConfig(load=0.4))
        result = run_experiment(config)
        assert result.seq_week_curve is None and result.voq_week_curve is None
        assert result.voq_max == 41  # as when the run shipped its VOQ series


class TestCache:
    def test_warm_cache_short_circuits_execution(self, tmp_path, monkeypatch):
        config = small_config()
        first = ExperimentExecutor(cache_dir=str(tmp_path))
        [result] = first.run_batch([config])
        assert result.ok
        assert first.last_batch.executed == 1
        assert first.last_batch.cache_misses == 1

        def boom(_config):
            raise AssertionError("cache hit must not re-execute the simulation")

        monkeypatch.setattr(executor_mod, "run_experiment", boom)
        second = ExperimentExecutor(cache_dir=str(tmp_path))
        [cached] = second.run_batch([config])
        assert second.last_batch.cache_hits == 1
        assert second.last_batch.executed == 0
        assert second.last_batch.cache_misses == 0
        assert cached.to_dict() == result.to_dict()

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        config = small_config()
        cache = ResultCache(str(tmp_path))
        key = config.cache_key()
        cache.path_for(key).parent.mkdir(parents=True)
        # Broken JSON, and JSON that parses but is not an entry object.
        for text in ("{not json", "null", "[]", "12", '"x"'):
            cache.path_for(key).write_text(text)
            assert cache.get(key) is None, text

    def test_failed_results_are_not_cached(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # repro bundles land under cwd
        config = small_config(watchdog_max_events=500)
        for _round in range(2):
            ex = ExperimentExecutor(cache_dir=str(tmp_path / "cache"))
            [result] = ex.run_batch([config])
            assert not result.ok
            assert ex.last_batch.cache_hits == 0
            assert ex.last_batch.executed == 1

    def test_active_obs_bypasses_cache(self, tmp_path):
        config = small_config(obs=ObsConfig(trace_dir=str(tmp_path / "trace"),
                                            chrome_trace=False, csv=False))
        ex = ExperimentExecutor(cache_dir=str(tmp_path / "cache"))
        ex.run_batch([config])
        ex2 = ExperimentExecutor(cache_dir=str(tmp_path / "cache"))
        [again] = ex2.run_batch([config])
        assert ex2.last_batch.cache_hits == 0
        assert ex2.last_batch.executed == 1
        assert again.artifacts  # telemetry really ran

    def test_outcome_digest_ignores_telemetry_and_the_cache(self, tmp_path):
        """What a run simulated has one digest: fresh or served from the
        cache, telemetry and profiling on or off. Another seed, another
        digest."""
        config = small_config()
        [fresh] = ExperimentExecutor(cache_dir=str(tmp_path)).run_batch([config])
        warm = ExperimentExecutor(cache_dir=str(tmp_path))
        [cached] = warm.run_batch([config])
        assert warm.last_batch.cache_hits == 1
        observed = run_experiment(replace(config, obs=ObsConfig(
            trace_dir=str(tmp_path / "trace"), profile=True)))
        assert observed.artifacts and observed.profile_report
        digest = fresh.outcome_digest()
        assert cached.outcome_digest() == observed.outcome_digest() == digest
        assert run_experiment(replace(config, seed=2)).outcome_digest() != digest

    def test_use_cache_false_disables_cache(self, tmp_path):
        config = small_config()
        ex = ExperimentExecutor(cache_dir=str(tmp_path), use_cache=False)
        ex.run_batch([config])
        ex.run_batch([config])
        assert ex.last_batch.cache_hits == 0
        assert not list(tmp_path.rglob("*.json"))


class TestBooksAreTheJournalFold:
    def test_stats_do_not_depend_on_where_the_records_go(self, tmp_path, monkeypatch):
        """One warm cache hit plus one run whose simulation fails: the
        batch's books are the fold of the records it emits, so they read
        the same with no log, an in-memory log and a file log."""
        warm, failing = small_config(seed=1), small_config(seed=2)
        calls = []

        def fails_seed2(payload):
            config = ExperimentConfig.from_dict(payload)
            calls.append(config.seed)
            if config.seed == 2:
                return failed_result_dict(config)
            return ok_result_dict(config)

        monkeypatch.setattr(executor_mod, "execute_config_dict", fails_seed2)
        books = {}
        for name in ("none", "memory", "file"):
            cache = str(tmp_path / name / "cache")
            ExperimentExecutor(cache_dir=cache).run_batch([warm])
            del calls[:]
            log = {"none": None, "memory": CampaignLog(None),
                   "file": CampaignLog(tmp_path / name / "log.jsonl")}[name]
            executor = ExperimentExecutor(cache_dir=cache, campaign=log)
            results = executor.run_batch([warm, failing])
            assert [r.ok for r in results] == [True, False] and calls == [2]
            books[name] = dict(asdict(executor.last_batch), wall_s=None)
            if log is not None:
                log.close()
                assert books[name] == dict(
                    asdict(BatchStats.from_fold(fold_campaign(log.records))), wall_s=None
                )
        assert books["none"] == books["memory"] == books["file"]
        assert books["none"] == dict(
            total=2, executed=1, cache_hits=1, cache_misses=1, retries=0,
            failures=1, quarantined=1, broken_pools=0, wall_s=None,
        )

    def test_two_runs_of_one_batch_never_share_a_journal_label(
        self, tmp_path, monkeypatch
    ):
        """Default labels are ``variant/seedN``; a batch that varies
        anything else used to journal both runs under one label, so the
        summary held one run with two endings."""
        monkeypatch.setattr(
            executor_mod, "execute_config_dict",
            lambda payload: ok_result_dict(ExperimentConfig.from_dict(payload)),
        )
        configs = [
            small_config(rdcn=replace(RDCNConfig(), day_ns=day_ns))
            for day_ns in (60_000, 180_000)
        ]
        path = tmp_path / "log.jsonl"
        with CampaignLog(path) as log:
            ExperimentExecutor(cache_dir=str(tmp_path / "cache"), campaign=log).run_batch(configs)
        records = read_campaign(path)
        summary = campaign_summary(records)
        assert sorted(summary["runs"]) == ["cubic/seed1", "cubic/seed1#2"]
        assert summary["total"] == 2
        assert [run.endings for run in fold_campaign(records).runs.values()] == [1, 1]

        monkeypatch.setattr(executor_mod, "execute_config_dict", None)  # must not run
        resumed = ExperimentExecutor(
            cache_dir=str(tmp_path / "cache"), resume=load_resume_plan(path)
        )
        results = resumed.run_batch(configs)
        assert [r.config for r in results] == configs
        assert (resumed.last_replayed, resumed.last_fresh) == (2, 0)
        assert resumed.last_batch.executed == 2 and resumed.last_batch.total == 2

        with pytest.raises(ValueError, match="repeat"):
            ExperimentExecutor().run_batch(configs, labels=["a", "a"])


class TestRetryPolicy:
    def test_retry_exhausted_surfaces_failure(self, monkeypatch):
        # The simulation is deterministic, so a failed run is not
        # retried: its failure surfaces after the one attempt, and the
        # run is quarantined as poison.
        calls = []

        def always_fails(payload):
            calls.append(1)
            return failed_result_dict(ExperimentConfig.from_dict(payload))

        monkeypatch.setattr(executor_mod, "execute_config_dict", always_fails)
        ex = ExperimentExecutor()
        [result] = ex.run_batch([small_config()])
        assert not result.ok
        assert result.failure.error_type == "Boom"
        assert len(calls) == 1
        assert ex.last_batch.retries == 0
        assert ex.last_batch.failures == 1
        assert ex.last_batch.quarantined == 1

    def test_transport_crash_becomes_structured_failure(self, monkeypatch):
        def explodes(payload):
            raise OSError("worker transport broke")

        monkeypatch.setattr(executor_mod, "execute_config_dict", explodes)
        ex = ExperimentExecutor()
        [result] = ex.run_batch([small_config()])
        assert not result.ok
        assert result.failure.error_type == "OSError"


class TestParallelEquivalence:
    def test_fig2_jobs2_value_identical_to_sequential(self):
        sequential = fig2(**SMALL)
        parallel = fig2(**SMALL, executor=ExperimentExecutor(jobs=2))
        assert parallel.throughputs_gbps == sequential.throughputs_gbps
        assert set(parallel.seq_curves) == set(sequential.seq_curves)
        for variant in sequential.seq_curves:
            for attr in ("seq_curves", "voq_curves"):
                seq_t, seq_v = getattr(sequential, attr)[variant]
                par_t, par_v = getattr(parallel, attr)[variant]
                assert np.array_equal(seq_t, par_t), f"{attr}/{variant} times differ"
                assert np.array_equal(seq_v, par_v), f"{attr}/{variant} values differ"
        assert np.array_equal(parallel.optimal[1], sequential.optimal[1])
        assert np.array_equal(parallel.packet_only[1], sequential.packet_only[1])

    def test_batch_results_in_input_order(self, monkeypatch):
        # Labels come back positionally even though the pool finishes
        # out of order; with the inline path this checks the assembly
        # indexing directly.
        seeds = [5, 3, 9]
        ex = ExperimentExecutor()
        results = ex.run_batch([small_config(seed=s) for s in seeds])
        assert [r.config.seed for r in results] == seeds


class TestFigureDegradation:
    def test_failed_variant_does_not_abort_figure(self, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        real = executor_mod.run_experiment

        def selective(config):
            if config.variant == "mptcp":
                result = ExperimentResult(config=config, duration_ns=config.duration_ns)
                result.failure = RunFailure("Boom", "mptcp down", config.seed, None, None)
                return result
            return real(config)

        monkeypatch.setattr(executor_mod, "run_experiment", selective)
        data = fig2(**SMALL, executor=ExperimentExecutor())
        assert data.failures
        assert set(data.failures) == {"mptcp"}
        assert data.failures["mptcp"].error_type == "Boom"
        assert "cubic" in data.throughputs_gbps
        assert "mptcp" not in data.throughputs_gbps


class TestSweepFailureSurfacing:
    def test_crashed_run_is_a_failure_not_zero_throughput(self, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)  # repro bundles land under cwd
        result = day_length_sweep(
            day_us_values=(180,), variants=("cubic",),
            weeks=4, warmup_weeks=1, n_flows=2,
            watchdog_max_events=500,
            executor=ExperimentExecutor(),
        )
        assert result.failures
        [point] = result.points
        assert point.failure is not None
        assert math.isnan(point.throughput_gbps)
        assert "cubic" not in result.by_label()["180us"]
        rendered = result.render()
        assert "FAILED" in rendered
        assert "WatchdogExceeded" in rendered

    def test_clean_sweep_unchanged(self):
        result = day_length_sweep(
            day_us_values=(180,), variants=("cubic",),
            weeks=4, warmup_weeks=1, n_flows=2,
        )
        assert not result.failures
        assert result.points[0].throughput_gbps > 0
        assert "FAILED" not in result.render()


class TestRunnerCrashTelemetry:
    def test_crash_path_populates_profile(self, tmp_path):
        config = small_config(
            obs=ObsConfig(profile=True, metrics_dir=str(tmp_path / "m")),
            watchdog_max_events=500,
            bundle_dir=str(tmp_path / "bundles"),
        )
        result = run_experiment(config)
        assert not result.ok
        assert result.profile_report is not None
        assert result.events_per_second is not None
        assert result.artifacts


class TestCollectorMidRunAttach:
    def test_initial_sample_uses_sim_now(self):
        """A folder attached at 777 ns must not claim the queue held its
        length since time 0: the grid points before 777 read 0.0."""
        sim = Simulator()
        queue = DropTailQueue(4)
        queue.push(Packet("a", "b", 1), sim.now)
        queue.push(Packet("a", "b", 1), sim.now)
        sim.now = 777
        week = 400 * 10  # a grid point every 10 ns
        folder = WeekFolder(week, 1, 0, cumulative=False)
        watch_queue_length(sim, queue, folder)
        curve, _ = folder.result()
        assert curve == [0.0] * 78 + [2.0] * 322
        assert folder.max == 2


class TestSeriesTableResampling:
    def test_columns_resampled_onto_base_grid(self):
        data = FigureData(name="x", rdcn=RDCNConfig(), weeks_plotted=1)
        fine = (np.array([0, 1_000, 2_000, 3_000]), np.array([0.0, 1.0, 2.0, 3.0]))
        coarse = (np.array([0, 3_000]), np.array([0.0, 30.0]))
        text = render_series_table(
            data, {"a_fine": fine, "coarse": coarse}, "v", points=4
        )
        lines = text.splitlines()
        rows = [[float(cell) for cell in line.split()] for line in lines[2:]]
        # Base grid = the first (sorted) column's sampled times, in us;
        # the coarse column holds its previous value until its own next
        # sample instead of being padded by row index.
        assert [r[0] for r in rows] == [0.0, 1.0, 2.0, 3.0]
        assert [r[1] for r in rows] == [0.0, 1.0, 2.0, 3.0]   # a_fine (base)
        assert [r[2] for r in rows] == [0.0, 0.0, 0.0, 30.0]  # coarse, resampled

    def test_empty_base_column_falls_back(self):
        data = FigureData(name="x", rdcn=RDCNConfig(), weeks_plotted=1)
        empty = (np.array([]), np.array([]))
        series = (np.array([0, 100]), np.array([1.0, 2.0]))
        text = render_series_table(data, {"a": empty, "b": series}, "v", points=2)
        assert "2.00" in text  # grid came from the non-empty column


class TestBatchStats:
    def test_render(self):
        stats = BatchStats(total=4, executed=2, cache_hits=2, retries=1, failures=1)
        text = stats.render()
        assert "4 runs" in text and "2 cache hits" in text and "1 retries" in text
