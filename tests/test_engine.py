"""Fabric-wide workload engine: traffic matrices, trace replay,
streaming completion accounting, seeded determinism (including under
the process pool), load calibration, and the WorkloadConfig wiring."""

import gc
import json
import weakref

import pytest

from repro.apps.engine import (
    CompletionStats,
    TRACE_COLUMNS,
    TraceFlow,
    WALL_SUMMARY_FIELDS,
    WorkloadEngine,
    average_fabric_rate_bps,
    load_trace,
    pair_weights,
    parse_host_address,
    size_bin,
    write_trace,
)
from repro.apps.tracegen import DATA_MINING_CDF, WEB_SEARCH_CDF, EmpiricalFlowSizes, check_cdf
from repro.experiments.config import (
    CONFIG_SCHEMA_VERSION,
    ExperimentConfig,
    WorkloadConfig,
)
from repro.experiments.executor import ExperimentExecutor
from repro.experiments.runner import ExperimentResult, run_experiment
from repro.experiments.sweeps import load_sweep
from repro.experiments.variants import VARIANTS, SinglePathVariant, engine_variants
from repro.obs.campaign import CampaignLog, campaign_summary
from repro.obs.outcome import strip_wall
from repro.obs.telemetry import ObsConfig
from repro.rdcn.config import RDCNConfig
from repro.rdcn.opera import OperaConfig
from repro.rdcn.topology import build_two_rack_testbed
from repro.sim.rng import SeededRandom
from repro.sim.simulator import Simulator
from repro.tcp.connection import TCPConnection

from tests.helpers import tdtcp_engine

# A degenerate single-size CDF keeps engine tests fast (10 KB flows
# drain in ~100 us) and makes the offered-load arithmetic exact.
FIXED_10KB = ((0.0, 10_000), (1.0, 10_000))


def engine_config(**overrides):
    workload_kwargs = dict(cdf="custom", custom_cdf=FIXED_10KB, load=0.3)
    workload_kwargs.update(overrides.pop("workload", {}))
    workload = WorkloadConfig(**workload_kwargs)
    kwargs = dict(
        variant="cubic", weeks=8, warmup_weeks=0, seed=5,
        collect_voq=False, collect_sequence=False, workload=workload,
    )
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


class TestPairWeights:
    def test_permutation_is_a_ring(self):
        weighted = pair_weights(4, "permutation", SeededRandom(1))
        assert [pair for pair, _w in weighted] == [(0, 1), (1, 2), (2, 3), (3, 0)]
        assert all(w == pytest.approx(0.25) for _p, w in weighted)

    def test_all_to_all_uniform_over_ordered_pairs(self):
        weighted = pair_weights(3, "all-to-all", SeededRandom(1))
        assert len(weighted) == 6  # 3 * 2 ordered pairs, no self-pairs
        assert all(src != dst for (src, dst), _w in weighted)
        assert sum(w for _p, w in weighted) == pytest.approx(1.0)
        assert len({w for _p, w in weighted}) == 1

    def test_hotspot_concentrates_mass_on_one_pair(self):
        weighted = pair_weights(4, "hotspot", SeededRandom(7), hotspot_fraction=0.5)
        weights = sorted(w for _p, w in weighted)
        assert sum(weights) == pytest.approx(1.0)
        background = (1.0 - 0.5) / 12
        assert weights[-1] == pytest.approx(0.5 + background)
        assert all(w == pytest.approx(background) for w in weights[:-1])

    def test_hotspot_victim_is_seeded(self):
        a = pair_weights(6, "hotspot", SeededRandom(3))
        b = pair_weights(6, "hotspot", SeededRandom(3))
        assert a == b

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            pair_weights(1, "permutation", SeededRandom(1))
        with pytest.raises(ValueError):
            pair_weights(4, "gravity", SeededRandom(1))
        with pytest.raises(ValueError):
            pair_weights(4, "hotspot", SeededRandom(1), hotspot_fraction=1.5)


class TestFabricRate:
    def test_opera_rate_is_duty_cycled(self):
        config = OperaConfig()
        expected = config.link_rate_bps * config.slot_ns / (
            config.slot_ns + config.night_ns
        )
        assert average_fabric_rate_bps(config) == pytest.approx(expected)

    def test_rdcn_rate_is_schedule_weighted(self):
        config = ExperimentConfig(variant="cubic").rdcn
        active = sum(
            config.day_ns * config.tdn_rate_bps(t) for t in config.schedule_pattern
        )
        assert average_fabric_rate_bps(config) == pytest.approx(active / config.week_ns)

    def test_unknown_config_type_rejected(self):
        with pytest.raises(TypeError):
            average_fabric_rate_bps(object())


class TestSizeBins:
    def test_bin_edges(self):
        assert size_bin(1) == "small"
        assert size_bin(100_000) == "small"
        assert size_bin(100_001) == "medium"
        assert size_bin(10_000_000) == "medium"
        assert size_bin(10_000_001) == "large"


class TestTraceIO:
    def flows(self):
        return [
            TraceFlow(start_ns=0, src="r0h0", dst="r1h1", size_bytes=20_000),
            TraceFlow(start_ns=500, src="r1h0", dst="r0h0", size_bytes=1_000),
            TraceFlow(start_ns=500, src="r0h1", dst="r1h0", size_bytes=99),
        ]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace(path, self.flows())
        loaded, skipped = load_trace(path)
        assert skipped == 0
        assert loaded == sorted(
            self.flows(), key=lambda f: (f.start_ns, f.src, f.dst, f.size_bytes)
        )

    def test_headerless_round_trip(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace(path, self.flows())
        path.write_text("".join(path.read_text().splitlines(keepends=True)[1:]))
        assert path.read_text().splitlines()[0] != ",".join(TRACE_COLUMNS)
        loaded, _skipped = load_trace(path)
        assert len(loaded) == 3

    def test_strict_mode_raises_with_line_number(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("start_ns,src,dst,size_bytes\n0,r0h0,r1h0,5000\nnope\n")
        with pytest.raises(ValueError, match="line 3"):
            load_trace(path, strict=True)

    def test_lenient_mode_counts_skipped_rows(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(
            "0,r0h0,r1h0,5000\n"
            "bad,row\n"               # wrong column count
            "-5,r0h0,r1h0,100\n"      # negative start
            "10,r0h0,r0h0,100\n"      # src == dst
            "10,host3,r1h0,100\n"     # malformed address
            "20,r1h0,r0h1,7000\n"
        )
        loaded, skipped = load_trace(path, strict=False)
        assert [f.size_bytes for f in loaded] == [5000, 7000]
        assert skipped == 4

    def test_parse_host_address(self):
        assert parse_host_address("r3h12") == (3, 12)
        for bad in ("h3r1", "r1", "r1h", "r-1h0", "server9"):
            with pytest.raises(ValueError):
                parse_host_address(bad)


class TestCompletionStats:
    def test_truncation_and_completion_rate(self):
        stats = CompletionStats(capacity_bps=1e9)
        for _ in range(5):
            stats.on_start(1_000)
        stats.on_complete(0, 1_000, 50_000)
        stats.on_complete(0, 1_000, 70_000)
        stats.finalize()
        assert stats.started == 5
        assert stats.completed == 2
        assert stats.truncated_flows == 3
        assert stats.completion_rate() == pytest.approx(0.4)

    def test_slowdown_is_fct_over_ideal(self):
        stats = CompletionStats(capacity_bps=1e9)
        stats.on_start(125_000)  # ideal: 1 ms at 1 Gbps
        slowdown = stats.on_complete(0, 125_000, 3_000_000)
        assert slowdown == pytest.approx(3.0)
        assert stats.slowdown_sketch.quantile(0.5) == pytest.approx(3.0, rel=0.05)

    def test_reservoir_is_capped_and_unbiased_enough(self):
        cap = 64
        stats = CompletionStats(
            capacity_bps=1e9, record_cap=cap, rng=SeededRandom(9).fork("reservoir")
        )
        n = 5_000
        for i in range(n):
            stats.on_start(1_000)
            stats.on_complete(i, 1_000, i + 10)
        assert len(stats.records) == cap
        # Unbiased sampling: the kept start times should span the whole
        # stream, not cluster at either end.
        starts = sorted(r.start_ns for r in stats.records)
        assert starts[0] < n * 0.25
        assert starts[-1] > n * 0.75
        mean_start = sum(starts) / cap
        assert n * 0.3 < mean_start < n * 0.7

    def test_record_cap_needs_rng(self):
        with pytest.raises(ValueError):
            CompletionStats(capacity_bps=1e9, record_cap=4)
        with pytest.raises(ValueError):
            CompletionStats(capacity_bps=1e9, record_cap=-1)


class TestArrivalArithmetic:
    """What the constructor works out; nothing here runs a simulation."""

    def engine(self, **kwargs):
        testbed = build_two_rack_testbed(RDCNConfig(n_hosts_per_rack=1))
        return WorkloadEngine(testbed, SeededRandom(3), **kwargs)

    def test_invalid_load(self):
        for load in (1.5, 0.0, -0.1):
            with pytest.raises(ValueError):
                self.engine(load=load)

    def test_full_load_accepted(self):
        # load == 1.0 (line rate) is a legitimate operating point: the
        # upper bound is inclusive.
        assert self.engine(load=1.0).mean_interarrival_ns >= 1

    def test_interarrival_rounds_to_nearest(self):
        # Truncation would bias every gap short, inflating achieved
        # load. A fixed 1500-byte CDF at load 1.0 on two racks of
        # 20.57 Gb/s time-averaged fabric capacity each: the exact gap
        # is 291.67 ns -> 292, not 291.
        engine = self.engine(cdf=((0.0, 1_500), (1.0, 1_500)), load=1.0)
        assert engine.capacity_bps == pytest.approx(20.571e9, rel=1e-4)
        assert engine.mean_interarrival_ns == 292


class TestEngineRuns:
    def run_once(self, **overrides):
        result = run_experiment(engine_config(**overrides))
        assert result.failure is None
        return result

    def test_empirical_run_produces_summary(self):
        result = self.run_once(workload=dict(max_flows=120))
        summary = result.workload_summary
        assert summary["started"] == 120
        assert summary["completed"] > 100
        assert summary["truncated_flows"] == summary["started"] - summary["completed"]
        assert result.truncated_flows == summary["truncated_flows"]
        assert summary["slowdown"]["p50"] is not None
        assert summary["fct_us"]["p50"] is not None
        assert set(summary["slowdown_by_bin"]) == {"small", "medium", "large"}
        assert "fct_us" in result.sketches and "slowdown" in result.sketches

    def test_seeded_determinism(self):
        first = self.run_once(workload=dict(max_flows=100, matrix="all-to-all"))
        second = self.run_once(workload=dict(max_flows=100, matrix="all-to-all"))
        # Wall-clock fields are host-dependent by design; everything
        # else must be equal.
        assert strip_wall(first.workload_summary) == strip_wall(second.workload_summary)

    def test_summary_reports_wall_clock_flow_rate(self):
        result = self.run_once(workload=dict(max_flows=50))
        summary = result.workload_summary
        for key in WALL_SUMMARY_FIELDS:
            assert key in summary
        assert summary["engine_wall_s"] > 0
        assert summary["engine_flows_per_sec"] == pytest.approx(
            summary["completed"] / summary["engine_wall_s"]
        )
        assert not set(strip_wall(summary)) & set(WALL_SUMMARY_FIELDS)

    def test_reservoir_never_perturbs_traffic(self):
        # Enabling per-flow records must not change a single packet:
        # the reservoir draws from its own RNG substream.
        def run(record_cap):
            testbed, engine, period_ns = tdtcp_engine(
                "two-rack", max_flows=100, record_cap=record_cap
            )
            testbed.sim.run(until=4 * period_ns)
            stats = engine.finish()
            return stats, strip_wall(stats.summary(4 * period_ns, engine.n_racks, engine.load))

        (_, bare), (recorded_stats, recorded) = run(0), run(32)
        assert bare == recorded
        assert len(recorded_stats.records) == 32

    def test_matrices_and_variants_run(self):
        for matrix in ("permutation", "all-to-all", "hotspot"):
            result = self.run_once(
                variant="tdtcp", workload=dict(max_flows=40, matrix=matrix)
            )
            assert result.workload_summary["completed"] > 0

    def test_trace_replay_round_trip(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace(path, [
            TraceFlow(start_ns=i * 50_000, src="r0h%d" % (i % 2),
                      dst="r1h%d" % (i % 2), size_bytes=8_000 + i)
            for i in range(20)
        ])
        result = self.run_once(workload=dict(kind="trace", trace_path=str(path)))
        summary = result.workload_summary
        assert summary["started"] == 20
        assert summary["completed"] == 20
        assert summary["trace_rows_skipped"] == 0
        assert summary["bytes_offered"] == sum(8_000 + i for i in range(20))
        # A trace has no requested load (the config's 0.3 is unused):
        # what it offered is its bytes over the achieved-load
        # denominator, so with every row delivered the two are equal.
        assert summary["offered_load"] == pytest.approx(summary["achieved_load"])

    def test_strict_trace_failure_is_a_run_failure_not_a_crash(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("0,r0h0,r1h0,9000\njunk line\n")
        result = run_experiment(
            engine_config(workload=dict(kind="trace", trace_path=str(path)))
        )
        assert result.failure is not None
        assert result.failure.error_type == "ValueError"
        assert "line 2" in result.failure.error_message

    def test_trace_changed_since_the_config_fails_the_run(self, tmp_path):
        # The config names its trace by content hash (the cache key);
        # bytes written after the config was made must not replay
        # under the old name.
        path = tmp_path / "trace.csv"
        write_trace(path, [TraceFlow(0, "r0h0", "r1h0", 9_000)])
        config = engine_config(workload=dict(kind="trace", trace_path=str(path)))
        write_trace(path, [TraceFlow(0, "r0h0", "r1h0", 12_000)])
        result = run_experiment(config)
        assert result.failure is not None
        assert result.failure.error_type == "ValueError"
        assert config.workload.trace_sha256 in result.failure.error_message

    def test_lenient_trace_surfaces_skipped_rows(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("0,r0h0,r1h0,9000\njunk line\n100000,r1h1,r0h1,9000\n")
        result = self.run_once(
            workload=dict(kind="trace", trace_path=str(path), strict_trace=False)
        )
        assert result.workload_summary["trace_rows_skipped"] == 1
        assert result.workload_summary["started"] == 2

    def test_achieved_load_calibration(self):
        # Acceptance bar: achieved within 5% of requested. The fixed
        # 10 KB CDF keeps the size distribution noise out of the check.
        result = self.run_once(weeks=20, workload=dict(load=0.3))
        summary = result.workload_summary
        assert summary["started"] > 1_000
        achieved = summary["achieved_load"]
        assert abs(achieved - 0.3) / 0.3 < 0.05

    def test_result_round_trip_preserves_workload_summary(self):
        result = self.run_once(workload=dict(max_flows=30))
        restored = ExperimentResult.from_dict(
            json.loads(json.dumps(result.to_dict()))
        )
        assert restored.workload_summary == result.workload_summary
        assert restored.truncated_flows == result.truncated_flows


def _uncollected_after_each_run(monkeypatch) -> list:
    """Wrap ``Simulator.run``: collect before it starts, then record
    how many unreachable objects a collection finds when it returns
    (the garbage the run loop left for the collector it pauses)."""
    found = []
    run = Simulator.run

    def counted(sim, *args, **kwargs):
        gc.collect()
        processed = run(sim, *args, **kwargs)
        found.append(gc.collect())
        return processed

    monkeypatch.setattr(Simulator, "run", counted)
    return found


class TestTeardown:
    """A released flow frees itself: with the cyclic collector off, every
    connection the engine released is gone by the end of the run, so no
    finished flow waits in a reference cycle for the collector. More
    broadly, a run allocates no reference cycles, which is what lets
    ``Simulator.run`` pause the collector: a collection when a run loop
    returns finds nothing."""

    @pytest.mark.parametrize("variant", engine_variants())
    def test_released_connections_need_no_collector(self, variant, monkeypatch):
        released = []
        release = TCPConnection.release

        def tracked(conn):
            release(conn)
            released.append(weakref.ref(conn))

        monkeypatch.setattr(TCPConnection, "release", tracked)
        found = _uncollected_after_each_run(monkeypatch)
        collecting = gc.isenabled()
        gc.disable()
        try:
            result = run_experiment(
                engine_config(variant=variant, weeks=2, workload=dict(max_flows=30))
            )
            alive = [ref() for ref in released if ref() is not None]
        finally:
            if collecting:
                gc.enable()
        assert result.failure is None
        assert len(released) >= 20  # both ends of at least ten flows
        assert [conn.name for conn in alive] == []
        assert found and set(found) == {0}

    @pytest.mark.parametrize("case", ["mptcp bulk", "fault plan", "obs", "audit fail"])
    def test_a_run_leaves_no_cycle_for_the_collector(self, case, monkeypatch, tmp_path):
        if case == "mptcp bulk":
            config = ExperimentConfig(variant="mptcp", weeks=3, warmup_weeks=1, n_flows=2)
        elif case == "fault plan":
            config = engine_config(
                variant="tdtcp", weeks=4, workload=dict(max_flows=30),
                fault_plan_path="examples/fault_plans/lossy_fabric.json",
            )
        elif case == "obs":
            config = engine_config(
                variant="tdtcp", weeks=2, workload=dict(max_flows=30),
                obs=ObsConfig(trace_dir=str(tmp_path), metrics_dir=str(tmp_path), profile=True),
            )
        else:
            config = engine_config(
                variant="tdtcp", weeks=2, workload=dict(max_flows=30), audit="fail",
                bundle_dir=str(tmp_path),
            )
        found = _uncollected_after_each_run(monkeypatch)
        collecting = gc.isenabled()
        gc.disable()
        try:
            result = run_experiment(config)
        finally:
            if collecting:
                gc.enable()
        assert result.failure is None
        assert found and set(found) == {0}


class TestTraceReplay:
    def replay(self, trace):
        testbed = build_two_rack_testbed(RDCNConfig(n_hosts_per_rack=1))
        engine = WorkloadEngine(testbed, SeededRandom(3), trace=trace)
        engine.start()
        testbed.start()
        return testbed.sim, engine

    def test_stop_halts_launches(self):
        # A row is booked when it launches: one still scheduled at the
        # horizon is neither started nor truncated.
        sim, engine = self.replay([
            TraceFlow(10_000, "r0h0", "r1h0", 10_000),
            TraceFlow(1_000_000_000, "r0h0", "r1h0", 10_000),
        ])
        sim.run(until=5_000_000)
        stats = engine.finish()
        assert (stats.started, stats.truncated_flows, stats.completion_rate()) == (1, 0, 1.0)

        # Once stopped, no scheduled row launches.
        sim, engine = self.replay([
            TraceFlow(50_000 + i * 100_000, "r0h0", "r1h0", 10_000) for i in range(19)
        ])
        sim.run(until=1_000_000)
        engine.stop()
        assert engine.stats.started == 10
        sim.run(until=10_000_000)
        assert (engine.stats.started, engine.stats.completed) == (10, 10)


class TestEngineOnOpera:
    def test_engine_drives_n_rack_opera_fabric(self):
        from repro.rdcn.opera import build_opera_testbed

        testbed = build_opera_testbed(OperaConfig(n_racks=4, n_hosts_per_rack=2))
        engine = WorkloadEngine(
            testbed, SeededRandom(11), load=0.2, cdf=FIXED_10KB,
            matrix="all-to-all", max_flows=40,
        )
        engine.start()
        testbed.start()
        testbed.sim.run(until=5_000_000)
        stats = engine.finish()
        assert stats.started == 40
        assert stats.completed > 20
        assert engine.n_racks == 4


class TestExecutorDeterminism:
    def summaries(self, jobs, tmp_path, tag):
        configs = [
            engine_config(seed=seed, workload=dict(max_flows=40))
            for seed in (61, 62)
        ]
        campaign = CampaignLog(tmp_path / f"{tag}.jsonl")
        executor = ExperimentExecutor(jobs=jobs, campaign=campaign)
        results = executor.run_batch(configs, labels=[f"s{c.seed}" for c in configs])
        campaign.close()
        assert all(r.failure is None for r in results)
        return json.dumps(campaign_summary(campaign.records), sort_keys=True)

    def test_campaign_summary_identical_jobs_1_vs_2(self, tmp_path):
        sequential = self.summaries(1, tmp_path, "seq")
        pooled = self.summaries(2, tmp_path, "pool")
        assert sequential == pooled


class TestWorkloadConfig:
    def test_schema_version_bumped_for_workload(self):
        assert CONFIG_SCHEMA_VERSION >= 3

    def test_round_trip(self):
        config = engine_config(workload=dict(matrix="hotspot", max_flows=16))
        restored = ExperimentConfig.from_dict(json.loads(json.dumps(config.to_dict())))
        assert restored == config
        assert restored.cache_key() == config.cache_key()

    def test_cache_key_tracks_workload_semantics(self):
        base = engine_config()
        assert engine_config(workload=dict(load=0.5)).cache_key() != base.cache_key()
        assert engine_config(workload=dict(matrix="all-to-all")).cache_key() != base.cache_key()
        assert engine_config().cache_key() == base.cache_key()

    def test_trace_path_is_non_semantic_content_hash_is(self, tmp_path):
        a_path = tmp_path / "a.csv"
        b_path = tmp_path / "b.csv"
        write_trace(a_path, [TraceFlow(0, "r0h0", "r1h0", 5_000)])
        write_trace(b_path, [TraceFlow(0, "r0h0", "r1h0", 5_000)])
        different = tmp_path / "c.csv"
        write_trace(different, [TraceFlow(0, "r0h0", "r1h0", 6_000)])
        key = lambda p: engine_config(
            workload=dict(kind="trace", trace_path=str(p))
        ).cache_key()
        assert key(a_path) == key(b_path)  # same bytes, different path
        assert key(a_path) != key(different)

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadConfig(load=0.0)
        with pytest.raises(ValueError):
            WorkloadConfig(load=1.2)
        with pytest.raises(ValueError):
            WorkloadConfig(matrix="gravity")
        with pytest.raises(ValueError):
            WorkloadConfig(kind="trace")  # no trace_path
        with pytest.raises(ValueError):
            WorkloadConfig(cdf="custom")  # no points
        WorkloadConfig(load=1.0)  # the boundary is legal now

    def test_mptcp_rejected_with_workload(self):
        with pytest.raises(ValueError, match="mptcp"):
            engine_config(variant="mptcp")

    @pytest.mark.parametrize("cdf, message", [
        (((0.5, 1000), (0.2, 2000)), "span probabilities"),
        (((0.0, 1000), (0.7, 3000), (0.5, 2000), (1.0, 4000)), "probabilities must be non-decreasing"),
        (((0.0, 5000), (0.5, 1000), (1.0, 2000)), "sizes must be non-decreasing"),
        (((0.0, 0), (1.0, 2000)), "sizes must be positive"),
    ])
    def test_a_custom_cdf_is_checked_when_the_config_is_built(self, cdf, message):
        # Before: only the engine's set-up noticed (or, for decreasing
        # sizes, nothing did and the run went ahead).
        with pytest.raises(ValueError, match=message):
            WorkloadConfig(cdf="custom", custom_cdf=cdf)
        with pytest.raises(ValueError, match=message):
            EmpiricalFlowSizes(cdf, SeededRandom(1))

    def test_every_shipped_cdf_passes_the_check(self):
        for cdf in (WEB_SEARCH_CDF, DATA_MINING_CDF, FIXED_10KB):
            check_cdf(cdf)

    @pytest.mark.parametrize("alpha", [-1.0, 0.5, 1.0])
    def test_a_retcp_alpha_of_at_most_one_is_refused_when_the_config_is_built(self, alpha):
        with pytest.raises(ValueError, match="retcp_alpha must exceed 1"):
            ExperimentConfig(variant="retcp", retcp_alpha=alpha)


class TestLoadSweep:
    def test_sweep_renders_and_reports_points(self):
        result = load_sweep(
            loads=(0.2, 0.4), variants=("cubic",),
            cdf="custom", custom_cdf=FIXED_10KB,
            weeks=8, warmup_weeks=0, seed=5, max_flows=60,
        )
        assert not result.failures
        assert len(result.points) == 2
        for point in result.points:
            assert point.started == 60
            assert point.completed > 40
            assert point.percentile("slowdown", "p50") is not None
            assert "fct_us" in point.sketches
        rendered = result.render()
        assert "FAILED" not in rendered
        assert "0.20" in rendered and "0.40" in rendered

    def test_sweep_surfaces_failures_without_faking_numbers(self):
        # An impossible watchdog bound makes every run fail fast.
        result = load_sweep(
            loads=(0.2,), variants=("cubic",),
            cdf="custom", custom_cdf=FIXED_10KB,
            weeks=8, warmup_weeks=0, seed=5, max_flows=10,
            watchdog_max_events=1,
        )
        assert result.failures
        point = result.points[0]
        assert point.failure is not None
        assert point.summary is None
        assert "FAILED" in result.render()

    def test_a_registered_single_path_variant_is_an_engine_variant(self, monkeypatch):
        # The engine's variants are derived from the registry: whatever
        # opens one plain connection per flow (docs/usage.md's recipe).
        monkeypatch.setitem(
            VARIANTS, "aiad", SinglePathVariant("aiad", "reno", "custom single-path"))
        assert engine_variants() == (
            "cubic", "dctcp", "reno", "retcp", "retcpdyn", "tdtcp", "tdtcp-unopt", "aiad")
        result = load_sweep(
            loads=(0.2,), variants=("aiad",),
            cdf="custom", custom_cdf=FIXED_10KB,
            weeks=4, warmup_weeks=0, seed=5, max_flows=3,
        )
        assert not result.failures
        assert result.points[0].started == 3
