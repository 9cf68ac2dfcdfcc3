"""Unified telemetry subsystem: tracepoints, metrics, exporters,
profiling, and the end-to-end determinism contract."""

import json
import pathlib
import re

import pytest

import repro
from repro.experiments.config import ExperimentConfig, WorkloadConfig
from repro.experiments.runner import run_experiment
from repro.obs import (
    DISABLED,
    NULL_TRACEPOINT,
    MemoryExporter,
    MetricsRegistry,
    ObsConfig,
    SimulatorProfiler,
    TRACEPOINT_CATALOG,
    Telemetry,
    TracepointRegistry,
    render_chrome_trace,
    render_jsonl,
)
from repro.rdcn.config import RDCNConfig
from repro.sim.simulator import Simulator

ROOT = pathlib.Path(__file__).resolve().parent.parent

class TestTracepoints:
    def test_disabled_until_subscribed(self):
        registry = TracepointRegistry()
        tp = registry.get("tcp:cwnd_update")
        assert not tp.enabled
        seen = []
        tp.subscribe(lambda t, n, f: seen.append((t, n, f)))
        assert tp.enabled
        tp.emit(5, conn="c1", cwnd=10)
        assert seen == [(5, "tcp:cwnd_update", {"conn": "c1", "cwnd": 10})]

    def test_identity_stable_across_get(self):
        registry = TracepointRegistry()
        first = registry.get("tcp:retransmit")
        registry.subscribe("tcp:*", lambda t, n, f: None)
        # Instrumented code that fetched the tracepoint earlier must see
        # the later subscription.
        assert first is registry.get("tcp:retransmit")
        assert first.enabled

    def test_glob_subscription(self):
        registry = TracepointRegistry()
        touched = registry.subscribe("tcp:*", lambda t, n, f: None)
        names = {tp.name for tp in touched}
        assert names == {"tcp:cwnd_update", "tcp:retransmit", "tcp:ca_state"}
        assert not registry.get("queue:drop").enabled

    def test_unknown_name_auto_registers(self):
        registry = TracepointRegistry()
        tp = registry.get("custom:probe")
        assert tp.name == "custom:probe"
        assert registry.get("custom:probe") is tp

    def test_every_tracepoint_in_src_is_catalogued(self):
        """A glob subscribes to catalogued names only, so a probe missing
        from the catalog is left out of every trace that asked for it.
        The other way round, a catalogued name nothing fetches is dead,
        and the docs/observability.md table lists every catalogued name
        with its catalogued fields."""
        names = set()
        for path in pathlib.Path(repro.__file__).parent.rglob("*.py"):
            names.update(re.findall(r'\b[Tt]racepoint\(\s*"([^"]+)"', path.read_text()))
        assert {"fastpath:span", "fastpath:virtual_loss", "notifier:deliver"} <= names
        assert names - set(TRACEPOINT_CATALOG) == set()
        assert set(TRACEPOINT_CATALOG) - names == set()
        doc = (ROOT / "docs" / "observability.md").read_text()
        table = doc.split("## Tracepoint catalog", 1)[1].split("\n\n", 2)[1]
        rows = dict(re.findall(r"^\| `([^`]+)` \| `([^`]*)` \|", table, re.M))
        assert rows == {
            name: ", ".join(fields) for name, (fields, _help) in TRACEPOINT_CATALOG.items()
        }

    def test_null_tracepoint_rejects_subscribers(self):
        assert not NULL_TRACEPOINT.enabled
        with pytest.raises(RuntimeError):
            NULL_TRACEPOINT.subscribe(lambda t, n, f: None)

    def test_telemetry_of_unattached_sim_is_disabled(self):
        sim = Simulator()
        telemetry = Telemetry.of(sim)
        assert telemetry is DISABLED
        assert telemetry.tracepoint("tcp:cwnd_update") is NULL_TRACEPOINT

    def test_telemetry_of_attached_sim(self):
        sim = Simulator()
        telemetry = Telemetry(ObsConfig()).attach(sim)
        assert Telemetry.of(sim) is telemetry


class TestMetrics:
    def test_counter_labels(self):
        registry = MetricsRegistry()
        counter = registry.counter("retx_total", labelnames=("conn",))
        counter.inc(conn="a")
        counter.inc(2, conn="a")
        counter.inc(conn="b")
        series = registry.snapshot()["retx_total"]["series"]
        assert series == [{"labels": ["a"], "value": 3}, {"labels": ["b"], "value": 1}]
        with pytest.raises(ValueError):
            counter.inc(conn="a", extra=1)
        with pytest.raises(ValueError):
            counter.inc(-1, conn="a")

    def test_snapshot_is_json_ready(self):
        registry = MetricsRegistry()
        registry.counter("c", labelnames=("k",)).inc(k="v")
        registry.sketch("h").observe(7)
        text = json.dumps(registry.snapshot(), sort_keys=True)
        assert "\"c\"" in text and "\"h\"" in text


class TestExporters:
    def _sample_events(self):
        buffer = MemoryExporter()
        buffer(0, "rdcn:day_night", {"phase": "day", "tdn": 1, "day_index": 0})
        buffer(10, "tcp:cwnd_update", {
            "conn": "c1", "tdn": 1, "cwnd": 12.0,
            "ssthresh": float("inf"), "ca_state": "open", "reason": "ack",
        })
        buffer(20, "queue:occupancy", {"queue": "voq", "length": 3})
        buffer(30, "rdcn:day_night", {"phase": "night", "tdn": None, "day_index": 0})
        buffer(40, "tcp:retransmit", {
            "conn": "c1", "tdn": 1, "seq": 99, "retx_count": 1,
            "probe": False, "spurious": False,
        })
        return buffer.events

    def test_jsonl_round_trips_and_sanitizes_infinity(self):
        text = render_jsonl(self._sample_events())
        lines = text.splitlines()
        assert len(lines) == 5
        records = [json.loads(line) for line in lines]  # strict JSON
        assert records[0]["tp"] == "rdcn:day_night"
        assert records[1]["ssthresh"] is None  # inf is not valid JSON
        assert records[2] == {"tp": "queue:occupancy", "ts": 20, "queue": "voq", "length": 3}

    def test_chrome_trace_is_valid_and_complete(self):
        doc = render_chrome_trace(self._sample_events())
        text = json.dumps(doc)
        parsed = json.loads(text)  # round-trip through strict JSON
        events = parsed["traceEvents"]
        assert events, "trace must not be empty"
        for event in events:
            assert "ph" in event and "ts" in event and "pid" in event
        phases = {event["ph"] for event in events}
        # day slice opens and closes, counters and instants present,
        # metadata names the tracks.
        assert {"B", "E", "C", "i", "M"} <= phases

    def test_chrome_trace_day_slices_balance(self):
        doc = render_chrome_trace(self._sample_events())
        begins = [e for e in doc["traceEvents"] if e["ph"] == "B"]
        ends = [e for e in doc["traceEvents"] if e["ph"] == "E"]
        assert len(begins) == len(ends) == 1

    def test_memory_exporter_families(self):
        events = self._sample_events()
        buffer = MemoryExporter()
        for time_ns, name, fields in events:
            buffer(time_ns, name, fields)
        assert sorted({event[1] for event in buffer.events}) == sorted(
            {"rdcn:day_night", "tcp:cwnd_update", "queue:occupancy", "tcp:retransmit"}
        )
        assert [event[1] for event in buffer.events].count("rdcn:day_night") == 2


class TestProfiler:
    def test_attribution_by_qualname(self):
        sim = Simulator()
        profiler = SimulatorProfiler()
        sim.profiler = profiler

        def tick():
            pass

        for delay in (10, 20, 30):
            sim.schedule(delay, tick)
        sim.run()
        assert profiler.events == 3
        rows = profiler.callback_stats()
        assert len(rows) == 1
        assert rows[0]["count"] == 3
        assert "tick" in rows[0]["callback"]
        assert profiler.events_per_second > 0
        report = profiler.report()
        assert "3 events" in report and "tick" in report

    def test_unprofiled_run_has_no_profiler(self):
        sim = Simulator()
        sim.schedule(1, lambda: None)
        sim.run()
        assert sim.profiler is None


class TestEndToEnd:
    def _run(self, tmp_path, label):
        obs = ObsConfig(
            trace_dir=str(tmp_path / label), metrics_dir=str(tmp_path / label),
            profile=True, label="run",
        )
        config = ExperimentConfig(
            variant="tdtcp",
            rdcn=RDCNConfig(),
            n_flows=2,
            weeks=3,
            warmup_weeks=1,
            seed=7,
            obs=obs,
        )
        return run_experiment(config)

    def test_identical_seeded_runs_are_byte_identical(self, tmp_path):
        first = self._run(tmp_path, "a")
        second = self._run(tmp_path, "b")
        jsonl_a = (tmp_path / "a" / "run.jsonl").read_bytes()
        jsonl_b = (tmp_path / "b" / "run.jsonl").read_bytes()
        assert jsonl_a == jsonl_b
        assert jsonl_a  # not trivially empty
        trace_a = (tmp_path / "a" / "run.trace.json").read_bytes()
        trace_b = (tmp_path / "b" / "run.trace.json").read_bytes()
        assert trace_a == trace_b
        assert first.artifacts and second.artifacts

    def test_run_emits_core_families_and_profile(self, tmp_path):
        result = self._run(tmp_path, "c")
        families = set()
        with open(tmp_path / "c" / "run.jsonl") as handle:
            for line in handle:
                families.add(json.loads(line)["tp"])
        assert {
            "tcp:cwnd_update",
            "tdtcp:tdn_switch",
            "rdcn:day_night",
            "queue:occupancy",
            "notifier:deliver",
        } <= families
        assert result.profile_report is not None
        assert "events/s" in result.profile_report
        assert result.events_per_second and result.events_per_second > 0
        metrics = json.loads((tmp_path / "c" / "run_metrics.json").read_text())
        assert metrics["tdtcp_switches_total"]["kind"] == "counter"
        occupancy = metrics["queue_occupancy_dist"]
        assert occupancy["kind"] == "sketch"
        assert "p99" in occupancy["series"][0]["value"]["percentiles"]

    def test_a_tiered_run_traces_its_fluid_spans(self, tmp_path):
        obs = ObsConfig(
            trace_dir=str(tmp_path), tracepoints="fastpath:*", label="run",
            chrome_trace=False, csv=False,
        )
        config = ExperimentConfig(
            variant="cubic", weeks=12, warmup_weeks=2, seed=1, fidelity="tiered",
            collect_voq=False, collect_sequence=False, obs=obs,
            workload=WorkloadConfig(kind="empirical", cdf="data-mining", load=0.6),
        )
        result = run_experiment(config)
        assert result.failure is None
        records = [
            json.loads(line) for line in (tmp_path / "run.jsonl").read_text().splitlines()
        ]
        spans = [r for r in records if r["tp"] == "fastpath:span"]
        phases = [r["phase"] for r in spans]
        assert phases.count("enter") == result.fidelity_report["fluid_spans"] > 0
        assert phases.count("exit") == sum(result.fidelity_report["exit_reasons"].values())
        losses = [r for r in records if r["tp"] == "fastpath:virtual_loss"]
        assert len(losses) == result.fidelity_report["virtual_losses"] > 0
        for record in records:
            catalogued = TRACEPOINT_CATALOG[record["tp"]][0]
            assert set(record) - {"tp", "ts"} <= set(catalogued)

    def test_disabled_obs_leaves_simulator_clean(self):
        config = ExperimentConfig(
            variant="tdtcp", rdcn=RDCNConfig(), n_flows=2, weeks=3,
            warmup_weeks=1, seed=7,
        )
        result = run_experiment(config)
        assert result.artifacts == []
        assert result.profile_report is None
