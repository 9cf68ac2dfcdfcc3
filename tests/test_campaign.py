"""Campaign observability: the JSONL event bus, schema validation,
executor lifecycle events, worker heartbeats (inline and pooled),
deterministic summaries, and the markdown dashboard."""

import importlib.util
import json
import multiprocessing.context
import pathlib

import pytest

from repro.experiments import executor as executor_mod
from repro.experiments.config import ExperimentConfig
from repro.experiments.executor import ExperimentExecutor
from repro.experiments.report import _merge_sketches, render_campaign
from repro.experiments.runner import ExperimentResult, RunFailure
from repro.obs.campaign import (
    CAMPAIGN_SCHEMA_VERSION,
    CampaignLog,
    campaign_summary,
    fold_campaign,
    read_campaign,
    validate_record,
    validate_records,
)
from repro.obs.sketch import QuantileSketch

from tests.helpers import heartbeat_every

ROOT = pathlib.Path(__file__).resolve().parent.parent


def small_config(**overrides):
    kwargs = dict(variant="cubic", weeks=4, warmup_weeks=1, n_flows=2, seed=1)
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


def failing_payload(payload: dict) -> dict:
    config = ExperimentConfig.from_dict(payload)
    result = ExperimentResult(config=config, duration_ns=config.duration_ns)
    result.failure = RunFailure("Boom", "synthetic crash", config.seed, None, None)
    return result.to_dict()


def run_campaign(configs, path=None, jobs=1, **executor_kwargs):
    campaign = CampaignLog(path)
    executor = ExperimentExecutor(jobs=jobs, campaign=campaign, **executor_kwargs)
    with heartbeat_every(5_000):
        results = executor.run_batch(configs)
    campaign.close()
    return campaign, results


def events_of(records, kind):
    return [r for r in records if r["event"] == kind]


class TestCampaignLog:
    def test_jsonl_lines_are_key_sorted_with_monotonic_seq(self, tmp_path):
        path = tmp_path / "c.jsonl"
        with CampaignLog(path) as log:
            log.emit("campaign_start", schema=CAMPAIGN_SCHEMA_VERSION, total=1, jobs=1)
            log.emit("queued", run="a", index=0, total=1, variant="cubic", seed=1)
            log.emit("started", run="a", attempt=1)
            log.emit("finished", run="a", outcome="ok")
        lines = path.read_text().splitlines()
        assert len(lines) == 4
        for line in lines:
            assert line == json.dumps(json.loads(line), sort_keys=True)
        records = read_campaign(path)
        assert [r["seq"] for r in records] == [0, 1, 2, 3]
        assert validate_records(records) == []

    def test_unknown_event_raises(self):
        with pytest.raises(ValueError):
            CampaignLog().emit("exploded")

    def test_in_memory_bus_drives_subscribers(self):
        log = CampaignLog()  # path=None: no file, subscribers still fire
        seen = []
        log.subscribe(seen.append)
        record = log.emit("campaign_start", schema=1, total=0, jobs=1)
        assert log.path is None
        assert seen == [record] == log.records
        assert record["wall_ms"] >= 0.0


class TestValidation:
    def test_unknown_event_type(self):
        assert validate_record({"event": "nope", "seq": 0, "wall_ms": 0.0})

    def test_missing_and_mistyped_fields(self):
        errors = validate_record({"event": "heartbeat", "seq": 0, "wall_ms": 0.0,
                                  "run": "a", "sim_now": "soon", "events": 1,
                                  "events_per_s": 1.0})
        assert any("pending_events" in e and "missing" in e for e in errors)
        assert any("sim_now" in e and "type" in e for e in errors)

    def test_booleans_are_not_numbers(self):
        # JSON true/false decode to bool, and bool subclasses int.
        queued = {"event": "queued", "seq": True, "index": True, "total": False,
                  "wall_ms": False, "run": "a"}
        errors = validate_record(queued)
        for name in ("seq", "wall_ms", "'index'", "'total'"):
            assert any(name in e for e in errors), (name, errors)
        start = {"event": "campaign_start", "seq": 0, "wall_ms": 0.0,
                 "schema": True, "total": 1, "jobs": 1}
        assert any("'schema'" in e and "bool" in e for e in validate_record(start))
        assert validate_record(dict(start, schema=2)) == []

    def test_cross_record_invariants(self):
        good = {"event": "started", "seq": 5, "wall_ms": 1.0, "run": "a", "attempt": 1}
        errors = validate_records([good, dict(good, seq=5)])
        assert any("strictly greater" in e for e in errors)
        assert any("campaign_start" in e for e in errors)
        # A line that parses as JSON but is not an object is reported
        # like any other bad record, wherever it sits in the stream.
        for records in ([[1, 2], good], [good, None]):
            errors = validate_records(records)
            assert any("not an object" in e for e in errors)
            assert any("campaign_start" in e for e in errors)


class TestExecutorCampaign:
    @pytest.fixture(scope="class")
    def campaign_records(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("campaign") / "log.jsonl"
        configs = [
            small_config(variant="cubic", seed=1),
            small_config(variant="mptcp", seed=1),
            small_config(variant="cubic", seed=2),
        ]
        campaign, results = run_campaign(configs, path=path)
        assert all(r.ok for r in results)
        return read_campaign(path)

    def test_stream_is_schema_valid(self, campaign_records):
        assert validate_records(campaign_records) == []
        assert campaign_records[0]["event"] == "campaign_start"
        assert campaign_records[-1]["event"] == "campaign_end"

    def test_full_lifecycle_per_run(self, campaign_records):
        for label in ("cubic/seed1", "mptcp/seed1", "cubic/seed2"):
            per_run = [r for r in campaign_records if r.get("run") == label]
            kinds = [r["event"] for r in per_run]
            assert kinds[0] == "queued"
            assert "started" in kinds
            assert kinds[-1] == "finished"

    def test_every_executed_run_heartbeats(self, campaign_records):
        executed = {r["run"] for r in campaign_records if r["event"] == "started"}
        assert executed  # sanity
        for label in executed:
            beats = [r for r in campaign_records
                     if r["event"] == "heartbeat" and r["run"] == label]
            assert len(beats) >= 1
            # Lifetime counters only ever grow.
            events = [b["events"] for b in beats]
            assert events == sorted(events)
            assert all(isinstance(b["pending_events"], int) for b in beats)

    def test_finished_events_carry_sketches(self, campaign_records):
        finished = events_of(campaign_records, "finished")
        assert finished
        for record in finished:
            sketch = QuantileSketch.from_dict(record["sketches"]["notify_latency_ns"])
            assert sketch.count > 0

    def test_campaign_end_stats(self, campaign_records):
        stats = events_of(campaign_records, "campaign_end")[-1]["stats"]
        assert stats["total"] == 3
        assert stats["executed"] == 3
        assert stats["failures"] == 0
        assert stats["wall_s"] > 0.0

    def test_cache_hits_emit_cache_hit_events(self, tmp_path):
        configs = [small_config(seed=11), small_config(seed=12)]
        run_campaign(configs, cache_dir=str(tmp_path / "cache"))
        warm, results = run_campaign(configs, cache_dir=str(tmp_path / "cache"))
        assert all(r.ok for r in results)
        assert len(events_of(warm.records, "cache_hit")) == 2
        assert events_of(warm.records, "started") == []
        assert events_of(warm.records, "heartbeat") == []

    def test_retry_and_failed_events(self, monkeypatch):
        # A failed simulation is attempted once (running it again would
        # fail the same way): no retry record, one failed record, and it
        # is quarantined so a resumed campaign never resubmits it.
        monkeypatch.setattr(executor_mod, "execute_config_dict", failing_payload)
        campaign, results = run_campaign([small_config()])
        assert not results[0].ok
        assert events_of(campaign.records, "retry") == []
        starts = events_of(campaign.records, "started")
        assert [r["attempt"] for r in starts] == [1]
        failed = events_of(campaign.records, "failed")[0]
        assert failed["error_type"] == "Boom"
        quarantined = events_of(campaign.records, "quarantined")[0]
        assert quarantined["attempts"] == 1
        run = campaign_summary(campaign.records)["runs"]["cubic/seed1"]
        assert (run["state"], run["retries"], run["attempts"]) == ("quarantined", 0, 1)

    def test_summaries_byte_identical_across_identical_campaigns(self):
        configs = [small_config(seed=31), small_config(variant="mptcp", seed=31)]
        first, _ = run_campaign(configs)
        second, _ = run_campaign(configs)
        encode = lambda c: json.dumps(campaign_summary(c.records), sort_keys=True)
        assert encode(first) == encode(second)
        # ...and heartbeats genuinely happened on both sides.
        assert events_of(first.records, "heartbeat")

    def test_pool_path_relays_heartbeats(self, tmp_path, monkeypatch):
        # A pooled worker returns its heartbeats with its result: no
        # multiprocessing.Manager relay process is started.
        def no_manager(*args, **kwargs):
            raise AssertionError("the pool path started a Manager")

        monkeypatch.setattr(multiprocessing.context.SpawnContext, "Manager", no_manager)
        path = tmp_path / "pool.jsonl"
        configs = [small_config(seed=s) for s in (41, 42, 43)]
        campaign, results = run_campaign(configs, path=path, jobs=2)
        assert all(r.ok for r in results)
        records = read_campaign(path)
        assert validate_records(records) == []
        for label in ("cubic/seed41", "cubic/seed42", "cubic/seed43"):
            beats = [r for r in records
                     if r["event"] == "heartbeat" and r["run"] == label]
            assert len(beats) >= 1
            # All of a run's heartbeats land before its finished event.
            finish_seq = [r["seq"] for r in records
                          if r["event"] == "finished" and r["run"] == label][0]
            assert all(b["seq"] < finish_seq for b in beats)
        # The pooled journal digests byte for byte like the inline one.
        inline, _ = run_campaign(configs)
        encode = lambda records: json.dumps(campaign_summary(records), sort_keys=True)
        assert encode(records) == encode(inline.records)


class TestDashboard:
    @pytest.fixture(scope="class")
    def records(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("dash") / "log.jsonl"
        configs = [
            small_config(variant="cubic", seed=51),
            small_config(variant="mptcp", seed=51),
            small_config(variant="cubic", seed=52),
        ]
        run_campaign(configs, path=path)
        return read_campaign(path)

    def test_merge_campaign_sketches_groups_by_variant(self, records):
        merged = _merge_sketches(fold_campaign(records))
        assert set(merged) >= {"notify_latency_ns", "retx_marks_per_day"}
        by_variant = merged["notify_latency_ns"]
        assert set(by_variant) == {"cubic", "mptcp"}
        # cubic merges two seeds; each seed's count is positive.
        assert by_variant["cubic"].count > by_variant["mptcp"].count / 2

    def test_render_campaign_markdown(self, records):
        text = render_campaign(records)
        assert "# Campaign report" in text
        assert "3 finished" in text
        assert "notify_latency_ns" in text
        assert "| cubic/seed51 |" in text
        assert "## Failures & retries" in text
        assert "none — every run completed" in text

    def test_failed_run_appears_in_tables(self):
        log = CampaignLog()
        log.emit("campaign_start", schema=1, total=1, jobs=1)
        log.emit("queued", run="x", index=0, total=1, variant="tdtcp", seed=1)
        log.emit("started", run="x", attempt=1)
        log.emit("retry", run="x", attempt=2)
        log.emit("started", run="x", attempt=2)
        log.emit("failed", run="x", error_type="Boom", error_message="<bad>")
        text = render_campaign(log.records)
        assert "| x | failed | 1 | Boom: <bad> |" in text


class TestCampaignReportTool:
    def load_tool(self):
        spec = importlib.util.spec_from_file_location(
            "campaign_report", ROOT / "tools" / "campaign_report.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_renders_and_validates(self, tmp_path, capsys):
        log_path = tmp_path / "log.jsonl"
        run_campaign([small_config(seed=61)], path=log_path)
        tool = self.load_tool()
        md = tmp_path / "dash.md"
        summary = tmp_path / "summary.json"
        code = tool.main([str(log_path), "--markdown", str(md),
                          "--summary-json", str(summary), "--validate", "--quiet"])
        assert code == 0
        assert "# Campaign report" in md.read_text()
        doc = json.loads(summary.read_text())
        assert doc["schema"] == CAMPAIGN_SCHEMA_VERSION
        assert doc["runs"]["cubic/seed61"]["state"] == "finished"
        assert capsys.readouterr().err.strip().endswith("schema-valid")

    def test_validate_rejects_bad_records(self, tmp_path, capsys):
        log_path = tmp_path / "bad.jsonl"
        run_campaign([small_config(seed=62)], path=log_path)
        with open(log_path, "a") as handle:
            handle.write(json.dumps({"event": "heartbeat", "seq": 0}) + "\n")
        tool = self.load_tool()
        assert tool.main([str(log_path), "--validate", "--quiet"]) == 1
        assert "schema" in capsys.readouterr().err
