"""The run records and the one codec behind them (``repro.records``).

The encoded config is the executor's cache key and the encoded result
its transport and cache entry, so the bytes are pinned: the keys below
were computed before the codec replaced the hand-written encoders.
Every record class keeps one contract, and the two CLI targets that
run a single config go through the executor like every other target.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

import pytest

from repro.experiments.cli import main as cli_main
from repro.experiments.config import CONFIG_SCHEMA_VERSION, ExperimentConfig, WorkloadConfig
from repro.experiments.figures import bw_only_rdcn, latency_only_rdcn
from repro.experiments.runner import ExperimentResult, RunFailure, run_experiment
from repro.faults.plan import FaultPlan
from repro.obs.campaign import read_campaign, validate_records
from repro.obs.telemetry import ObsConfig
from repro.rdcn.config import NotifierConfig, RDCNConfig
from repro.tcp.config import TCPConfig

ROOT = pathlib.Path(__file__).resolve().parent.parent
LOSSY = str(ROOT / "examples" / "fault_plans" / "lossy_fabric.json")
TRACE = "start_ns,src,dst,size_bytes\n0,r0h0,r1h0,3000\n1000,r1h1,r0h1,45000\n"


def pinned_configs(trace_path: str) -> dict:
    return {
        "default": ExperimentConfig(),
        "fig8": ExperimentConfig(variant="cubic", rdcn=bw_only_rdcn(), n_flows=8,
                                 weeks=24, warmup_weeks=8),
        "fig9": ExperimentConfig(variant="tdtcp", rdcn=latency_only_rdcn(100.0), n_flows=8,
                                 weeks=24, warmup_weeks=8),
        "custom_cdf": ExperimentConfig(
            variant="cubic", collect_voq=False, collect_sequence=False,
            workload=WorkloadConfig(cdf="custom", load=0.3, matrix="hotspot",
                                    custom_cdf=((0.0, 1000), (0.5, 5000), (1.0, 20000)))),
        "trace": ExperimentConfig(
            variant="dctcp", collect_voq=False, collect_sequence=False,
            workload=WorkloadConfig(kind="trace", trace_path=trace_path, max_flows=2)),
        "lossy_fabric": ExperimentConfig(variant="tdtcp", fault_plan_path=LOSSY, audit="fail",
                                         weeks=6, warmup_weeks=1, n_flows=2),
        "obs": ExperimentConfig(
            variant="retcp", fidelity="tiered", seed=7,
            obs=ObsConfig(trace_dir="out/t", metrics_dir="out/m", profile=True,
                          tracepoints="tcp:*")),
    }


#: ``cache_key()`` of each :func:`pinned_configs` entry under schema 7.
PINNED_KEYS = {
    "default": "87345a8121a924c04b81cf7363ac27872943f04ca6f9491a488e212bf6e83106",
    "fig8": "096fea2dff691483d30e04c6805de0e3eca8a5f416658a0953e256710d7e389b",
    "fig9": "4016e47ee21c8955485c0a53272910783ad1bd54115d78c75e85a9c02eb2f4ea",
    "custom_cdf": "d2b740f5e986c6491a85e3fa8ab47211ba999992995bc8a2d180e32709d4294f",
    "trace": "8d3782b26dc8c1c0c365895f5cb979a899ddb2cf9130bc9b4cce7b5b84166cea",
    "lossy_fabric": "870777f8e8c67d77e4bf1e631aeb8ae551465371ba90243c4d2e8aa30bd41e4d",
    "obs": "2136ed34b8ed038ca9601937250efafcb55d5873050c01a50fe525f484421a52",
}


def test_cache_keys_are_pinned(tmp_path):
    trace = tmp_path / "flows.csv"
    trace.write_text(TRACE)
    assert CONFIG_SCHEMA_VERSION == 7
    keys = {name: config.cache_key() for name, config in pinned_configs(str(trace)).items()}
    assert keys == PINNED_KEYS


# ----------------------------------------------------------------------
# One contract for every record class
# ----------------------------------------------------------------------
def sample_records() -> list:
    """One instance of each record class, off its defaults where it can be."""
    config = ExperimentConfig(
        variant="tdtcp", n_flows=2, weeks=4, warmup_weeks=1, seed=3, audit="warn",
        rdcn=RDCNConfig(schedule_pattern=(0, 0, 1), buffer_policy="complete-sharing",
                        notifier=NotifierConfig(night_policy="always", packet_caching=False)),
        tcp=TCPConfig(ecn_enabled=True, delayed_ack_ns=5_000),
        obs=ObsConfig(trace_dir="out", label="x", csv=False),
        workload=WorkloadConfig(cdf="custom", custom_cdf=((0.0, 1000), (1.0, 9000)), load=0.2),
        fault_plan=FaultPlan.load(LOSSY),
        fault_plan_path=LOSSY,
    )
    failure = RunFailure("WatchdogExceeded", "budget", 3, LOSSY, "out/bundles/b", True)
    result = ExperimentResult(
        config=config, duration_ns=config.duration_ns, flow_delivered=[5, 7],
        aggregate_delivered=12, seq_week_curve=[0.0, 1.5], reordering_per_day=[1, 0],
        workload_summary={"completed": 4, "fct_us": {"p50": 3.0}},
        sketches={"fct_us": {"kind": "ddsketch"}}, artifacts=["a.jsonl"],
        failure=failure, fidelity_report={"mode": "packet"},
    )
    return [config.rdcn.notifier, config.rdcn, config.tcp, config.obs, config.workload,
            config, failure, result]


RECORDS = sample_records()


@pytest.mark.parametrize("record", RECORDS, ids=[type(r).__name__ for r in RECORDS])
class TestRecordContract:
    def test_the_keys_are_the_field_names(self, record):
        names = [field.name for field in dataclasses.fields(record)]
        assert list(record.to_dict()) == names

    def test_a_json_round_trip_gives_every_field_back(self, record):
        cls = type(record)
        restored = cls.from_dict(json.loads(json.dumps(record.to_dict())))
        for field in dataclasses.fields(record):
            assert getattr(restored, field.name) == getattr(record, field.name), field.name
        assert restored == record

    def test_an_unknown_key_is_refused_naming_the_class(self, record):
        data = dict(record.to_dict(), not_a_field=1)
        with pytest.raises(ValueError, match=f"unknown {type(record).__name__} fields"):
            type(record).from_dict(data)


def test_tuple_fields_come_back_as_tuples():
    config = RECORDS[5]
    restored = ExperimentConfig.from_dict(json.loads(json.dumps(config.to_dict())))
    assert restored.rdcn.schedule_pattern == (0, 0, 1)
    assert isinstance(restored.rdcn.schedule_pattern, tuple)
    assert isinstance(restored.workload.custom_cdf, tuple)


def test_the_result_record_owns_its_codec():
    # The ledger's traced pass wraps these two in the class's own dict.
    assert "to_dict" in vars(ExperimentResult) and "from_dict" in vars(ExperimentResult)


# ----------------------------------------------------------------------
# The repro bundle carries the config record
# ----------------------------------------------------------------------
def test_a_fault_plan_runs_bundle_config_is_the_config_record(tmp_path):
    config = ExperimentConfig(
        variant="tdtcp", n_flows=2, weeks=6, warmup_weeks=1, fault_plan_path=LOSSY,
        watchdog_max_events=300, bundle_dir=str(tmp_path),
    )
    result = run_experiment(config)
    assert result.failure is not None and result.failure.bundle_path
    loaded = json.loads((pathlib.Path(result.failure.bundle_path) / "config.json").read_text())
    assert loaded == json.loads(json.dumps(config.to_dict()))
    assert ExperimentConfig.from_dict(loaded).cache_key() == config.cache_key()


# ----------------------------------------------------------------------
# chaos and replay-trace are executor batches
# ----------------------------------------------------------------------
def journal_is_valid(path: pathlib.Path) -> list:
    records = read_campaign(path)
    assert validate_records(records) == []
    return [record["event"] for record in records]


def test_chaos_writes_a_journal_and_a_cache_entry(tmp_path):
    log, cache = tmp_path / "c.jsonl", tmp_path / "cache"
    code = cli_main([
        "chaos", "--weeks", "3", "--warmup", "1", "--flows", "2", "--fault-plan", LOSSY,
        "--bundle-dir", str(tmp_path / "bundles"),
        "--campaign-log", str(log), "--cache-dir", str(cache),
    ])
    assert code == 0
    events = journal_is_valid(log)
    assert events[0] == "campaign_start" and "finished" in events
    assert len(list(cache.rglob("*.json"))) == 1


def test_replay_trace_writes_a_journal(tmp_path, capsys):
    trace, log = tmp_path / "flows.csv", tmp_path / "r.jsonl"
    trace.write_text(TRACE)
    code = cli_main([
        "replay-trace", "--trace", str(trace), "--variant", "cubic",
        "--weeks", "3", "--warmup", "1", "--campaign-log", str(log),
    ])
    assert code == 0
    assert "flows: 2 offered" in capsys.readouterr().out
    assert "finished" in journal_is_valid(log)
