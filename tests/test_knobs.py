"""Every config knob has a witness.

``KNOBS`` maps every field reachable from :class:`ExperimentConfig`
(dotted: ``rdcn.notifier.night_policy``) to the evidence that setting it
does something:

* :class:`Witness` — the smallest config (``BASE`` plus ``on``) in which
  the changed value moves the run's outcome (``outcome()`` with the
  config echo popped);
* :class:`Gated` — moves nothing under ``off`` (its gate is shut), moves
  under ``on``;
* :class:`HostOnly` — decides what a run writes or when it gives up,
  never what it simulates: one run changes every such field at once and
  the outcome stays put;
* :class:`Follows` — ``__post_init__`` overwrites it from another field,
  so setting it alone leaves the config unchanged.

A field with no entry, an entry naming no field, a witness that does not
move and a gated or host-only field that leaks each fail a test here. A
field that no entry can be written for is a field nothing reads: delete
it, or, if the paper says it should matter, pin the defect with a
``defect=`` witness (strict xfail).

Runs are 2 weeks of 2 flows; each distinct config runs once per session.
"""

from __future__ import annotations

import copy
import json
import typing
from dataclasses import fields, is_dataclass, replace
from typing import Any, Dict, List, Optional

import pytest

from repro.experiments import ExperimentConfig, run_experiment
from repro.obs.outcome import outcome_digest
from repro.rdcn.config import NotifierConfig, RDCNConfig
from repro.units import gbps, usec


class Tmp:
    """A path under this module's scratch directory (files it writes)."""

    def __init__(self, name: str):
        self.name = name


class Witness:
    def __init__(self, value: Any, on: Optional[dict] = None, defect: Optional[str] = None):
        self.value, self.on, self.defect = value, on or {}, defect


class Gated:
    def __init__(self, value: Any, off: dict, on: dict):
        self.value, self.off, self.on = value, off, on


class HostOnly:
    def __init__(self, value: Any):
        self.value = value


class Follows:
    def __init__(self, source: str, value: Any):
        self.source, self.value = source, value


BASE = {"variant": "tdtcp", "n_flows": 2, "weeks": 2, "warmup_weeks": 1}
ENGINE = {"workload": {}}
CDF_A = ((0.0, 1_000), (0.5, 10_000), (1.0, 100_000))
CDF_B = ((0.0, 1_000), (0.5, 3_000), (1.0, 30_000))
#: Enough small flows (~80) that the pair a flow picks shows.
MANY = {"workload": {"cdf": "custom", "custom_cdf": CDF_A, "load": 0.1}}
TRACE_A = {"workload": {"kind": "trace", "trace_path": Tmp("a.csv")}}
PLAN = {"name": "knobs", "specs": [
    {"kind": "packet_loss", "target": "r*-down", "at_ns": 0, "params": {"rate": 0.01}},
]}

#: Trace CSVs (``start_ns,src,dst,size_bytes``) the trace entries read.
TRACES = {
    "a.csv": "0,r0h0,r1h0,60000\n100000,r0h1,r1h1,90000\n",
    "b.csv": "0,r0h0,r1h0,20000\n50000,r1h1,r0h1,150000\n",
    "bad.csv": "0,r0h0,r1h0,60000\nnot,a,row\n100000,r0h1,r1h1,90000\n",
}

KNOBS: Dict[str, Any] = {
    # ExperimentConfig
    "variant": Witness("cubic"),
    "n_flows": Witness(3),
    "weeks": Witness(3),
    "warmup_weeks": Witness(0),
    "retcp_alpha": Gated(4.0, off={}, on={"variant": "retcp"}),
    "collect_voq": Witness(False),
    "collect_sequence": Witness(False),
    "seed": Witness(2),
    "fidelity": Witness("tiered"),
    "obs": HostOnly({}),
    "workload": Witness({}),
    "fault_plan": Witness(PLAN),
    "fault_plan_path": HostOnly(Tmp("plan.json")),
    "audit": Witness("warn"),
    "watchdog_max_events": HostOnly(10**9),
    "watchdog_max_wall_s": HostOnly(3_600.0),
    "bundle_dir": HostOnly(Tmp("bundles")),
    # RDCNConfig
    "rdcn.n_hosts_per_rack": Witness(4),
    "rdcn.mss": Witness(3_000),
    "rdcn.packet_rate_bps": Witness(gbps(5)),
    "rdcn.optical_rate_bps": Witness(gbps(50)),
    "rdcn.packet_one_way_ns": Witness(usec(30)),
    "rdcn.optical_one_way_ns": Witness(usec(30)),
    "rdcn.host_link_rate_bps": Witness(gbps(25)),
    "rdcn.host_link_delay_ns": Witness(usec(2)),
    "rdcn.voq_capacity": Witness(48),
    "rdcn.ecn_threshold": Gated(10, off={}, on={"variant": "dctcp"}),
    "rdcn.buffer_policy": Witness("dynamic-threshold"),
    "rdcn.buffer_alpha": Gated(
        0.25, off={}, on={"rdcn.buffer_policy": "dynamic-threshold"}
    ),
    "rdcn.buffer_total_capacity": Gated(
        48, off={}, on={"rdcn.buffer_policy": "complete-sharing"}
    ),
    "rdcn.schedule_pattern": Witness((0, 0, 1)),
    "rdcn.day_ns": Witness(usec(100)),
    "rdcn.night_ns": Witness(usec(10)),
    "rdcn.seed": Follows("seed", 9),
    # NotifierConfig
    "rdcn.notifier.packet_caching": Witness(False),
    "rdcn.notifier.pull_model": Witness(False),
    "rdcn.notifier.dedicated_network": Witness(False),
    "rdcn.notifier.control_delay_ns": Gated(
        usec(20), off={"rdcn.notifier.dedicated_network": False}, on={}
    ),
    "rdcn.notifier.night_policy": Witness("none"),
    # TCPConfig
    "tcp.mss": Witness(3_000),
    "tcp.initial_cwnd": Witness(4.0),
    "tcp.rwnd_packets": Witness(16),
    "tcp.send_buffer_packets": Witness(8),
    "tcp.min_rto_ns": Witness(usec(100)),
    "tcp.ecn_enabled": Witness(True),
    "tcp.delayed_ack_ns": Witness(usec(20)),
    # WorkloadConfig
    "workload.kind": Witness("trace", on={"workload": {"trace_path": Tmp("a.csv")}}),
    "workload.cdf": Witness("data-mining", on=ENGINE),
    "workload.custom_cdf": Gated(CDF_B, off=ENGINE, on=MANY),
    "workload.load": Witness(0.2, on=ENGINE),
    # Two racks: "all-to-all" is "permutation" (one pair each way).
    "workload.matrix": Witness("hotspot", on=MANY),
    "workload.hotspot_fraction": Gated(0.9, off=MANY, on={**MANY, "workload.matrix": "hotspot"}),
    "workload.trace_path": Gated(
        Tmp("b.csv"), off={"workload": {"trace_path": Tmp("a.csv")}}, on=TRACE_A
    ),
    # A stated hash the file does not match fails the run.
    "workload.trace_sha256": Witness("0" * 64, on=TRACE_A),
    "workload.strict_trace": Gated(
        False, off=ENGINE, on={"workload": {"kind": "trace", "trace_path": Tmp("bad.csv")}}
    ),
    "workload.max_flows": Witness(3, on=ENGINE),
    # ObsConfig
    "obs.trace_dir": HostOnly(Tmp("trace")),
    "obs.metrics_dir": HostOnly(Tmp("metrics")),
    "obs.profile": HostOnly(True),
    "obs.tracepoints": HostOnly("tcp:*"),
    "obs.label": HostOnly("knobs"),
    "obs.chrome_trace": HostOnly(False),
    "obs.csv": HostOnly(False),
}

#: A fault plan is data (its specs), not a set of knobs.
LEAVES = ("fault_plan",)


def reachable_fields() -> List[str]:
    """Every dotted field of an ExperimentConfig. A nested config that
    is always there (``rdcn``, its ``notifier``, ``tcp``) is only its
    fields; an optional one (``workload``, ``obs``) is a field too."""
    default = ExperimentConfig()
    names: List[str] = []

    def walk(prefix: str, cls: type) -> None:
        hints = typing.get_type_hints(cls)
        for f in fields(cls):
            name = prefix + f.name
            nested = [t for t in typing.get_args(hints[f.name]) or [hints[f.name]]
                      if is_dataclass(t)]
            if nested and name not in LEAVES:
                walk(name + ".", nested[0])
                if read(default, name) is not None:
                    continue
            names.append(name)

    walk("", ExperimentConfig)
    return names


def read(config: Any, name: str) -> Any:
    for part in name.split("."):
        config = getattr(config, part, None)
    return config


# ----------------------------------------------------------------------
# Building and running configs
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    directory = tmp_path_factory.mktemp("knobs")
    for name, text in TRACES.items():
        (directory / name).write_text(text)
    (directory / "plan.json").write_text(json.dumps(PLAN))
    return directory


def resolve(value: Any, scratch) -> Any:
    if isinstance(value, Tmp):
        return str(scratch / value.name)
    if isinstance(value, dict):
        return {k: resolve(v, scratch) for k, v in value.items()}
    return copy.deepcopy(value)


def build(scratch, *layers: dict) -> ExperimentConfig:
    """``BASE`` with each layer's dotted settings applied in order."""
    data: dict = copy.deepcopy(BASE)
    for layer in layers:
        for name, value in layer.items():
            *parents, leaf = name.split(".")
            node = data
            for part in parents:
                if node.get(part) is None:
                    node[part] = {}
                node = node[part]
            value = resolve(value, scratch)
            if isinstance(value, dict) and isinstance(node.get(leaf), dict):
                value = {**node[leaf], **value}
            node[leaf] = value
    return ExperimentConfig.from_dict(data)


@pytest.fixture(scope="module")
def outcome():
    """Digest of what a config simulated, config echo popped; one run
    per distinct config (host-only fields included in the key)."""
    digests: Dict[str, str] = {}

    def digest(config: ExperimentConfig) -> str:
        key = json.dumps(config.to_dict(), sort_keys=True, default=str)
        if key not in digests:
            data = run_experiment(config).outcome()
            data.pop("config")
            digests[key] = outcome_digest(data)
        return digests[key]

    return digest


def entries(kind: type) -> list:
    return [
        pytest.param(
            name,
            id=name,
            marks=[pytest.mark.xfail(strict=True, reason=entry.defect)]
            if getattr(entry, "defect", None) else [],
        )
        for name, entry in KNOBS.items()
        if isinstance(entry, kind)
    ]


def changed_pair(scratch, gate: dict, name: str, value: Any):
    base = build(scratch, gate)
    changed = build(scratch, gate, {name: value})
    assert read(changed, name) != read(base, name), f"{name}: the change did not take"
    return base, changed


# ----------------------------------------------------------------------
# The table is complete
# ----------------------------------------------------------------------
def test_every_field_has_an_entry():
    missing = [name for name in reachable_fields() if name not in KNOBS]
    assert not missing, f"fields with no witness, gate or host-only entry: {missing}"


def test_every_entry_names_a_field():
    stale = sorted(set(KNOBS) - set(reachable_fields()))
    assert not stale, f"entries naming no config field: {stale}"


# ----------------------------------------------------------------------
# The evidence
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", entries(Witness))
def test_witness_moves_the_outcome(scratch, outcome, name):
    entry = KNOBS[name]
    base, changed = changed_pair(scratch, entry.on, name, entry.value)
    assert outcome(changed) != outcome(base), f"{name}={entry.value!r} moved nothing"


@pytest.mark.parametrize("name", entries(Gated))
def test_gated_moves_only_through_its_gate(scratch, outcome, name):
    entry = KNOBS[name]
    base, changed = changed_pair(scratch, entry.off, name, entry.value)
    assert outcome(changed) == outcome(base), f"{name} leaks past its shut gate {entry.off}"
    base, changed = changed_pair(scratch, entry.on, name, entry.value)
    assert outcome(changed) != outcome(base), f"{name} moved nothing under {entry.on}"


def test_host_only_fields_move_nothing(scratch, outcome):
    """A faulted run, so the plan's path stands next to its content."""
    host_only = {name: e.value for name, e in KNOBS.items() if isinstance(e, HostOnly)}
    base = build(scratch, {"fault_plan": PLAN})
    changed = build(scratch, {"fault_plan": PLAN}, host_only)
    assert [n for n in host_only if read(changed, n) == read(base, n)] == []
    assert changed.obs.active
    assert outcome(changed) == outcome(base)


@pytest.mark.parametrize("name", entries(Follows))
def test_follower_is_normalised_to_its_source(scratch, name):
    entry = KNOBS[name]
    assert build(scratch, {name: entry.value}).to_dict() == build(scratch).to_dict()
    assert read(build(scratch, {entry.source: entry.value}), name) == entry.value


# ----------------------------------------------------------------------
# Settings that used to stop short of the run
# ----------------------------------------------------------------------
class TestSettingsReachTheRun:
    def test_rdcn_seed_is_the_run_seed(self):
        """``rdcn.seed`` used to be overwritten by the runner yet still
        keyed the cache: two configs of one run had two keys, and the
        result echoed ``rdcn.seed: 1`` for a seed-3 run."""
        ran = ExperimentConfig(seed=3, rdcn=RDCNConfig(seed=9))
        assert ran.cache_key() == ExperimentConfig(seed=3).cache_key()
        result = run_experiment(replace(ran, **BASE))
        assert result.to_dict()["config"]["rdcn"]["seed"] == 3

    @pytest.mark.parametrize("notifier", [NotifierConfig(), NotifierConfig(night_policy="none")],
                             ids=["default", "night-none"])
    def test_unoptimized_branch_keeps_the_other_notifier_settings(self, outcome, notifier):
        """``tdtcp-unopt`` turns off the three §5.4 optimizations and
        nothing else: it is ``tdtcp`` on the same notifier with those
        three flags off."""
        def run(variant, notifier):
            return outcome(ExperimentConfig(**{**BASE, "variant": variant},
                                            rdcn=RDCNConfig(notifier=notifier)))

        off = replace(notifier, packet_caching=False, pull_model=False, dedicated_network=False)
        assert run("tdtcp-unopt", notifier) == run("tdtcp", off)
