"""Experiment configuration: one variant run on one RDCN setting."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields, replace
from typing import Optional

#: Bumped whenever the canonical config encoding (or the semantics of
#: any encoded field) changes, so stale executor cache entries written
#: under an older scheme can never satisfy a new lookup.
#: v2: RDCNConfig grew the shared-buffer fields (buffer_policy /
#: buffer_alpha / buffer_total_capacity).
#: v3: ExperimentConfig grew the nested WorkloadConfig (workload-engine
#: runs) and the empirical-workload mean/rounding fixes changed what a
#: load value simulates.
#: v4: ExperimentConfig grew ``fidelity`` ("packet" | "tiered"): the
#: tiered fluid fast path changes what a run computes, so the mode is
#: part of the semantic cache key.
#: v5: a result carries the folded week curves instead of the raw
#: sequence/VOQ series, and ``collect_sequence`` decides whether it
#: carries the sequence curve.
#: v6: nineteen fields no caller set became constants (the TCP
#: datapath's fixed RACK-TLP/RTO parameters, the notifier's calibrated
#: costs, reTCP-dyn's circuit VOQ and lead, ``audit_interval_ns``,
#: ``obs.jsonl``), ``workload.record_cap`` went (its records never
#: reached a result), and ``rdcn.seed`` echoes the run seed.
#: v7: ``background_load`` and ``tcp.nagle_enabled`` went (no entry
#: point set either).
CONFIG_SCHEMA_VERSION = 7

#: Run fidelity modes: "packet" is the exact event-per-segment core;
#: "tiered" opts into the slot-level fluid fast path (repro.sim.fastpath)
#: with packet-level fallback at fidelity triggers.
FIDELITY_MODES = ("packet", "tiered")

from repro.apps.tracegen import DATA_MINING_CDF, WEB_SEARCH_CDF, check_cdf
from repro.experiments.variants import VARIANTS
from repro.faults.audit import AUDIT_MODES
from repro.faults.plan import FaultPlan
from repro.obs.telemetry import ObsConfig
from repro.rdcn.config import RDCNConfig
from repro.tcp.config import TCPConfig

#: Named empirical CDFs the workload engine knows out of the box.
WORKLOAD_CDFS = ("web-search", "data-mining", "custom")


@dataclass
class WorkloadConfig:
    """Fabric-wide workload-engine settings (repro.apps.engine).

    Attaching one of these to an :class:`ExperimentConfig` switches the
    run from the bulk long-lived-flow workload to the engine: Poisson
    empirical traffic (``kind="empirical"``) or CSV trace replay
    (``kind="trace"``) across every ToR pair.
    """

    kind: str = "empirical"  # "empirical" | "trace"
    cdf: str = "web-search"
    #: Custom CDF points ((cum_prob, size_bytes), ...) for cdf="custom".
    custom_cdf: Optional[tuple] = None
    #: Target offered load as a fraction of per-ToR fabric capacity.
    load: float = 0.4
    matrix: str = "permutation"  # "permutation" | "all-to-all" | "hotspot"
    hotspot_fraction: float = 0.5
    #: Trace replay inputs. The *content hash* is the semantic identity
    #: of a trace for cache keys; the path is where this process finds
    #: it (excluded from canonical_json, like fault_plan_path).
    trace_path: Optional[str] = None
    trace_sha256: Optional[str] = None
    strict_trace: bool = True
    #: Stop launching after this many flows (None = run to the horizon).
    max_flows: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in ("empirical", "trace"):
            raise ValueError(f"unknown workload kind {self.kind!r}")
        if self.cdf not in WORKLOAD_CDFS:
            raise ValueError(f"unknown workload cdf {self.cdf!r}; known: {WORKLOAD_CDFS}")
        if self.cdf == "custom" and self.kind == "empirical" and not self.custom_cdf:
            raise ValueError("cdf='custom' needs custom_cdf points")
        if not (0.0 < self.load <= 1.0):
            raise ValueError("load must be in (0, 1]")
        if self.matrix not in ("permutation", "all-to-all", "hotspot"):
            raise ValueError(f"unknown traffic matrix {self.matrix!r}")
        if not (0.0 <= self.hotspot_fraction <= 1.0):
            raise ValueError("hotspot_fraction must be in [0, 1]")
        if self.max_flows is not None and self.max_flows < 1:
            raise ValueError("max_flows must be >= 1")
        if self.kind == "trace":
            if self.trace_path is None:
                raise ValueError("kind='trace' needs trace_path")
            if self.trace_sha256 is None:
                self.trace_sha256 = file_sha256(self.trace_path)
        if self.custom_cdf is not None:
            # Canonical form: tuples of tuples (JSON round-trips as
            # lists, so normalize both directions).
            self.custom_cdf = tuple((float(p), int(s)) for p, s in self.custom_cdf)
            check_cdf(self.custom_cdf)

    def size_cdf(self):
        """The (prob, size) points this config names."""
        if self.cdf == "web-search":
            return WEB_SEARCH_CDF
        if self.cdf == "data-mining":
            return DATA_MINING_CDF
        return self.custom_cdf

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "WorkloadConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown WorkloadConfig fields {sorted(unknown)}")
        return cls(**data)


def file_sha256(path: str) -> str:
    """Hex sha256 of a file's bytes: a trace's identity in cache keys."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass
class ExperimentConfig:
    """Everything a single run needs.

    The paper runs 16 flows for 40 s (thousands of weeks) on hardware;
    the defaults here are scaled for a Python event simulator — 4 flows
    for tens of weeks — which preserves every mechanism while keeping
    runs interactive. ``n_flows`` and ``weeks`` scale up freely.
    """

    variant: str = "tdtcp"
    rdcn: RDCNConfig = field(default_factory=RDCNConfig)
    tcp: Optional[TCPConfig] = None
    n_flows: int = 4
    weeks: int = 30
    warmup_weeks: int = 5
    # reTCP's multiplicative ramp factor: sized so the aggregate ramped
    # window roughly fills the enlarged VOQ plus circuit BDP without
    # overflowing it (swept in benchmarks/test_ablations.py).
    retcp_alpha: float = 2.0
    # What a bulk run records for the figures, each folded into a mean
    # week (ExperimentResult.voq_week_curve / seq_week_curve):
    # collect_voq watches the rack-0 -> rack-1 VOQ (and sets voq_max);
    # collect_sequence folds the aggregate receiver progress (the VOQ-only
    # figures 13 and 14 turn it off). Throughput and per-flow bytes do
    # not depend on either.
    collect_voq: bool = True
    collect_sequence: bool = True
    seed: int = 1
    # Simulation fidelity: "packet" (exact, default) or "tiered" (fluid
    # fast path between fidelity triggers; see repro.sim.fastpath).
    # Semantic — two runs differing only here may produce different
    # traces, so it participates in cache_key().
    fidelity: str = "packet"
    # Telemetry (tracepoints / metrics / profiling); None disables —
    # the probe sites then cost one attribute check each.
    obs: Optional[ObsConfig] = None
    # Workload engine (repro.apps.engine): when set the run launches
    # fabric-wide empirical/trace traffic instead of the bulk flows.
    workload: Optional[WorkloadConfig] = None
    # Fault injection (repro.faults): a FaultPlan armed on the testbed
    # before the run, or a path to load one from. None = no faults.
    fault_plan: Optional[FaultPlan] = None
    fault_plan_path: Optional[str] = None
    # Runtime invariant auditing: None disables, "warn" records
    # violations, "fail" raises at the first dirty audit.
    audit: Optional[str] = None
    # Watchdog budgets for the run loop; None = unbounded.
    watchdog_max_events: Optional[int] = None
    watchdog_max_wall_s: Optional[float] = None
    # Where crash-capture repro bundles are written.
    bundle_dir: str = "out/bundles"

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; known: {sorted(VARIANTS)}")
        if self.warmup_weeks < 0:
            raise ValueError("warmup_weeks must be >= 0")
        if self.weeks <= self.warmup_weeks:
            raise ValueError("weeks must exceed warmup_weeks")
        if self.fidelity not in FIDELITY_MODES:
            raise ValueError(
                f"fidelity must be one of {FIDELITY_MODES}, got {self.fidelity!r}"
            )
        if self.audit is not None and self.audit not in AUDIT_MODES:
            raise ValueError(f"audit must be None or one of {AUDIT_MODES}")
        if self.fault_plan is None and self.fault_plan_path is not None:
            self.fault_plan = FaultPlan.load(self.fault_plan_path)
        if self.n_flows < 1:
            raise ValueError("need at least one flow")
        if self.retcp_alpha <= 1.0:
            raise ValueError("retcp_alpha must exceed 1")
        if self.workload is not None and self.variant == "mptcp":
            # The engine opens/closes one plain connection per flow;
            # MPTCP's subflow bundles don't fit that churn discipline.
            raise ValueError("the workload engine does not support the mptcp variant")
        if self.tcp is None:
            self.tcp = TCPConfig(mss=self.rdcn.mss)
        if self.n_flows > self.rdcn.n_hosts_per_rack:
            self.rdcn = replace(self.rdcn, n_hosts_per_rack=self.n_flows)
        if self.rdcn.seed != self.seed:
            # One seed per run: the testbed's RNG is seeded from it.
            self.rdcn = replace(self.rdcn, seed=self.seed)

    @property
    def duration_ns(self) -> int:
        return self.weeks * self.rdcn.week_ns

    # ------------------------------------------------------------------
    # Canonical serialization (executor cache keys, spawn-safe workers)
    # ------------------------------------------------------------------
    #: Fields that never change what a run computes: telemetry output
    #: locations and the *path* a fault plan was loaded from (the plan
    #: content itself is part of the key). Excluded from cache_key().
    NON_SEMANTIC_FIELDS = ("obs", "bundle_dir", "fault_plan_path")

    def to_dict(self) -> dict:
        """Canonical JSON-ready view of the post-init state. Nested
        configs serialize through their own ``to_dict``; the round trip
        ``from_dict(to_dict(c)) == c`` is exact."""
        out: dict = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None and f.name in (
                "rdcn", "tcp", "obs", "fault_plan", "workload"
            ):
                value = value.to_dict()
            out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown ExperimentConfig fields {sorted(unknown)}")
        kwargs = dict(data)
        if kwargs.get("rdcn") is not None:
            kwargs["rdcn"] = RDCNConfig.from_dict(kwargs["rdcn"])
        if kwargs.get("tcp") is not None:
            kwargs["tcp"] = TCPConfig.from_dict(kwargs["tcp"])
        if kwargs.get("obs") is not None:
            kwargs["obs"] = ObsConfig.from_dict(kwargs["obs"])
        if kwargs.get("fault_plan") is not None:
            kwargs["fault_plan"] = FaultPlan.from_dict(kwargs["fault_plan"])
        if kwargs.get("workload") is not None:
            kwargs["workload"] = WorkloadConfig.from_dict(kwargs["workload"])
        return cls(**kwargs)

    def canonical_json(self) -> str:
        """Deterministic encoding of the semantic fields only — the
        cache-key payload (see ``NON_SEMANTIC_FIELDS``)."""
        payload = self.to_dict()
        for name in self.NON_SEMANTIC_FIELDS:
            payload.pop(name, None)
        if payload.get("workload") is not None:
            # The trace's *content hash* is its semantic identity; the
            # filesystem path is just where this process found it.
            payload["workload"] = dict(payload["workload"])
            payload["workload"].pop("trace_path", None)
        return json.dumps(
            {"schema": CONFIG_SCHEMA_VERSION, "config": payload},
            sort_keys=True,
            separators=(",", ":"),
        )

    def cache_key(self) -> str:
        """Stable content hash identifying this run's outputs: two
        configs share a key iff every simulation-affecting field (fault
        plan included) is identical."""
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()
