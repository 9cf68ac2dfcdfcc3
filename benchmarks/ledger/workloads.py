"""The five ledger workloads and their untimed reference phases.

All are closed, fixed-horizon batch work: one *rep* runs the same seeded
simulations to the same simulated horizon, so the unit is simulated work
finished per host second and every rep of one seed has the same
``sim_digest``. Only public calls of ``repro`` are used.

Horizons are ISSUE 11's, each scaled (to whole weeks, cycles and
shards) so that a rep takes 1.3-1.5 s and one benchmark run fits nine of
them; they are frozen in :data:`SCALES`, the factors are in README.md.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from repro.apps.engine import WALL_SUMMARY_FIELDS, WorkloadEngine
from repro.apps.tracegen import WEB_SEARCH_CDF
from repro.core.tdtcp import TDTCPConnection
from repro.experiments import figures, sweeps
from repro.experiments.checkpoint import checkpoint_path, load_resume_plan
from repro.experiments.config import ExperimentConfig, WorkloadConfig
from repro.experiments.executor import ExperimentExecutor, ResultCache
from repro.experiments.runner import set_worker_heartbeat
from repro.obs.campaign import WALL_FIELDS, CampaignLog, campaign_summary, read_campaign
from repro.obs.telemetry import ObsConfig
from repro.rdcn.opera import OperaConfig, build_opera_testbed
from repro.sim.rng import SeededRandom

# Frozen constants. "smoke" is for the self-test only: same mechanisms,
# the smallest horizons that still exercise them.
SCALES: Dict[str, Dict[str, int]] = {
    "full": {
        "fig7_weeks": 2, "fig7_warmup": 1, "fig7_flows": 8,
        "rpc_weeks": 3, "rpc_warmup": 1, "rpc_flows": 600,
        "tiered_cubic_weeks": 300, "tiered_tdtcp_weeks": 12, "tiered_warmup": 2,
        "opera_cycles": 5, "opera_flows": 180,
        "campaign_shards": 120, "pool_shards": 30,
        "accuracy_weeks": 16,
    },
    "smoke": {
        "fig7_weeks": 2, "fig7_warmup": 1, "fig7_flows": 2,
        "rpc_weeks": 2, "rpc_warmup": 1, "rpc_flows": 100,
        "tiered_cubic_weeks": 12, "tiered_tdtcp_weeks": 4, "tiered_warmup": 2,
        "opera_cycles": 2, "opera_flows": 30,
        "campaign_shards": 8, "pool_shards": 4,
        "accuracy_weeks": 4,
    },
}

RPC_CDF = ((0, 2000), (0.5, 4000), (0.9, 16000), (1, 64000))
# opera_rotor: ISSUE 11's web-search CDF at load 0.3, cut at 667 KB (its
# 60th percentile) and renormalised. On the rotor's direct-circuit share
# (25 Gb/s x 0.9 / 7) a 667 KB flow takes 1.2 cycles, so the scaled
# horizon can finish what it starts; the 1.3-30 MB tail (up to 50
# cycles) cannot finish at any seed and left ~24 flows and +-40 %
# simulated work from seed to seed. What is kept still mixes mice
# (6-53 KB, two flows in three) with flows that queue across slots and
# fill the relay (133-667 KB, one flow in nine, half the bytes).
OPERA_CDF_CUT = 0.60
OPERA_CDF = tuple((p / OPERA_CDF_CUT, size) for p, size in WEB_SEARCH_CDF
                  if p <= OPERA_CDF_CUT)
OPERA_LOAD = 0.3
SHARD_CDF = ((0, 10000), (1, 10001))
ELEPHANT_MIXES = (("web-search", 0.4), ("data-mining", 0.6))
# The accuracy pairs always run this seed, whatever --seed is: their
# values are pinned (pins.json), and an error bound in points needs a
# pinned baseline to be enforced on every traced run.
ACCURACY_SEED = 1
ACCURACY_SLACK_PT = 0.5
# Events between two slice-clock ticks (about 6 ms of host time).
HEARTBEAT_EVENTS = 1000

# Host-dependent fields, dropped before anything is hashed or compared:
# the engine summary's and the campaign records' own lists, plus the
# telemetry outputs of an ExperimentResult.
WALL_KEYS = frozenset(WALL_SUMMARY_FIELDS) | frozenset(WALL_FIELDS) | {
    "events_per_second", "profile_report", "artifacts"}


def strip_wall(value: Any) -> Any:
    if isinstance(value, dict):
        return {k: strip_wall(v) for k, v in value.items() if k not in WALL_KEYS}
    if isinstance(value, (list, tuple)):
        return [strip_wall(v) for v in value]
    return value


def sim_digest(value: Any) -> str:
    """sha256 over simulated statistics with wall fields stripped."""
    text = json.dumps(strip_wall(value), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class SliceClock:
    """Timestamps at deterministic points of a rep (every
    ``HEARTBEAT_EVENTS`` simulator events, every campaign record, every
    phase end). Rep *k*'s slice *i* is the same work as rep *j*'s, so
    the per-slice minimum over reps estimates the uncontended time."""

    def __init__(self) -> None:
        self.ticks: List[float] = []

    def tick(self, *_args: Any) -> None:
        self.ticks.append(perf_counter())

    def durations(self) -> List[float]:
        ticks = self.ticks
        return [ticks[i + 1] - ticks[i] for i in range(len(ticks) - 1)]


@dataclass
class Outcome:
    """What one rep produced: enough to check it, digest it and (in the
    traced pass) read the public per-layer counters."""

    digest: str
    runs: int                      # simulation runs attempted
    failed: int                    # runs with result.failure (+ cache write errors)
    sim_s: float                   # sum of simulated horizons of executed runs
    flows: int                     # flows the flows_per_s metric counts
    problems: List[str] = field(default_factory=list)   # failed output checks
    results: List[Any] = field(default_factory=list)    # ExperimentResults
    engines: List[Tuple[dict, dict]] = field(default_factory=list)  # (summary, sketches)
    facts: Dict[str, float] = field(default_factory=dict)


def _failed(results: List[Any]) -> int:
    return sum(1 for r in results if r.failure is not None)


def _engine_entries(results: List[Any]) -> List[Tuple[dict, dict]]:
    return [(r.workload_summary, r.sketches) for r in results if r.workload_summary]


def _inline_executor() -> ExperimentExecutor:
    return ExperimentExecutor(jobs=1, use_cache=False)


class Workload:
    """One named workload. ``setup`` builds seed-dependent inputs (it is
    what ``setup_s`` times, with the imports above); ``rep`` is the
    timed region and returns what it produced; ``outcome`` checks and
    digests that, outside the timed region; ``reference`` holds the
    untimed reference phases and returns facts for the per-layer
    metrics."""

    name = ""
    why = ""

    def __init__(self, seed: int, scale: Dict[str, int], tmp_root: str) -> None:
        self.seed = seed
        self.scale = scale
        self.tmp_root = tmp_root

    def setup(self) -> None:
        pass

    def rep(self, clock: SliceClock, tracer: Any) -> Any:
        raise NotImplementedError

    def outcome(self, produced: Any) -> Outcome:
        raise NotImplementedError

    def reference(self, outcome: Outcome) -> Tuple[Dict[str, float], List[str]]:
        return {}, []


# ----------------------------------------------------------------------
class Fig7Bulk(Workload):
    name = "fig7_bulk"
    why = ("paper headline: six variants of steady ACK-clocked bulk transfer; "
           "sim loop, tcp ACK path, net queues and rdcn uplink do the work")

    def rep(self, clock: SliceClock, tracer: Any) -> Any:
        s = self.scale
        with tracer.span("figures.fig7", "experiments.figures"):
            return figures.fig7(
                weeks=s["fig7_weeks"], warmup_weeks=s["fig7_warmup"],
                n_flows=s["fig7_flows"], seed=self.seed,
                executor=_inline_executor(),
            )

    def outcome(self, data: Any) -> Outcome:
        s = self.scale
        results = list(data.results.values())
        variants = figures.FULL_VARIANTS
        problems = [f"{v}: {f.render()}" for v, f in data.failures.items()]
        for variant, result in data.results.items():
            if result.aggregate_delivered <= 0:
                problems.append(f"{variant} delivered nothing")
        thr = data.throughputs_gbps
        facts = {}
        if thr.get("cubic"):
            facts["fig7_gain_pct"] = (thr.get("tdtcp", 0.0) / thr["cubic"] - 1.0) * 100.0
        week_s = data.rdcn.week_ns / 1e9
        return Outcome(
            digest=sim_digest({v: r.to_dict() for v, r in data.results.items()}),
            runs=len(variants), failed=len(data.failures),
            sim_s=len(variants) * s["fig7_weeks"] * week_s,
            flows=len(variants) * s["fig7_flows"],
            problems=problems, results=results, facts=facts,
        )

    def reference(self, outcome: Outcome) -> Tuple[Dict[str, float], List[str]]:
        """Instrumentation probes (the tdtcp config alone: plain vs
        telemetry vs warn-mode audit) and the fat-result cache probe."""
        s = self.scale
        tmp = os.path.join(self.tmp_root, "probes")
        os.makedirs(tmp, exist_ok=True)

        def config(**extra: Any) -> ExperimentConfig:
            return ExperimentConfig(
                variant="tdtcp", rdcn=figures.bw_latency_rdcn(),
                n_flows=s["fig7_flows"], weeks=s["fig7_weeks"],
                warmup_weeks=s["fig7_warmup"], seed=self.seed, **extra,
            )

        problems: List[str] = []

        def wall(cfg: ExperimentConfig) -> float:
            best = float("inf")
            for _ in range(2):
                started = perf_counter()
                (result,) = _inline_executor().run_batch([cfg])
                best = min(best, perf_counter() - started)
                if result.failure is not None:
                    problems.append(f"probe failed: {result.failure.render()}")
            return best

        plain = wall(config())
        obs = wall(config(obs=ObsConfig(trace_dir=tmp, chrome_trace=False, csv=False)))
        audit = wall(config(audit="warn"))
        facts = {
            "telemetry_overhead_ratio": obs / plain,
            "audit_overhead_ratio": audit / plain,
        }
        # The six fat fig-7 results, put and got once each.
        cache = ResultCache(os.path.join(tmp, "cache"))
        size = 0
        get_s = 0.0
        for i, result in enumerate(outcome.results):
            key = f"{i:02d}" + "0" * 62
            path = cache.put(key, result)
            if path is None:
                problems.append("cache probe: put failed")
                continue
            size += os.path.getsize(path)
            started = perf_counter()
            cache.get(key)
            get_s += perf_counter() - started
        if size:
            facts["cache_get_ms_per_mb"] = get_s * 1e3 / (size / 1e6)
        shutil.rmtree(tmp, ignore_errors=True)
        return facts, problems


# ----------------------------------------------------------------------
class RpcChurn(Workload):
    name = "rpc_churn"
    why = ("smallest messages, per-flow cost dominates: handshake, teardown, "
           "timer churn, engine arrivals; a bulk-path gain that costs setup shows here")

    variants = ("cubic", "tdtcp")

    def rep(self, clock: SliceClock, tracer: Any) -> Any:
        s = self.scale
        with tracer.span("sweeps.load_sweep", "experiments.figures"):
            return sweeps.load_sweep(
                loads=(0.4,), variants=self.variants, cdf="custom", custom_cdf=RPC_CDF,
                max_flows=s["rpc_flows"],
                weeks=s["rpc_weeks"], warmup_weeks=s["rpc_warmup"], seed=self.seed,
                executor=_inline_executor(),
            )

    def outcome(self, sweep: Any) -> Outcome:
        s = self.scale
        variants = self.variants
        problems = [f"{p.variant}: {p.failure.render()}" for p in sweep.failures]
        for point in sweep.points:
            if not point.ok:
                continue
            if point.completed > point.started:
                problems.append(f"{point.variant}: completed > started")
            # ISSUE 11 asks for >= 0.9 at ten weeks. At three weeks the
            # flows a night or an RTO holds past the horizon are a larger
            # share (0.93-1.0 over seeds 1-20), so the floor has margin.
            if point.completion_rate < 0.75:
                problems.append(
                    f"{point.variant}: completion_rate {point.completion_rate:.3f} < 0.75"
                )
        ok = [p for p in sweep.points if p.ok]
        week_s = ExperimentConfig().rdcn.week_ns / 1e9
        return Outcome(
            digest=sim_digest([[p.variant, p.summary, p.sketches] for p in ok]),
            runs=len(variants), failed=len(sweep.failures),
            sim_s=len(variants) * s["rpc_weeks"] * week_s,
            flows=sum(p.completed for p in ok),
            problems=problems,
            engines=[(p.summary, p.sketches) for p in ok],
        )


# ----------------------------------------------------------------------
def _engine_config(variant: str, cdf: str, load: float, seed: int, weeks: int,
                   warmup: int, fidelity: str) -> ExperimentConfig:
    return ExperimentConfig(
        variant=variant, weeks=weeks, warmup_weeks=warmup, seed=seed,
        collect_voq=False, collect_sequence=False, fidelity=fidelity,
        workload=WorkloadConfig(kind="empirical", cdf=cdf, load=load),
    )


class TieredElephants(Workload):
    name = "tiered_elephants"
    why = ("fidelity=tiered on web-search and data-mining mixes, the only workload where "
           "sim.fastpath runs: fluid spans cover ~98 % of simulated time, the residual "
           "packet-core events most of the host time")

    def setup(self) -> None:
        s = self.scale
        warm = s["tiered_warmup"]
        self.configs = []
        for cdf, load in ELEPHANT_MIXES:
            for seed in (self.seed, self.seed + 1):
                self.configs.append(_engine_config(
                    "cubic", cdf, load, seed, s["tiered_cubic_weeks"], warm, "tiered"))
            self.configs.append(_engine_config(
                "tdtcp", cdf, load, self.seed, s["tiered_tdtcp_weeks"], warm, "tiered"))

    def rep(self, clock: SliceClock, tracer: Any) -> Any:
        return _inline_executor().run_batch(self.configs)

    def outcome(self, results: Any) -> Outcome:
        problems = [r.failure.render() for r in results if r.failure is not None]
        for config, result in zip(self.configs, results):
            report = result.fidelity_report or {}
            if report.get("forced_packet", True):
                problems.append(f"{config.variant}: tiered run was forced to packet")
            # The short tdtcp legs carry a few dozen flows; whether one
            # of them is steady long enough for a span depends on the seed.
            if config.variant == "cubic" and report.get("fluid_spans", 0) < 1:
                problems.append(f"{config.variant}: no fluid span")
        return Outcome(
            digest=sim_digest([r.to_dict() for r in results]),
            runs=len(results), failed=_failed(results),
            sim_s=sum(c.duration_ns for c in self.configs) / 1e9,
            flows=sum(r.workload_summary["completed"] for r in results
                      if r.workload_summary),
            problems=problems, results=results, engines=_engine_entries(results),
        )

    def reference(self, outcome: Outcome) -> Tuple[Dict[str, float], List[str]]:
        """Accuracy pairs: {cubic, tdtcp} x the two mixes, the same
        run (seed ``ACCURACY_SEED``) at packet and at tiered fidelity."""
        s = self.scale
        pairs = [
            (variant, cdf, load)
            for variant in ("cubic", "tdtcp") for cdf, load in ELEPHANT_MIXES
        ]
        configs = [
            _engine_config(variant, cdf, load, ACCURACY_SEED, s["accuracy_weeks"],
                           s["tiered_warmup"], fidelity)
            for variant, cdf, load in pairs for fidelity in ("packet", "tiered")
        ]
        results = _inline_executor().run_batch(configs)
        problems = [r.failure.render() for r in results if r.failure is not None]
        if problems:
            return {}, problems
        pair_values = {}
        for i, (variant, cdf, _load) in enumerate(pairs):
            packet = results[2 * i].workload_summary
            tiered = results[2 * i + 1].workload_summary
            pair_values[f"{variant}/{cdf}"] = {
                "packet_bytes": packet["bytes_completed"],
                "tiered_bytes": tiered["bytes_completed"],
                "packet_fct_p50_us": packet["fct_us"]["p50"],
                "tiered_fct_p50_us": tiered["fct_us"]["p50"],
            }
        self.accuracy_pairs = pair_values
        delivered_err_pct, fct_p50_err_pct = accuracy_errors(pair_values)
        facts = {"delivered_err_pct": delivered_err_pct, "fct_p50_err_pct": fct_p50_err_pct}
        return facts, problems


def accuracy_errors(pairs: Dict[str, Dict[str, float]]) -> Tuple[float, float]:
    """(delivered_err_pct, fct_p50_err_pct): the mean over the accuracy
    pairs of |tiered/packet - 1|, on completed bytes and on FCT p50."""
    def mean_err_pct(field_name: str) -> float:
        errs = [abs(pair[f"tiered_{field_name}"] / pair[f"packet_{field_name}"] - 1.0)
                for pair in pairs.values()]
        return 100.0 * sum(errs) / len(errs)

    return mean_err_pct("bytes"), mean_err_pct("fct_p50_us")


def accuracy_regressions(pairs: Dict[str, Dict[str, float]],
                         pinned: Dict[str, Dict[str, float]]) -> List[str]:
    """Output check: neither error may exceed its pinned value by more
    than ``ACCURACY_SLACK_PT`` points."""
    problems = []
    for name, now, then in zip(("delivered_err_pct", "fct_p50_err_pct"),
                               accuracy_errors(pairs), accuracy_errors(pinned)):
        if now > then + ACCURACY_SLACK_PT:
            problems.append(f"tiered {name} {now:.3f} exceeds the pinned {then:.3f} "
                            f"by more than {ACCURACY_SLACK_PT} pt")
    return problems


# ----------------------------------------------------------------------
class OperaRotor(Workload):
    name = "opera_rotor"
    why = ("TDTCP with 7 TDN state sets on the 8-rack rotor fabric (two-hop relay): "
           "guards against optimisations specialised to the two-rack case")

    def setup(self) -> None:
        self.config = OperaConfig(n_racks=8, n_hosts_per_rack=2, seed=self.seed)

    def rep(self, clock: SliceClock, tracer: Any) -> Any:
        cfg = self.config
        with tracer.span("build_opera_testbed", "rdcn.opera"):
            testbed = build_opera_testbed(cfg)
        with tracer.span("WorkloadEngine", "apps.engine"):
            engine = WorkloadEngine(
                testbed, SeededRandom(self.seed), load=OPERA_LOAD, cdf=OPERA_CDF,
                matrix="all-to-all", connection_cls=TDTCPConnection,
                cc_name="cubic", tdn_count=cfg.n_slots,
                max_flows=self.scale["opera_flows"],
            )
            engine.start()
        testbed.start()
        sim = testbed.sim
        sim.set_heartbeat(clock.tick, HEARTBEAT_EVENTS)
        horizon_ns = self.scale["opera_cycles"] * cfg.cycle_ns
        sim.run(until=horizon_ns)
        return testbed, engine, engine.finish(), horizon_ns

    def outcome(self, produced: Any) -> Outcome:
        testbed, engine, stats, horizon_ns = produced
        sim = testbed.sim
        tors = testbed.tors.values()
        relay_tx = sum(tor.transit_tx for tor in tors)
        summary = stats.summary(horizon_ns, engine.n_racks, engine.load)
        problems = []
        if relay_tx <= 0:
            problems.append("no relay transmissions on the rotor fabric")
        if stats.completed > stats.started:
            problems.append("completed > started")
        counters = {
            "relay_tx": relay_tx,
            "direct_tx": sum(tor.direct_tx for tor in tors),
            "relayed_rx": sum(tor.relayed_rx for tor in tors),
            "events": sim.processed_events,
        }
        host_tx = sum(h.egress.tx_packets for hosts in testbed.hosts.values() for h in hosts)
        voqs = [q for tor in tors for q in tor.voqs.values()]
        facts = {
            "relay_tx": relay_tx,
            "link_tx_packets": host_tx + counters["direct_tx"] + relay_tx,
            "queue_drops": sum(q.drops for q in voqs),
            "voq_max": max(q.max_occupancy for q in voqs),
        }
        return Outcome(
            digest=sim_digest([summary, stats.sketches(), counters]),
            runs=1, failed=0, sim_s=horizon_ns / 1e9, flows=stats.completed,
            problems=problems, engines=[(summary, stats.sketches())], facts=facts,
        )


# ----------------------------------------------------------------------
class CampaignReplay(Workload):
    name = "campaign_replay"
    why = ("many tiny shards through cache, journal, checkpoint and resume: "
           "orchestration does most of the work; judges executor changes")

    def setup(self) -> None:
        n = self.scale["campaign_shards"]
        self.configs = self._shards(n)
        self.labels = [f"shard{i:04d}" for i in range(n)]
        self.tmp = os.path.join(self.tmp_root, "campaign")
        os.makedirs(self.tmp)

    def _shards(self, count: int) -> List[ExperimentConfig]:
        return [
            ExperimentConfig(
                variant="tdtcp", weeks=2, warmup_weeks=1, seed=self.seed + i,
                workload=WorkloadConfig(
                    cdf="custom", custom_cdf=SHARD_CDF, load=0.1, max_flows=5),
            )
            for i in range(count)
        ]

    def _batch(self, name: str, tmp: str, clock: SliceClock, tracer: Any, resume=None):
        path = os.path.join(tmp, f"{name}.jsonl")
        # The span covers opening the journal and building the executor
        # too: that is orchestration cost, not the harness's.
        with tracer.span(f"phase.{name}", "experiments.executor"):
            with CampaignLog(path) as log:
                log.subscribe(clock.tick)
                executor = ExperimentExecutor(
                    jobs=1, cache_dir=os.path.join(tmp, "cache"), campaign=log,
                    checkpoint_to=checkpoint_path(path),
                )
                results = executor.run_batch(
                    self.configs, labels=self.labels, resume_from=resume)
        clock.tick()
        return path, executor, results

    def rep(self, clock: SliceClock, tracer: Any) -> Any:
        tmp = self.tmp
        cold_path, cold_exec, cold = self._batch("cold", tmp, clock, tracer)
        _warm_path, warm_exec, warm = self._batch("warm", tmp, clock, tracer)
        with tracer.span("load_resume_plan", "experiments.checkpoint"):
            plan = load_resume_plan(cold_path)
        clock.tick()
        resume_path, resume_exec, resumed = self._batch(
            "resume", tmp, clock, tracer, resume=plan)
        with tracer.span("phase.summary", "obs.campaign"):
            summary = campaign_summary(read_campaign(cold_path))
        return (cold_exec, cold, warm_exec, warm, resume_exec, resumed, summary,
                resume_path)

    def outcome(self, produced: Any) -> Outcome:
        (cold_exec, cold, warm_exec, warm, resume_exec, resumed, summary,
         resume_path) = produced
        n = len(self.configs)
        resumed_summary = campaign_summary(read_campaign(resume_path))
        # The next rep starts from an empty cache and journal directory.
        shutil.rmtree(self.tmp)
        os.makedirs(self.tmp)
        problems = [r.failure.render() for r in cold if r.failure is not None]
        cold_dicts = [r.to_dict() for r in cold]
        if [r.to_dict() for r in warm] != cold_dicts:
            problems.append("warm results differ from cold results")
        if [r.to_dict() for r in resumed] != cold_dicts:
            problems.append("resumed results differ from cold results")
        if warm_exec.last_batch.cache_misses != 0:
            problems.append(f"warm batch had {warm_exec.last_batch.cache_misses} misses")
        if resume_exec.last_replayed != n:
            problems.append(f"resume replayed {resume_exec.last_replayed} of {n}")
        if sim_digest(resumed_summary) != sim_digest(summary):
            problems.append("resumed campaign_summary differs from the cold one")
        write_errors = sum(
            e.cache.write_errors for e in (cold_exec, warm_exec, resume_exec))
        self.cold_dicts = cold_dicts
        return Outcome(
            digest=sim_digest([cold_dicts, summary]),
            runs=3 * n, failed=_failed(cold) + _failed(warm) + _failed(resumed) + write_errors,
            sim_s=sum(c.duration_ns for c in self.configs) / 1e9,
            flows=sum(r.workload_summary["completed"] for r in cold if r.workload_summary),
            problems=problems, results=cold, engines=_engine_entries(cold),
            facts={
                "retries": cold_exec.last_batch.retries,
                "cache_hits": sum(e.last_batch.cache_hits
                                  for e in (cold_exec, warm_exec, resume_exec)),
                "cache_misses": sum(e.last_batch.cache_misses
                                    for e in (cold_exec, warm_exec, resume_exec)),
            },
        )

    def reference(self, outcome: Outcome) -> Tuple[Dict[str, float], List[str]]:
        """Pool probe: the first shards again at jobs=2, no cache, an
        in-memory campaign log; results must equal the inline ones."""
        count = self.scale["pool_shards"]
        executor = ExperimentExecutor(
            jobs=2, use_cache=False, campaign=CampaignLog(None))
        started = perf_counter()
        pooled = executor.run_batch(self.configs[:count], labels=self.labels[:count])
        pool_s = perf_counter() - started
        problems = [r.failure.render() for r in pooled if r.failure is not None]
        inline = [strip_wall(d) for d in self.cold_dicts[:count]]
        if [strip_wall(r.to_dict()) for r in pooled] != inline:
            problems.append("pool-probe results differ from the inline ones")
        _stop_resource_tracker()
        return {"pool_phase_s": pool_s}, problems


def _stop_resource_tracker() -> None:
    """``run_batch`` has shut its pool down and joined its workers, but
    the spawn context's resource tracker is a child of this interpreter
    that lives until it exits and is never waited for. The benchmark's
    contract is to have stopped, and waited for, every process it
    started before it exits, and multiprocessing has no public call for
    that, hence the private one."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


WORKLOADS: Tuple[type, ...] = (
    Fig7Bulk, RpcChurn, TieredElephants, OperaRotor, CampaignReplay,
)
BY_NAME: Dict[str, type] = {cls.name: cls for cls in WORKLOADS}


def install_slice_clock(clock: Optional[SliceClock]) -> None:
    """Route ``run_experiment``'s heartbeats (the product's public
    liveness hook) to the slice clock; ``None`` clears it. Campaign
    batches install their own hook, so ``campaign_replay`` ticks on
    campaign records instead, and ``opera_rotor`` sets the simulator's
    heartbeat itself."""
    if clock is None:
        set_worker_heartbeat(None)
    else:
        set_worker_heartbeat(clock.tick, HEARTBEAT_EVENTS)
