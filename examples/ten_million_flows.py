#!/usr/bin/env python3
"""Ten million flows through the tiered fluid fast path.

A campaign-scale workload-engine run, sharded for checkpoint/resume:
the flow target is split into independent seeded shards (each one
ExperimentConfig on the paper's two-rack RDCN at ``fidelity="tiered"``),
executed through :class:`ExperimentExecutor` with a campaign journal
and result cache. Kill it at any point and rerun with ``--resume``:
completed shards replay from the journal + cache, only the remainder
executes. Memory stays flat at any flow count — completions
stream into DDSketch quantile sketches whose merge is exactly
associative, so the sharded campaign's merged percentiles are the same
whatever order (or how many attempts) the shards took.

Flow mixes:

* ``data-mining`` (default) — the paper's elephant-heavy mix, the
  fluid model's home turf: long steady in-slot transfers integrate
  analytically and wall clock drops well below packet fidelity.
* ``web-search`` — mixed mice/elephants; arrivals fold into live
  spans, still several times faster than packet fidelity.
* ``rpc`` — small-RPC mix (2-64 KB) with ~200k arrivals per simulated
  second. Churn this fast never reaches the steady state a fluid span
  needs, so the fast path stays dormant and the run is effectively
  packet fidelity — but per-flow cost is small, which is what makes a
  100k-flow CI shard feasible. This is the honest trade: tiered
  fidelity buys time on elephants, not on RPC floods.

Run:

    python examples/ten_million_flows.py                  # full 10M campaign
    python examples/ten_million_flows.py --ci             # 100k-flow CI variant
    python examples/ten_million_flows.py --flows 200 --compare-packet

    # crash-safe: journal + cache, kill it, then resume
    python examples/ten_million_flows.py --ci --journal camp.jsonl
    python examples/ten_million_flows.py --ci --journal camp.jsonl --resume

The full 10M run is a *campaign* (hours of wall clock, like the
10k-run sweeps it stands in for) on one machine: ``--jobs`` spreads the
shards over local cores, and ``--journal`` + ``--resume`` let it stop
and pick up where it left off.
"""

import argparse
import math
import sys
import time

from repro.apps.engine import average_fabric_rate_bps
from repro.apps.tracegen import DATA_MINING_CDF, WEB_SEARCH_CDF, EmpiricalFlowSizes
from repro.experiments.checkpoint import checkpoint_path, load_resume_plan
from repro.experiments.config import ExperimentConfig, WorkloadConfig
from repro.experiments.executor import ExperimentExecutor
from repro.obs.campaign import CampaignLog
from repro.obs.sketch import QuantileSketch
from repro.rdcn.config import RDCNConfig
from repro.sim.rng import SeededRandom

#: Small-RPC mix: cheap per flow, ~200k arrivals per simulated second.
RPC_CDF = ((0.0, 2_000), (0.5, 4_000), (0.9, 16_000), (1.0, 64_000))

CDFS = {
    "web-search": WEB_SEARCH_CDF,
    "data-mining": DATA_MINING_CDF,
    "rpc": RPC_CDF,
}


def workload_for(mix: str, load: float, max_flows: int) -> WorkloadConfig:
    if mix in ("web-search", "data-mining"):
        return WorkloadConfig(kind="empirical", cdf=mix, load=load,
                              matrix="permutation", max_flows=max_flows)
    return WorkloadConfig(kind="empirical", cdf="custom", custom_cdf=CDFS[mix],
                          load=load, matrix="permutation", max_flows=max_flows)


def plan_weeks(rdcn: RDCNConfig, mix: str, load: float, flows: int, warmup: int) -> int:
    """Weeks needed to offer ``flows`` arrivals, plus a 10% drain tail."""
    mean_size = EmpiricalFlowSizes(CDFS[mix], SeededRandom(0)).mean()
    rate_per_s = load * 2 * average_fabric_rate_bps(rdcn) / 8.0 / mean_size
    week_s = rdcn.week_ns / 1e9
    arrival_weeks = flows / (rate_per_s * week_s)
    return warmup + max(int(math.ceil(arrival_weeks * 1.1)), 1)


def shard_configs(args, fidelity: str):
    """One seeded config per shard; shards are independent fabrics."""
    rdcn = RDCNConfig()
    shards = max(-(-args.flows // args.shard_flows), 1)
    configs, labels = [], []
    for index in range(shards):
        flows = min(args.shard_flows, args.flows - index * args.shard_flows)
        weeks = plan_weeks(rdcn, args.cdf, args.load, flows, args.warmup)
        configs.append(ExperimentConfig(
            variant=args.variant,
            rdcn=rdcn,
            weeks=weeks,
            warmup_weeks=args.warmup,
            seed=args.seed + index,
            collect_voq=False,
            collect_sequence=False,
            fidelity=fidelity,
            workload=workload_for(args.cdf, args.load, flows),
        ))
        labels.append(f"shard{index:05d}")
    return configs, labels


def run_campaign(args, fidelity: str, journal: bool = True):
    configs, labels = shard_configs(args, fidelity)
    total_weeks = sum(c.weeks for c in configs)
    sim_s = sum(c.duration_ns for c in configs) / 1e9
    print(f"[{fidelity}] {args.flows:,} flows over {len(configs)} shards "
          f"({total_weeks:,} optical weeks, {sim_s:.2f} simulated seconds)")

    resume = None
    campaign = None
    cache_dir = None
    log_path = args.journal if journal else None
    if log_path:
        cache_dir = f"{log_path}.cache"
        if args.resume:
            resume = load_resume_plan(log_path)
            print(f"  resume: {len(resume.checkpoint.runs)} terminal shards in "
                  f"{log_path}")
            log_path = f"{log_path}.resumed.jsonl"
        campaign = CampaignLog(log_path)
    executor = ExperimentExecutor(
        jobs=args.jobs,
        cache_dir=cache_dir,
        campaign=campaign,
        resume=resume,
        checkpoint_to=checkpoint_path(log_path) if log_path else None,
    )
    started = time.perf_counter()
    try:
        results = executor.run_batch(configs, labels=labels)
    finally:
        if campaign is not None:
            campaign.close()
    wall = time.perf_counter() - started
    failed = [(label, r) for label, r in zip(labels, results) if r.failure is not None]
    for label, r in failed:
        print(f"  {label}: {r.failure.render()}", file=sys.stderr)
    if failed:
        raise SystemExit(1)
    if resume is not None:
        print(f"  resume: {executor.last_replayed} shards replayed, "
              f"{executor.last_fresh} executed fresh")
    return results, wall


def aggregate(results):
    """Fold shard results: summed counters, exactly-merged sketches."""
    totals = {"started": 0, "completed": 0, "truncated": 0, "engine_wall_s": 0.0}
    sketches = {}
    fluid = {"fluid_spans": 0, "fluid_time_ns": 0, "virtual_losses": 0}
    exit_reasons = {}
    for result in results:
        summary = result.workload_summary or {}
        totals["started"] += summary.get("started", 0)
        totals["completed"] += summary.get("completed", 0)
        totals["truncated"] += result.truncated_flows
        totals["engine_wall_s"] += summary.get("engine_wall_s", 0.0)
        for family, state in (result.sketches or {}).items():
            sketch = QuantileSketch.from_dict(state)
            if family in sketches:
                sketches[family].merge(sketch)
            else:
                sketches[family] = sketch
        report = result.fidelity_report
        if report is not None and not report["forced_packet"]:
            for key in fluid:
                fluid[key] += report[key]
            for reason, count in report["exit_reasons"].items():
                exit_reasons[reason] = exit_reasons.get(reason, 0) + count
    fluid["exit_reasons"] = exit_reasons
    return totals, sketches, fluid


def report(totals, sketches, fluid, wall: float, fidelity: str) -> None:
    done = totals["completed"]
    print(f"  flows: {totals['started']:,} started, {done:,} completed, "
          f"{totals['truncated']:,} truncated")
    engine_wall = totals["engine_wall_s"]
    if engine_wall > 0:
        print(f"  rate: {done / wall:,.0f} completed flows/s of campaign wall "
              f"({wall:.1f}s); {done / engine_wall:,.0f} flows/s of summed "
              f"engine wall ({engine_wall:.1f}s)")
    for family, sketch in sorted(sketches.items()):
        cells = "  ".join(
            f"{label}={value:.2f}"
            for label, value in sketch.percentiles().items()
            if value is not None
        )
        print(f"  {family}: {cells or '(no completions)'} (n={sketch.count:,})")
    if fidelity == "tiered":
        print(f"  fidelity: {fluid['fluid_spans']} fluid spans covering "
              f"{fluid['fluid_time_ns'] / 1e6:.1f} ms, "
              f"{fluid['virtual_losses']} virtual losses, "
              f"exits {fluid['exit_reasons']}")


def write_cdfs(sketches, directory: str) -> None:
    import csv
    import pathlib

    out = pathlib.Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    for family, sketch in sorted(sketches.items()):
        path = out / f"ten_million_flows_{family}_cdf.csv"
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["value", "cum_probability"])
            for value, prob in sketch.cdf_points():
                writer.writerow([f"{value:.6g}", f"{prob:.6g}"])
        print(f"  wrote {path}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--flows", type=int, default=10_000_000,
                        help="flow arrivals to offer (default: 10,000,000)")
    parser.add_argument("--ci", action="store_true",
                        help="CI-sized variant: 100,000 rpc-mix flows in 10k-flow shards")
    parser.add_argument("--shard-flows", type=int, default=2_000,
                        help="flows per shard / checkpoint unit (default: 2,000)")
    parser.add_argument("--load", type=float, default=0.6,
                        help="offered load as a fraction of fabric capacity")
    parser.add_argument("--cdf", choices=tuple(CDFS), default="data-mining",
                        help="flow-size mix (default: data-mining)")
    parser.add_argument("--variant", default="tdtcp")
    parser.add_argument("--seed", type=int, default=1,
                        help="base seed; shard i runs with seed+i")
    parser.add_argument("--warmup", type=int, default=2,
                        help="warm-up weeks excluded from load accounting")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the shard batch")
    parser.add_argument("--journal", metavar="JSONL", default=None,
                        help="campaign journal path; enables the result cache and "
                             "the status sidecar (written when the batch ends) next "
                             "to it")
    parser.add_argument("--resume", action="store_true",
                        help="resume from --journal: completed shards replay from "
                             "the cache, the rest execute")
    parser.add_argument("--compare-packet", action="store_true",
                        help="also run packet fidelity and print the wall-clock ratio")
    parser.add_argument("--cdf-out", metavar="DIR", default=None,
                        help="write merged FCT / slowdown CDF curves")
    args = parser.parse_args()
    if args.ci:
        args.flows = 100_000
        args.cdf = "rpc"
        args.shard_flows = 10_000
    if args.resume and not args.journal:
        parser.error("--resume needs --journal")

    results, wall = run_campaign(args, "tiered")
    totals, sketches, fluid = aggregate(results)
    report(totals, sketches, fluid, wall, "tiered")
    if args.cdf_out:
        write_cdfs(sketches, args.cdf_out)
    if args.compare_packet:
        packet_results, packet_wall = run_campaign(args, "packet", journal=False)
        p_totals, p_sketches, p_fluid = aggregate(packet_results)
        report(p_totals, p_sketches, p_fluid, packet_wall, "packet")
        if wall > 0:
            print(f"\ntiered speedup: {packet_wall / wall:.1f}x wall clock "
                  f"({packet_wall:.1f}s packet vs {wall:.1f}s tiered)")


if __name__ == "__main__":
    main()
