"""The metric catalogue and how each value is computed.

``BENCHMARK.json`` lists the same names, units and directions (the
self-test compares the two). End-to-end metrics are measured with
tracing off; per-layer metrics come from the traced pass and the public
counters the runs leave behind. A per-layer metric that does not apply
to a workload is reported as 0.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.sketch import QuantileSketch

from tracing import HARNESS, Tracer
from workloads import Outcome

# name -> (unit, better, bound, definition)
END_TO_END: Dict[str, Tuple[str, str, float, str]] = {
    "setup_s": ("s", "lower", 0.25,
                "fresh interpreter start -> timed region start (imports, configs, "
                "CDFs, temp dirs); minimum of one probe per rep"),
    "wall_s": ("s", "lower", 0.25,
               "one rep of the workload's timed region; sum of per-slice minima "
               "over the reps of a run"),
    "wall_s_per_sim_s": ("ratio", "lower", 0.25,
                         "wall_s / sum of simulated horizons of the runs executed"),
    "flows_per_s": ("1/s", "higher", 0.25,
                    "flows finished per host second: engine flows completed / wall_s "
                    "(fig7_bulk: long-lived flows carried to the horizon)"),
    "peak_rss_mb": ("MB", "lower", 0.05,
                    "ru_maxrss of the workload's interpreter after its first rep"),
}

# name -> (unit, better, deterministic, definition)
PER_LAYER: Dict[str, Tuple[str, str, bool, str]] = {
    "sim.events": ("count", "lower", True, "events fired"),
    "sim.loop_self_s": ("s", "lower", False, "Simulator.run minus its callbacks"),
    "sim.loop_ns_per_event": ("ns", "lower", False, "sim.loop_self_s / sim.events"),
    "sim.heap_pushes": ("count", "lower", True, "EventQueue heap pushes"),
    "sim.max_heap_len": ("count", "lower", True, "peak heap length over the runs"),
    "sim.pool_hit_rate": ("ratio", "higher", True, "event pool hits / (hits + misses)"),
    "sim.timer_events": ("count", "lower", True, "events fired through sim.timers.Timer"),
    "sim.fastpath.self_s": ("s", "lower", False, "fluid fast path callbacks"),
    "sim.fastpath.fluid_spans": ("count", "higher", True, "fluid spans entered"),
    "sim.fastpath.fluid_time_share": ("ratio", "higher", True,
                                      "simulated time inside fluid spans / (horizon x groups)"),
    "sim.fastpath.virtual_losses": ("count", "lower", True, "virtual loss episodes"),
    "sim.fastpath.packet_events": ("count", "lower", True,
                                   "events still fired in tiered runs"),
    "sim.fastpath.delivered_err_pct": ("%", "lower", True,
                                       "simulated: mean |tiered/packet - 1| on bytes_completed "
                                       "over the four accuracy pairs"),
    "sim.fastpath.fct_p50_err_pct": ("%", "lower", True,
                                     "simulated: the same on fct_us.p50"),
    "tcp.self_s": ("s", "lower", False, "tcp layer self time"),
    "tcp.segments_in": ("count", "lower", True, "TCPConnection.receive calls"),
    "tcp.ns_per_segment": ("ns", "lower", False, "receive inclusive time / segments_in"),
    "tcp.acks": ("count", "lower", True, "TCPConnection._handle_ack calls"),
    "tcp.ns_per_ack": ("ns", "lower", False, "_handle_ack inclusive time / acks"),
    "tcp.retransmissions": ("count", "lower", True, "bulk senders, from ExperimentResult"),
    "tcp.spurious_retransmissions": ("count", "lower", True, "bulk senders"),
    "tcp.rtos": ("count", "lower", True, "bulk senders"),
    "tcp.fast_recoveries": ("count", "lower", True, "bulk senders"),
    "core.tdtcp.self_s": ("s", "lower", False, "core.tdtcp layer self time"),
    "core.tdtcp.tdn_switches": ("count", "lower", True, "set_current_tdn calls"),
    "core.tdtcp.pace_ticks": ("count", "lower", True, "_on_pace_tick timer events"),
    "mptcp.self_s": ("s", "lower", False, "mptcp layer self time"),
    "mptcp.reinjections": ("count", "lower", True, "from ExperimentResult"),
    "retcp.self_s": ("s", "lower", False, "retcp layer self time"),
    "net.self_s": ("s", "lower", False, "net layer self time"),
    "net.link_tx_packets": ("count", "lower", True,
                            "host egress links + fabric uplinks tx_packets"),
    "net.ns_per_packet": ("ns", "lower", False, "net.self_s / net.link_tx_packets"),
    "net.queue_drops": ("count", "lower", True, "VOQ drops"),
    "net.voq_max": ("count", "lower", True, "peak VOQ occupancy"),
    "rdcn.self_s": ("s", "lower", False, "rdcn (two-rack fabric, notifier) self time"),
    "rdcn.notifier.deliveries": ("count", "lower", True, "notifications delivered"),
    "rdcn.notifier.latency_p50_ns": ("ns", "lower", True, "simulated delivery latency"),
    "rdcn.opera.self_s": ("s", "lower", False, "rdcn.opera layer self time"),
    "rdcn.opera.relay_tx": ("count", "lower", True, "two-hop relay transmissions"),
    "apps.engine.self_s": ("s", "lower", False, "apps layer self time"),
    "apps.engine.flows_started": ("count", "higher", True, "engine flows launched"),
    "apps.engine.flows_completed": ("count", "higher", True, "engine flows delivered"),
    "apps.engine.truncated_flows": ("count", "lower", True, "open at the horizon"),
    "apps.engine.bytes_completed": ("count", "higher", True, "bytes of delivered flows"),
    "apps.engine.fct_p50_us": ("us", "lower", True, "simulated; n = flows_completed"),
    "apps.engine.fct_p99_us": ("us", "lower", True, "simulated; n = flows_completed"),
    "obs.sketch.adds": ("count", "lower", True, "QuantileSketch.add calls"),
    "obs.sketch.self_s": ("s", "lower", False, "obs.sketch self time"),
    "obs.campaign.records": ("count", "lower", True, "CampaignLog.emit calls"),
    "obs.campaign.emit_us": ("us", "lower", False, "emit inclusive time / records"),
    "obs.telemetry_overhead_ratio": ("ratio", "lower", False,
                                     "fig-7 tdtcp run with JSONL telemetry / plain"),
    "faults.audit_overhead_ratio": ("ratio", "lower", False,
                                    "fig-7 tdtcp run with audit=warn / plain"),
    "experiments.runner.run_s": ("s", "lower", False, "sum of run_experiment"),
    "experiments.runner.build_s": ("s", "lower", False,
                                   "run_experiment minus Simulator.run"),
    "experiments.figures.assemble_s": ("s", "lower", False,
                                       "figure/sweep assembly self time"),
    "experiments.fig7.tdtcp_gain_vs_cubic_pct": ("%", "higher", True,
                                                 "simulated: the paper's headline"),
    "experiments.executor.self_s": ("s", "lower", False, "run_batch self time"),
    "experiments.executor.overhead_ms_per_run": ("ms", "lower", False,
                                                 "(first run_batch - its run_experiments) / runs"),
    "experiments.executor.cold_phase_s": ("s", "lower", False, "campaign_replay (a)"),
    "experiments.executor.warm_phase_s": ("s", "lower", False, "campaign_replay (b)"),
    "experiments.executor.resume_phase_s": ("s", "lower", False, "campaign_replay (c)"),
    "experiments.executor.summary_phase_s": ("s", "lower", False, "campaign_replay (d)"),
    "experiments.executor.pool_phase_s": ("s", "lower", False, "jobs=2 pool probe"),
    "experiments.executor.retries": ("count", "lower", True, "BatchStats.retries"),
    "experiments.cache.get_ms": ("ms", "lower", False, "ResultCache.get mean"),
    "experiments.cache.put_ms": ("ms", "lower", False, "ResultCache.put mean"),
    "experiments.cache.get_ms_per_mb": ("ms/MB", "lower", False,
                                        "six fat fig-7 results got once each"),
    "experiments.cache.hits": ("count", "higher", True, "BatchStats.cache_hits"),
    "experiments.cache.misses": ("count", "lower", True, "BatchStats.cache_misses"),
    "experiments.checkpoint.saves": ("count", "lower", True, "CampaignCheckpoint.save calls"),
    "experiments.checkpoint.save_ms": ("ms", "lower", False, "save mean"),
    "experiments.checkpoint.bytes_written": ("count", "lower", True,
                                             "sidecar bytes over all saves"),
    "experiments.checkpoint.load_resume_plan_ms": ("ms", "lower", False,
                                                   "load_resume_plan"),
    "experiments.transport.roundtrip_ms": ("ms", "lower", False,
                                           "(to_dict + from_dict) / runs"),
    "trace.overhead_ratio": ("ratio", "lower", False, "traced rep wall / untraced rep wall"),
    "trace.unattributed_share": ("ratio", "lower", False,
                                 "traced wall under no layer span"),
}


# Slices shorter than this are merged with their neighbours before the
# minimum is taken, so that costs which land at a different point in
# every rep (a full GC pass, a file-system hiccup) are not filtered out
# along with the host's noise.
MIN_SLICE_S = 0.02


def robust_wall_s(reps: List[List[float]]) -> float:
    """Sum over slices of the minimum over reps. Host noise here only
    ever adds time (a contended core runs 1.1-1.9x slower for seconds
    at a stretch), so the minimum of identical work is the estimate of
    the uncontended time, and taking it per slice lets different reps
    supply the quiet sample for different parts of the workload."""
    slices = len(reps[0])
    if any(len(rep) != slices for rep in reps):
        raise ValueError("reps of one seed differ in their number of slices")
    group = max(1, round(MIN_SLICE_S * slices / min(sum(rep) for rep in reps)))
    return sum(min(sum(rep[start:start + group]) for rep in reps)
               for start in range(0, slices, group))


def end_to_end(wall_s: float, outcome: Outcome, setup_s: float,
               peak_rss_mb: float) -> Dict[str, float]:
    return {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "wall_s_per_sim_s": wall_s / outcome.sim_s,
        "flows_per_s": outcome.flows / wall_s,
        "peak_rss_mb": peak_rss_mb,
    }


def _merged_fct(engines: List[Tuple[dict, dict]]) -> Optional[QuantileSketch]:
    merged: Optional[QuantileSketch] = None
    for _summary, sketches in engines:
        state = sketches.get("fct_us")
        if state is None:
            continue
        sketch = QuantileSketch.from_dict(state)
        merged = sketch if merged is None else merged.merge(sketch)
    return merged


def per_layer(tracer: Tracer, outcome: Outcome, results: List[Any],
              reference: Dict[str, float], untraced_wall_s: float) -> Dict[str, float]:
    """Every per-layer metric for one traced rep. ``results`` are the
    rep's ExperimentResults (the first batch's on ``campaign_replay``)."""
    out = {name: 0.0 for name in PER_LAYER}
    layers = tracer.layer_self_s()

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    for layer in ("tcp", "core.tdtcp", "mptcp", "retcp", "net", "rdcn", "rdcn.opera",
                  "apps.engine", "obs.sketch", "sim.fastpath", "experiments.executor"):
        out[f"{layer}.self_s"] = layers.get(layer, 0.0)

    # sim
    events = tracer.total_events()
    _runs, run_inclusive, run_self = tracer.span_total("Simulator.run")
    core = tracer.event_core
    out["sim.events"] = events
    out["sim.loop_self_s"] = run_self
    out["sim.loop_ns_per_event"] = ratio(run_self * 1e9, events)
    out["sim.heap_pushes"] = core.get("heap_pushes", 0)
    out["sim.max_heap_len"] = core.get("max_heap_len", 0)
    out["sim.pool_hit_rate"] = ratio(
        core.get("pool_hits", 0), core.get("pool_hits", 0) + core.get("pool_misses", 0))
    out["sim.timer_events"] = tracer.timer_events

    # sim.fastpath
    reports = [r.fidelity_report for r in results if r.fidelity_report]
    if reports:
        out["sim.fastpath.fluid_spans"] = sum(r["fluid_spans"] for r in reports)
        out["sim.fastpath.virtual_losses"] = sum(r["virtual_losses"] for r in reports)
        # fluid_time_ns adds up every group (fabric direction) of a run.
        out["sim.fastpath.fluid_time_share"] = ratio(
            sum(r["fluid_time_ns"] for r in reports),
            sum(r.duration_ns * max(r.fidelity_report["groups"], 1)
                for r in results if r.fidelity_report))
        out["sim.fastpath.packet_events"] = events
    out["sim.fastpath.delivered_err_pct"] = reference.get("delivered_err_pct", 0.0)
    out["sim.fastpath.fct_p50_err_pct"] = reference.get("fct_p50_err_pct", 0.0)

    # tcp / core / mptcp
    segments, receive_s, _ = tracer.span_total("TCPConnection.receive")
    acks, ack_s, _ = tracer.span_total("TCPConnection._handle_ack")
    out["tcp.segments_in"] = segments
    out["tcp.ns_per_segment"] = ratio(receive_s * 1e9, segments)
    out["tcp.acks"] = acks
    out["tcp.ns_per_ack"] = ratio(ack_s * 1e9, acks)
    for field in ("retransmissions", "spurious_retransmissions", "rtos", "fast_recoveries"):
        out[f"tcp.{field}"] = sum(getattr(r, field) for r in results)
    out["core.tdtcp.tdn_switches"] = tracer.span_total("TDTCPConnection.set_current_tdn")[0]
    out["core.tdtcp.pace_ticks"] = tracer.event_count("TDTCPConnection._on_pace_tick")
    out["mptcp.reinjections"] = sum(r.reinjections for r in results)

    # net / rdcn: public counters of the testbeds the runs started
    facts = dict(outcome.facts)
    for testbed in tracer.testbeds:
        uplinks = list(testbed.uplinks.values())
        facts["link_tx_packets"] = facts.get("link_tx_packets", 0) + sum(
            h.egress.tx_packets for hosts in testbed.hosts.values() for h in hosts
        ) + sum(u.tx_packets for u in uplinks)
        facts["queue_drops"] = facts.get("queue_drops", 0) + sum(
            u.queue.drops for u in uplinks)
        facts["voq_max"] = max(
            [facts.get("voq_max", 0)] + [u.queue.max_occupancy for u in uplinks])
    out["net.link_tx_packets"] = facts.get("link_tx_packets", 0)
    out["net.ns_per_packet"] = ratio(out["net.self_s"] * 1e9, out["net.link_tx_packets"])
    out["net.queue_drops"] = facts.get("queue_drops", 0)
    out["net.voq_max"] = facts.get("voq_max", 0)
    latencies = [v for r in results for v in r.notification_latencies]
    out["rdcn.notifier.deliveries"] = len(latencies)
    out["rdcn.notifier.latency_p50_ns"] = statistics.median(latencies) if latencies else 0.0
    out["rdcn.opera.relay_tx"] = facts.get("relay_tx", 0)

    # apps
    engines = outcome.engines
    for key, field in (("flows_started", "started"), ("flows_completed", "completed"),
                       ("truncated_flows", "truncated_flows"),
                       ("bytes_completed", "bytes_completed")):
        out[f"apps.engine.{key}"] = sum(summary[field] for summary, _ in engines)
    fct = _merged_fct(engines)
    if fct is not None and fct.count:
        out["apps.engine.fct_p50_us"] = fct.quantile(0.5)
        out["apps.engine.fct_p99_us"] = fct.quantile(0.99)

    # obs
    out["obs.sketch.adds"] = tracer.span_total("QuantileSketch.add")[0]
    records, emit_s, _ = tracer.span_total("CampaignLog.emit")
    out["obs.campaign.records"] = records
    out["obs.campaign.emit_us"] = ratio(emit_s * 1e6, records)
    out["obs.telemetry_overhead_ratio"] = reference.get("telemetry_overhead_ratio", 0.0)
    out["faults.audit_overhead_ratio"] = reference.get("audit_overhead_ratio", 0.0)

    # experiments
    run_count, runner_s, _ = tracer.span_total("run_experiment")
    out["experiments.runner.run_s"] = runner_s
    out["experiments.runner.build_s"] = runner_s - run_inclusive if run_count else 0.0
    out["experiments.figures.assemble_s"] = layers.get("experiments.figures", 0.0)
    out["experiments.fig7.tdtcp_gain_vs_cubic_pct"] = facts.get("fig7_gain_pct", 0.0)
    batches = tracer.phases_named("ExperimentExecutor.run_batch")
    if batches:
        first = batches[0]
        inside = [p for p in tracer.phases_named("run_experiment")
                  if first["start_s"] <= p["start_s"] < first["end_s"]]
        if inside:
            spent = sum(p["end_s"] - p["start_s"] for p in inside)
            out["experiments.executor.overhead_ms_per_run"] = (
                (first["end_s"] - first["start_s"] - spent) * 1e3 / len(inside))
    for phase in ("cold", "warm", "resume", "summary"):
        out[f"experiments.executor.{phase}_phase_s"] = tracer.span_total(f"phase.{phase}")[1]
    out["experiments.executor.pool_phase_s"] = reference.get("pool_phase_s", 0.0)
    out["experiments.executor.retries"] = facts.get("retries", 0)
    gets, get_s, _ = tracer.span_total("ResultCache.get")
    puts, put_s, _ = tracer.span_total("ResultCache.put")
    out["experiments.cache.get_ms"] = ratio(get_s * 1e3, gets)
    out["experiments.cache.put_ms"] = ratio(put_s * 1e3, puts)
    out["experiments.cache.get_ms_per_mb"] = reference.get("cache_get_ms_per_mb", 0.0)
    out["experiments.cache.hits"] = facts.get("cache_hits", 0)
    out["experiments.cache.misses"] = facts.get("cache_misses", 0)
    saves, save_s, _ = tracer.span_total("CampaignCheckpoint.save")
    out["experiments.checkpoint.saves"] = saves
    out["experiments.checkpoint.save_ms"] = ratio(save_s * 1e3, saves)
    out["experiments.checkpoint.bytes_written"] = tracer.checkpoint_bytes
    out["experiments.checkpoint.load_resume_plan_ms"] = (
        tracer.span_total("load_resume_plan")[1] * 1e3)
    transport_s = (tracer.span_total("ExperimentResult.to_dict")[1]
                   + tracer.span_total("ExperimentResult.from_dict")[1])
    out["experiments.transport.roundtrip_ms"] = ratio(transport_s * 1e3, run_count)

    out["trace.overhead_ratio"] = ratio(tracer.wall_s, untraced_wall_s)
    out["trace.unattributed_share"] = ratio(layers.get(HARNESS, 0.0), tracer.wall_s)
    return out


def layer_shares(tracer: Tracer) -> Dict[str, float]:
    """Self-time share of the traced wall per layer (sums to 1)."""
    wall = tracer.wall_s
    return {layer: self_s / wall for layer, self_s in sorted(tracer.layer_self_s().items())}
