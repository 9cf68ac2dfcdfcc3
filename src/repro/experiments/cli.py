"""Command-line entry point: regenerate paper figures from a shell.

Usage::

    python -m repro.experiments.cli fig7 --weeks 40 --flows 8
    python -m repro.experiments.cli fig7 --jobs 4 --cache-dir out/cache
    python -m repro.experiments.cli fig10 --csv out/
    python -m repro.experiments.cli fig7 --trace-out out/ --metrics-out out/ --profile
    python -m repro.experiments.cli sweep-ratio
    python -m repro.experiments.cli sweep-load --loads 0.2,0.4 --variants cubic,tdtcp --jobs 2
    python -m repro.experiments.cli replay-trace --trace flows.csv --variant tdtcp
    python -m repro.experiments.cli chaos --fault-plan examples/fault_plans/day_one_storm.json --audit fail
    python -m repro.experiments.cli list

The renderers and the sweeps are imported by the targets that use them.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import pathlib
import sys
import tempfile
from typing import Callable, Dict, List, Optional, Tuple

from repro.experiments.checkpoint import checkpoint_path, load_resume_plan
from repro.experiments.config import ExperimentConfig, WorkloadConfig
from repro.experiments.executor import CampaignAborted, ExperimentExecutor
from repro.experiments.figures import FIGURES
from repro.obs.campaign import CampaignLog
from repro.obs.telemetry import ObsConfig
from repro.experiments.variants import engine_variants
from repro.net.queues import BUFFER_POLICIES

#: The flags that build a ToR buffer (:meth:`RDCNConfig.with_buffer`).
BUFFER_FLAGS = ("--buffer-policy", "--buffer-total", "--buffer-alpha")

#: Exit code for a SIGINT/SIGTERM campaign abort (EX_TEMPFAIL): the
#: campaign checkpointed cleanly and ``--resume`` will pick it up —
#: distinct from 1 (a run actually failed).
EXIT_ABORTED = 75


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.experiments.cli",
        description="Regenerate the TDTCP paper's figures on the simulator.",
    )
    parser.add_argument("target", help="one of: " + ", ".join(TARGETS))
    parser.add_argument("--weeks", type=int, default=24, help="optical weeks to simulate")
    parser.add_argument("--warmup", type=int, default=8, help="warm-up weeks excluded from averages")
    parser.add_argument("--flows", type=int, default=8, help="parallel cross-rack flows")
    parser.add_argument("--seed", type=int, default=1, help="simulation seed")
    parser.add_argument(
        "--fidelity", choices=("packet", "tiered"), default="packet",
        help="simulation fidelity: 'packet' (exact, default) or 'tiered' "
             "(fluid fast path for steady in-slot transfer; unsupported "
             "runs fall back to packet with a logged reason)",
    )
    parser.add_argument("--csv", metavar="DIR", default=None, help="also write series as CSV files")
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for figure/sweep batches (default: 1 = in-process)",
    )
    parser.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="on-disk result cache keyed by config content hash; a warm cache re-run executes zero simulations",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="neither read nor write the result cache even when --cache-dir is set",
    )
    parser.add_argument(
        "--trace-out", metavar="DIR", default=None,
        help="record tracepoints; write JSONL, Chrome trace JSON, and CSVs here",
    )
    parser.add_argument(
        "--metrics-out", metavar="DIR", default=None,
        help="derive the metrics registry from tracepoints; write its JSON snapshot here",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="attribute simulator wall time per event callback and print the report",
    )
    parser.add_argument(
        "--tracepoints", metavar="GLOB", default="*",
        help="glob over tracepoint names to record (default: all, e.g. 'tcp:*')",
    )
    parser.add_argument(
        "--fault-plan", metavar="JSON", default=None,
        help="fault-plan JSON file (repro.faults) armed on the testbed before the run",
    )
    parser.add_argument(
        "--audit", choices=("warn", "fail"), default=None,
        help="run the invariant auditor: 'warn' records violations, 'fail' aborts the run",
    )
    parser.add_argument(
        "--bundle-dir", metavar="DIR", default="out/bundles",
        help="where crash-capture repro bundles are written (default: out/bundles)",
    )
    parser.add_argument(
        "--watchdog-events", type=int, default=None,
        help="abort a run after this many simulator events",
    )
    parser.add_argument(
        "--watchdog-wall", type=float, default=None,
        help="abort a run after this many wall-clock seconds",
    )
    parser.add_argument(
        "--campaign-log", metavar="JSONL", default=None,
        help="append run-lifecycle events (queued/started/heartbeat/finished/…) to this JSONL file",
    )
    parser.add_argument(
        "--resume", metavar="JSONL", default=None,
        help="resume an interrupted campaign from its journal: completed runs are "
             "replayed from the journal + result cache, only the "
             "remainder executes (new journal defaults to <log>.resumed.jsonl)",
    )
    parser.add_argument(
        "--variant", default="tdtcp",
        help="variant for the 'chaos' and 'replay-trace' targets (default: tdtcp)",
    )
    parser.add_argument(
        "--buffer-policy", choices=BUFFER_POLICIES, default=None,
        help="ToR buffer sharing policy for the figure targets; restricts 'sweep-buffer' to one policy",
    )
    parser.add_argument(
        "--buffer-total", type=int, default=None,
        help="total ToR buffer (packets) shared by the pool, for the figure targets; "
             "restricts 'sweep-buffer' to one total",
    )
    parser.add_argument(
        "--buffer-alpha", type=float, default=None,
        help="dynamic-threshold alpha (admit while VOQ length < alpha x free pool), "
             "for the figure targets and 'sweep-buffer'",
    )
    parser.add_argument(
        "--check-determinism", action="store_true",
        help="chaos target: run twice and require byte-identical JSONL traces",
    )
    parser.add_argument(
        "--loads", default="0.2,0.4,0.6",
        help="sweep-load: comma-separated offered loads in (0, 1] (default: 0.2,0.4,0.6)",
    )
    parser.add_argument(
        "--variants", default="cubic,tdtcp",
        help="sweep-load: comma-separated engine variants (default: cubic,tdtcp)",
    )
    parser.add_argument(
        "--workload-cdf", choices=("web-search", "data-mining"), default="web-search",
        help="empirical flow-size CDF for sweep-load (default: web-search)",
    )
    parser.add_argument(
        "--matrix", choices=("permutation", "all-to-all", "hotspot"),
        default="permutation",
        help="traffic matrix for sweep-load (default: permutation); on the "
             "two-rack fabric all-to-all has the same pair weights as permutation",
    )
    parser.add_argument(
        "--hotspot-fraction", type=float, default=0.5,
        help="fraction of arrivals redirected to the hotspot pair (matrix=hotspot)",
    )
    parser.add_argument(
        "--cdf-out", metavar="DIR", default=None,
        help="sweep-load: also write per-(load, variant) FCT and slowdown "
             "CDF curves decoded from the runs' DDSketch states",
    )
    parser.add_argument(
        "--max-flows", type=int, default=None,
        help="stop launching workload-engine flows after this many",
    )
    parser.add_argument(
        "--trace", metavar="CSV", default=None,
        help="replay-trace: workload trace CSV (start_ns,src,dst,size_bytes)",
    )
    parser.add_argument(
        "--lenient-trace", action="store_true",
        help="skip malformed trace rows (counted) instead of failing on the first",
    )
    return parser


def run_fields(args) -> dict:
    """The run-level flags as :class:`ExperimentConfig` fields — the one
    place a flag becomes a field. Every target spreads this into the
    configs it builds, so a flag listed here applies to every target.
    Unset flags are left out: the target's own default stands. (The
    ``--buffer-*`` flags are not run fields: only the figure targets and
    ``sweep-buffer`` take them, and :func:`main` refuses them
    elsewhere.)"""
    obs = None
    if args.trace_out or args.metrics_out or args.profile:
        obs = ObsConfig(
            trace_dir=args.trace_out,
            metrics_dir=args.metrics_out,
            profile=args.profile,
            tracepoints=args.tracepoints,
        )
    fields = dict(
        weeks=args.weeks,
        warmup_weeks=args.warmup,
        n_flows=args.flows,
        seed=args.seed,
        fidelity=args.fidelity,
        obs=obs,
        fault_plan_path=args.fault_plan,
        # The chaos target audits in fail mode unless overridden.
        audit=args.audit or ("fail" if args.target == "chaos" else None),
        watchdog_max_events=args.watchdog_events,
        watchdog_max_wall_s=args.watchdog_wall,
        bundle_dir=args.bundle_dir,
    )
    return {name: value for name, value in fields.items() if value is not None}


def executor_from_args(args) -> ExperimentExecutor:
    """One executor per CLI invocation: worker count, cache location
    and campaign bus straight from the flags, one
    ``[done/total] label: outcome`` progress line per run on stderr.

    ``--resume`` loads the prior journal *before* the new log opens
    (opening truncates), defaults the new journal to
    ``<log>.resumed.jsonl`` so the original survives as evidence, and
    arms the executor's replay plan. Any journal-producing run also
    writes the ``<log>.ckpt.json`` status sidecar, once per batch when
    it ends or aborts; the journal is the live status."""
    resume = None
    log_path = args.campaign_log
    if args.resume:
        resume = load_resume_plan(args.resume)
        if resume.partial_tail is not None:
            print(f"resume: tolerated truncated journal tail in {args.resume}",
                  file=sys.stderr)
        print(f"resume: {len(resume.checkpoint.runs)} terminal runs in "
              f"{args.resume}", file=sys.stderr)
        if log_path is None:
            log_path = str(pathlib.Path(args.resume).with_suffix("")) + ".resumed.jsonl"
    campaign = CampaignLog(log_path) if log_path else None

    def progress(done: int, total: int, label: str, outcome: str) -> None:
        print(f"  [{done}/{total}] {label}: {outcome}", file=sys.stderr)

    plain = args.jobs > 1 or args.cache_dir or campaign is not None
    return ExperimentExecutor(
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
        progress=progress if plain else None,
        campaign=campaign,
        resume=resume,
        checkpoint_to=checkpoint_path(log_path) if log_path else None,
    )


def finish_campaign(executor: ExperimentExecutor) -> List[str]:
    """Close the invocation's campaign log and return the trailer every
    executor-backed target prints: batch stats, resume split, log path."""
    lines = [f"executor: {executor.last_batch.render()}"]
    if executor.resume is not None:
        lines.append(f"resume: {executor.last_replayed} replayed, "
                     f"{executor.last_fresh} executed fresh")
    if executor.campaign is not None:
        executor.campaign.close()
        if executor.campaign.path:
            lines.append(f"campaign log: {executor.campaign.path}")
    return lines


def run_figure(name: str, args) -> int:
    """Run one figure; failed variants degrade the figure (reported
    per-variant on stderr, exit 1) instead of aborting it."""
    from repro.experiments.report import (
        figure_to_csv,
        render_fig10,
        render_headline_claims,
        render_seq_graph,
        render_throughput_summary,
        render_voq_graph,
    )

    executor = executor_from_args(args)
    data = FIGURES[name](
        executor=executor,
        rdcn_override=lambda rdcn: rdcn.with_buffer(
            args.buffer_total, args.buffer_policy, args.buffer_alpha
        ),
        **run_fields(args),
    )
    sections = [render_throughput_summary(data)]
    if data.seq_curves:
        sections.insert(0, render_seq_graph(data))
    if data.voq_curves:
        sections.append(render_voq_graph(data))
    if name == "fig7":
        sections.append(render_headline_claims(data))
    if name == "fig10":
        sections.append(render_fig10(data))
    if args.csv:
        written = figure_to_csv(data, args.csv)
        sections.append("CSV written:\n  " + "\n  ".join(written))
    artifacts = [path for result in data.results.values() for path in result.artifacts]
    if artifacts:
        sections.append("telemetry artifacts:\n  " + "\n  ".join(artifacts))
    if args.profile:
        for variant, result in data.results.items():
            if result.profile_report:
                sections.append(f"profile [{name}/{variant}]\n{result.profile_report}")
    reports = [
        line
        for variant, result in data.results.items()
        for line in result.render_reports(f"[{name}/{variant}] ")
    ]
    if reports:
        sections.append("\n".join(reports))
    sections.extend(finish_campaign(executor))
    print("\n\n".join(sections))
    if data.failures:
        for variant, failure in sorted(data.failures.items()):
            print(f"[{name}/{variant}] {failure.render()}", file=sys.stderr)
        return 1
    return 0


def run_chaos(args) -> int:
    """The chaos target: one bulk run under a fault plan with the
    invariant auditor on (fail mode unless overridden), as an executor
    batch. Exits non-zero with the repro-bundle path printed when the
    run fails."""
    run = run_fields(args)
    executor = executor_from_args(args)
    [result] = executor.run_batch([ExperimentConfig(variant=args.variant, **run)])
    lines = result.render_reports()
    error = result.failure.render() if result.failure is not None else None
    if error is None:
        lines.append(f"delivered: {result.aggregate_delivered:,} bytes "
                     f"({result.throughput_gbps:.2f} Gbps aggregate)")
        if args.check_determinism:
            passed, message = check_determinism(executor, args.variant, run)
            if passed:
                lines.append(message)
            else:
                error = message
    print("\n".join(lines + finish_campaign(executor)))
    if error is not None:
        print(error, file=sys.stderr)
        return 1
    return 0


def check_determinism(executor: ExperimentExecutor, variant: str, run: dict) -> Tuple[bool, str]:
    """Run the chaos config twice more, as one batch, each replica
    writing a JSONL trace: ``(passed, the line to print)``. A replica
    that fails, or two traces that differ, fail the check."""
    replicas = ("a", "b")
    with tempfile.TemporaryDirectory() as tmp:
        configs = [
            ExperimentConfig(variant=variant, **dict(run, obs=ObsConfig(
                trace_dir=tmp, label=f"chaos_{replica}", chrome_trace=False, csv=False)))
            for replica in replicas
        ]
        labels = [f"{variant}/seed{config.seed}/replica-{replica}"
                  for config, replica in zip(configs, replicas)]
        for result in executor.run_batch(configs, labels=labels):
            if result.failure is not None:
                return False, result.failure.render()
        first, second = (
            hashlib.sha256((pathlib.Path(tmp) / f"chaos_{replica}.jsonl").read_bytes()).hexdigest()
            for replica in replicas
        )
    if first != second:
        return False, f"determinism check FAILED: {first} != {second}"
    return True, f"determinism check passed: trace sha256 {first[:16]}…"


def run_sweep_load(args) -> int:
    """The sweep-load target: offered load x variant grid through the
    workload engine, one executor batch (parallel / cached /
    checkpointable like every other campaign)."""
    from repro.experiments.report import fct_cdf_to_csv, load_sweep_to_csv
    from repro.experiments.sweeps import load_sweep

    try:
        loads = tuple(float(v) for v in args.loads.split(",") if v.strip())
    except ValueError:
        print(f"--loads must be comma-separated floats, got {args.loads!r}",
              file=sys.stderr)
        return 2
    variants = tuple(v.strip() for v in args.variants.split(",") if v.strip())
    if not loads or not variants:
        print("--loads and --variants must each name at least one value",
              file=sys.stderr)
        return 2
    unsupported = [v for v in variants if v not in engine_variants()]
    if unsupported:
        print(f"--variants: {', '.join(unsupported)} not supported by the workload "
              f"engine; supported: {', '.join(engine_variants())}", file=sys.stderr)
        return 2
    executor = executor_from_args(args)
    result = load_sweep(
        loads=loads,
        variants=variants,
        cdf=args.workload_cdf,
        matrix=args.matrix,
        hotspot_fraction=args.hotspot_fraction,
        max_flows=args.max_flows,
        executor=executor,
        **run_fields(args),
    )
    print(result.render())
    if args.csv:
        written = load_sweep_to_csv(result, args.csv)
        print("CSV written:\n  " + "\n  ".join(written))
    if args.cdf_out:
        written = []
        for family in ("fct_us", "slowdown"):
            written.extend(fct_cdf_to_csv(result, args.cdf_out, sketch=family))
        print("CDF CSV written:\n  " + "\n  ".join(written))
    print("\n".join(result.reports + finish_campaign(executor)))
    return 0 if result.ok else 1


def run_replay_trace(args) -> int:
    """The replay-trace target: one engine run replaying a CSV trace
    (``start_ns,src,dst,size_bytes``) under ``--variant``."""
    if not args.trace:
        print("replay-trace needs --trace CSV", file=sys.stderr)
        return 2
    try:
        workload = WorkloadConfig(
            kind="trace",
            trace_path=args.trace,
            strict_trace=not args.lenient_trace,
            max_flows=args.max_flows,
        )
    except (OSError, ValueError) as error:
        print(f"replay-trace: {error}", file=sys.stderr)
        return 2
    executor = executor_from_args(args)
    [result] = executor.run_batch([ExperimentConfig(
        variant=args.variant,
        workload=workload,
        collect_voq=False,
        collect_sequence=False,
        **run_fields(args),
    )])
    lines = result.render_reports()
    if result.failure is None:
        summary = result.workload_summary or {}
        lines += [
            f"trace: {args.trace}",
            f"flows: {summary.get('started', 0)} offered, "
            f"{summary.get('completed', 0)} completed, "
            f"{result.truncated_flows} truncated, "
            f"{summary.get('trace_rows_skipped', 0)} rows skipped "
            f"(completion rate {summary.get('completion_rate', 0.0):.3f})",
            f"bytes: {summary.get('bytes_completed', 0):,} delivered of "
            f"{summary.get('bytes_offered', 0):,} offered",
        ]
        for family in ("fct_us", "slowdown"):
            cells = "  ".join(
                f"{label}={value:.2f}"
                for label, value in (summary.get(family) or {}).items()
                if value is not None
            )
            lines.append(f"{family}: {cells or '(no completions)'}")
    print("\n".join(lines + finish_campaign(executor)))
    if result.failure is not None:
        print(result.failure.render(), file=sys.stderr)
        return 1
    return 0


def run_sweep(args) -> int:
    """The sweep-ratio / sweep-day / sweep-buffer targets."""
    from repro.experiments.report import sweep_to_csv
    from repro.experiments.sweeps import (
        buffer_economics_sweep,
        day_length_sweep,
        duty_ratio_sweep,
    )

    executor = executor_from_args(args)
    common = dict(executor=executor, **run_fields(args))
    if args.target == "sweep-buffer":
        buffer_kwargs = {}
        if args.buffer_total is not None:
            buffer_kwargs["totals"] = (args.buffer_total,)
        if args.buffer_policy is not None:
            buffer_kwargs["policies"] = (args.buffer_policy,)
        if args.buffer_alpha is not None:
            buffer_kwargs["alpha"] = args.buffer_alpha
        result = buffer_economics_sweep(**common, **buffer_kwargs)
    else:
        sweep = duty_ratio_sweep if args.target == "sweep-ratio" else day_length_sweep
        result = sweep(**common)
    print(result.render())
    if args.csv:
        written = sweep_to_csv(result, args.csv)
        print("CSV written:\n  " + "\n  ".join(written))
    print("\n".join(result.reports + finish_campaign(executor)))
    # Failed points are rendered as FAILED cells above; a sweep with
    # any crashed run must not exit clean.
    return 0 if result.ok else 1


def run_list(args) -> int:
    for name, (_run, about) in TARGETS.items():
        print(f"{name}: {about}")
    return 0


#: target -> (runner taking the parsed args, one-line description).
#: ``list`` and the ``target`` help string are generated from this.
TARGETS: Dict[str, Tuple[Callable, str]] = {
    **{
        name: (functools.partial(run_figure, name), "paper figure")
        for name in FIGURES
    },
    "sweep-ratio": (run_sweep, "duty-ratio sweep"),
    "sweep-day": (run_sweep, "day-length sweep"),
    "sweep-buffer": (run_sweep, "buffer-economics sweep (--buffer-policy/--buffer-total/--buffer-alpha)"),
    "sweep-load": (run_sweep_load, "workload-engine offered-load grid (--loads/--variants)"),
    "replay-trace": (run_replay_trace, "workload trace replay (--trace CSV)"),
    "chaos": (run_chaos, "fault-plan run (--fault-plan/--audit/--check-determinism)"),
    "list": (run_list, "print this table"),
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.target not in TARGETS:
        print(f"unknown target {args.target!r}; try 'list'", file=sys.stderr)
        return 2
    if args.target not in FIGURES and args.target != "sweep-buffer":
        for flag in BUFFER_FLAGS:
            if getattr(args, flag.lstrip("-").replace("-", "_")) is not None:
                print(f"{flag} applies to the figure targets and sweep-buffer, "
                      f"not to {args.target}", file=sys.stderr)
                return 2
    try:
        ExperimentConfig(variant=args.variant, **run_fields(args))
    except (OSError, ValueError) as error:
        print(f"{args.target}: {error}", file=sys.stderr)
        return 2
    try:
        return TARGETS[args.target][0](args)
    except CampaignAborted as abort:
        print(f"aborted ({abort.reason}): {abort.done}/{abort.total} runs complete; "
              f"journal flushed — rerun with --resume to continue",
              file=sys.stderr)
        return EXIT_ABORTED


if __name__ == "__main__":
    raise SystemExit(main())
