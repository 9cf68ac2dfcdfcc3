"""Command-line entry point: regenerate paper figures from a shell.

Usage::

    python -m repro.experiments.cli fig7 --weeks 40 --flows 8
    python -m repro.experiments.cli fig7 --jobs 4 --cache-dir out/cache
    python -m repro.experiments.cli fig10 --csv out/
    python -m repro.experiments.cli fig7 --trace-out out/ --metrics-out out/ --profile
    python -m repro.experiments.cli sweep-ratio
    python -m repro.experiments.cli sweep-load --loads 0.2,0.4 --variants cubic,tdtcp --jobs 2
    python -m repro.experiments.cli replay-trace --trace flows.csv --variant tdtcp
    python -m repro.experiments.cli chaos --fault-plan examples/fault_plans/day_one_storm.json
    python -m repro.experiments.cli rerun out/bundles/bundle_tdtcp_seed1
    python -m repro.experiments.cli list

Every target is a sub-command that declares the flag groups it reads
(:data:`TARGETS`), so the parser refuses a flag the target would
ignore. Every target runs through :func:`main`'s one driver: build the
target's :class:`~repro.experiments.executor.Plan` (a config the flags
cannot build exits 2 before any executor or journal exists), run it as
one executor batch, print the target's own text, then the one
:func:`trailer` every run gets. The renderers and the sweeps are
imported by the targets that use them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import sys
import tempfile
from dataclasses import replace
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.experiments.checkpoint import checkpoint_path, load_resume_plan
from repro.experiments.config import ExperimentConfig, WorkloadConfig
from repro.experiments.executor import CampaignAborted, ExperimentExecutor, Plan
from repro.experiments.figures import FIGURES
from repro.experiments.runner import ExperimentResult
from repro.obs.campaign import CampaignLog
from repro.obs.telemetry import ObsConfig
from repro.experiments.variants import engine_variants
from repro.net.queues import BUFFER_POLICIES

#: Exit code for a SIGINT/SIGTERM campaign abort (EX_TEMPFAIL): the
#: campaign checkpointed cleanly and ``--resume`` will pick it up —
#: distinct from 1 (a run actually failed).
EXIT_ABORTED = 75

# -- the flags: name -> add_argument keywords, in the groups targets read --

EXECUTOR = {
    "--jobs": dict(type=int, default=1,
                   help="worker processes for the batch (default: 1 = in-process)"),
    "--cache-dir": dict(metavar="DIR", help="on-disk result cache keyed by config content "
                        "hash; a warm cache re-run executes zero simulations"),
    "--no-cache": dict(action="store_true",
                       help="neither read nor write the result cache even when --cache-dir is set"),
    "--campaign-log": dict(metavar="JSONL", help="append run-lifecycle events "
                           "(queued/started/heartbeat/finished/…) to this JSONL file"),
    "--resume": dict(metavar="JSONL", help="resume an interrupted campaign from its journal: "
                     "completed runs are replayed, only the rest executes (new journal: "
                     "<log>.resumed.jsonl)"),
}
RUN = {
    "--weeks": dict(type=int, default=24, help="optical weeks to simulate"),
    "--warmup": dict(type=int, default=8, help="warm-up weeks excluded from averages"),
    "--flows": dict(type=int, default=8, help="parallel cross-rack flows"),
    "--seed": dict(type=int, default=1, help="simulation seed"),
    "--fidelity": dict(choices=("packet", "tiered"), default="packet", help="'packet' (exact) "
                       "or 'tiered' (fluid fast path; unsupported runs fall back to packet)"),
    "--trace-out": dict(metavar="DIR", help="record tracepoints; write JSONL, Chrome trace "
                        "JSON, and CSVs here"),
    "--metrics-out": dict(metavar="DIR", help="derive the metrics registry from "
                          "tracepoints; write its JSON snapshot here"),
    "--profile": dict(action="store_true", help="attribute simulator wall time per event "
                      "callback and print the report"),
    "--tracepoints": dict(metavar="GLOB", default="*", help="glob over tracepoint names "
                          "to record (default: all, e.g. 'tcp:*')"),
    "--fault-plan": dict(metavar="JSON", help="fault-plan JSON file (repro.faults) armed "
                         "on the testbed before the run"),
    "--audit": dict(choices=("warn", "fail"), help="run the invariant auditor: 'warn' "
                    "records violations, 'fail' aborts the run"),
    "--bundle-dir": dict(metavar="DIR", default="out/bundles", help="where crash-capture "
                         "repro bundles are written (default: out/bundles)"),
    "--watchdog-events": dict(type=int, help="abort a run after this many simulator events"),
    "--watchdog-wall": dict(type=float, help="abort a run after this many wall-clock seconds"),
}
CSV = {"--csv": dict(metavar="DIR", help="also write series as CSV files")}
BUFFER = {
    "--buffer-policy": dict(choices=BUFFER_POLICIES, help="ToR buffer sharing policy "
                            "(sweep-buffer: restrict the grid to this policy)"),
    "--buffer-total": dict(type=int, help="total ToR buffer (packets) shared by the pool "
                           "(sweep-buffer: restrict the grid to this total)"),
    "--buffer-alpha": dict(type=float, help="dynamic-threshold alpha (admit while VOQ "
                           "length < alpha x free pool)"),
}
LOAD_AXES = {
    "--loads": dict(default="0.2,0.4,0.6", help="comma-separated offered loads in (0, 1] "
                    "(default: 0.2,0.4,0.6)"),
    "--variants": dict(default="cubic,tdtcp", help="comma-separated engine variants "
                       "(default: cubic,tdtcp)"),
    "--workload-cdf": dict(choices=("web-search", "data-mining"), default="web-search",
                           help="empirical flow-size CDF (default: web-search)"),
    "--matrix": dict(choices=("permutation", "all-to-all", "hotspot"), default="permutation",
                     help="traffic matrix (default: permutation); on the two-rack fabric "
                          "all-to-all has the same pair weights as permutation"),
    "--hotspot-fraction": dict(type=float, default=0.5, help="fraction of arrivals "
                               "redirected to the hotspot pair (matrix=hotspot)"),
    "--cdf-out": dict(metavar="DIR", help="also write per-(load, variant) FCT and slowdown "
                      "CDF curves decoded from the runs' DDSketch states"),
}
MAX_FLOWS = {
    "--max-flows": dict(type=int, help="stop launching workload-engine flows after this many"),
}
VARIANT = {"--variant": dict(default="tdtcp", help="variant to run (default: tdtcp)")}
TRACE = {
    "--trace": dict(metavar="CSV", required=True,
                    help="workload trace CSV (start_ns,src,dst,size_bytes)"),
    "--lenient-trace": dict(action="store_true", help="skip malformed trace rows (counted) "
                            "instead of failing on the first"),
}
DETERMINISM = {
    "--check-determinism": dict(action="store_true", help="run twice more and require "
                                "byte-identical JSONL traces"),
}
BUNDLE = {"bundle": dict(metavar="BUNDLE_DIR", help="a repro bundle directory")}


class FlagError(ValueError):
    """A flag value no config can be built from. The message names the
    flag, so it is printed as it is, with no ``<target>:`` prefix."""


def run_fields(args) -> dict:
    """The :data:`RUN` flags as :class:`ExperimentConfig` fields — the
    one place a flag becomes a field. Every target that reads them
    spreads this into the configs it builds. ``--weeks``, ``--warmup``,
    ``--flows``, ``--seed`` and ``--fidelity`` have CLI defaults, so
    they always land and override a target's own default (``fig10``
    runs 24 weeks, not its table's 60); the other flags are left out
    when unset, and the target's default stands (``sweep-buffer``
    and ``chaos`` audit in fail mode)."""
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
        audit=args.audit,
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
    if args.jobs < 1:  # refused before the log opens, which truncates it
        raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
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
    """Close the invocation's campaign log and return the lines every
    target prints last: batch stats, resume split, log path."""
    lines = [f"executor: {executor.last_batch.render()}"]
    if executor.resume is not None:
        lines.append(f"resume: {executor.last_replayed} replayed, "
                     f"{executor.last_fresh} executed fresh")
    if executor.campaign is not None:
        executor.campaign.close()
        if executor.campaign.path:
            lines.append(f"campaign log: {executor.campaign.path}")
    return lines


def _written(title: str, paths: List[str]) -> str:
    return f"{title}:\n  " + "\n  ".join(paths)


#: What a target prints: ``(stdout lines, stderr lines)``; a stderr line fails the run.
Output = Tuple[List[str], List[str]]


def trailer(plan: Plan, results: List[ExperimentResult]) -> Output:
    """What every target prints after its own text, for every run of
    its batch, failed runs included: the telemetry artifact paths, each
    profile report and each fault-plan / auditor report; and, for
    stderr, each failure. A run's lines are headed by its plan tag."""
    lines: List[str] = []
    failures: List[str] = []
    artifacts = [path for result in results for path in result.artifacts]
    if artifacts:
        lines.append(_written("telemetry artifacts", artifacts))
    for label, tag, result in zip(plan.labels, plan.tags, results):
        prefix = f"[{tag}] " if tag else ""
        if result.profile_report:
            lines.append(f"profile [{label}]\n{result.profile_report}")
        lines += result.render_reports(prefix)
        if result.failure is not None:
            failures.append(prefix + result.failure.render())
    return lines, failures


# -- the targets: plan (labelled configs) and show (the target's text) -----
def _lone(config: ExperimentConfig) -> Plan:
    return Plan([config], [f"{config.variant}/seed{config.seed}"], [""])


def plan_figure(args) -> Plan:
    return FIGURES[args.target].plan(
        rdcn_override=lambda rdcn: rdcn.with_buffer(
            args.buffer_total, args.buffer_policy, args.buffer_alpha
        ),
        **run_fields(args),
    )


def show_figure(args, plan: Plan, results: List[ExperimentResult], _executor) -> Output:
    """A figure's graphs and tables; a failed variant is left out of
    them while the others render."""
    from repro.experiments.report import (
        figure_to_csv,
        render_fig10,
        render_headline_claims,
        render_seq_graph,
        render_throughput_summary,
        render_voq_graph,
    )

    data = plan.assemble(results)
    sections = [render_throughput_summary(data)]
    if data.seq_curves:
        sections.insert(0, render_seq_graph(data))
    if data.voq_curves:
        sections.append(render_voq_graph(data))
    if args.target == "fig7":
        sections.append(render_headline_claims(data))
    if args.target == "fig10":
        sections.append(render_fig10(data))
    if args.csv:
        sections.append(_written("CSV written", figure_to_csv(data, args.csv)))
    return ["\n\n".join(sections)], []


def plan_sweep(args) -> Plan:
    """The sweep-ratio / sweep-day / sweep-buffer grids."""
    from repro.experiments import sweeps

    if args.target == "sweep-buffer":
        axes = dict(totals=(args.buffer_total,), policies=(args.buffer_policy,),
                    alpha=args.buffer_alpha)
        axes = {name: value for name, value in axes.items() if value not in (None, (None,))}
        return sweeps.buffer_economics_plan(**axes, **run_fields(args))
    sweep = sweeps.duty_ratio_plan if args.target == "sweep-ratio" else sweeps.day_length_plan
    return sweep(**run_fields(args))


def plan_load(args) -> Plan:
    """The sweep-load grid: offered load x engine variant."""
    from repro.experiments.sweeps import load_plan

    try:
        loads = tuple(float(v) for v in args.loads.split(",") if v.strip())
    except ValueError:
        raise FlagError(f"--loads must be comma-separated floats, got {args.loads!r}") from None
    variants = tuple(v.strip() for v in args.variants.split(",") if v.strip())
    if not loads or not variants:
        raise FlagError("--loads and --variants must each name at least one value")
    unsupported = [v for v in variants if v not in engine_variants()]
    if unsupported:
        raise FlagError(f"--variants: {', '.join(unsupported)} not supported by the workload "
                        f"engine; supported: {', '.join(engine_variants())}")
    return load_plan(
        loads=loads,
        variants=variants,
        cdf=args.workload_cdf,
        matrix=args.matrix,
        hotspot_fraction=args.hotspot_fraction,
        max_flows=args.max_flows,
        **run_fields(args),
    )


def show_grid(args, plan: Plan, results: List[ExperimentResult], _executor) -> Output:
    """A sweep's table (a failed point is a FAILED cell) and its CSV /
    CDF files."""
    from repro.experiments import report

    result = plan.assemble(results)
    lines = [result.render()]
    loads = args.target == "sweep-load"
    if args.csv:
        to_csv = report.load_sweep_to_csv if loads else report.sweep_to_csv
        lines.append(_written("CSV written", to_csv(result, args.csv)))
    if loads and args.cdf_out:
        written = [path for family in ("fct_us", "slowdown")
                   for path in report.fct_cdf_to_csv(result, args.cdf_out, sketch=family)]
        lines.append(_written("CDF CSV written", written))
    return lines, []


def plan_replay(args) -> Plan:
    """One engine run replaying a CSV trace under ``--variant``."""
    return _lone(ExperimentConfig(
        variant=args.variant,
        workload=WorkloadConfig(
            kind="trace",
            trace_path=args.trace,
            strict_trace=not args.lenient_trace,
            max_flows=args.max_flows,
        ),
        collect_voq=False,
        collect_sequence=False,
        **run_fields(args),
    ))


def show_replay(args, _plan, results: List[ExperimentResult], _executor) -> Output:
    [result] = results
    if result.failure is not None:
        return [], []
    summary = result.workload_summary or {}
    lines = [
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
    return lines, []


def plan_chaos(args) -> Plan:
    """One bulk run under a fault plan, audited in fail mode unless
    ``--audit`` says otherwise."""
    return _lone(ExperimentConfig(variant=args.variant, **{"audit": "fail", **run_fields(args)}))


def plan_rerun(args) -> Plan:
    """The run a repro bundle captured: its ``config.json``, as it was."""
    config = json.loads((pathlib.Path(args.bundle) / "config.json").read_text())
    return _lone(ExperimentConfig.from_dict(config))


def show_delivered(_args, _plan, results: List[ExperimentResult], _executor) -> Output:
    [result] = results
    if result.failure is not None:
        return [], []
    return [f"delivered: {result.aggregate_delivered:,} bytes "
            f"({result.throughput_gbps:.2f} Gbps aggregate)"], []


def show_chaos(args, plan: Plan, results: List[ExperimentResult], executor) -> Output:
    lines, errors = show_delivered(args, plan, results, executor)
    if results[0].failure is None and args.check_determinism:
        passed, message = check_determinism(executor, plan.configs[0])
        (lines if passed else errors).append(message)
    return lines, errors


def check_determinism(executor: ExperimentExecutor, config: ExperimentConfig) -> Tuple[bool, str]:
    """Run ``config`` twice more, as one batch, each replica writing a
    JSONL trace: ``(passed, the line to print)``. A replica that
    fails, or two traces that differ, fail the check."""
    replicas = ("a", "b")
    with tempfile.TemporaryDirectory() as tmp:
        configs = [
            replace(config, obs=ObsConfig(
                trace_dir=tmp, label=f"chaos_{replica}", chrome_trace=False, csv=False))
            for replica in replicas
        ]
        labels = [f"{config.variant}/seed{config.seed}/replica-{replica}"
                  for replica in replicas]
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


class Target(NamedTuple):
    about: str
    #: The flag groups it reads beyond :data:`EXECUTOR`; the parser refuses any other flag.
    flags: Tuple[dict, ...]
    plan: Callable[[argparse.Namespace], Plan]
    show: Callable[..., Output]


#: target -> what it reads, plans and prints. ``list`` prints this table.
TARGETS: Dict[str, Target] = {
    **{name: Target("paper figure", (RUN, CSV, BUFFER), plan_figure, show_figure)
       for name in FIGURES},
    "sweep-ratio": Target("duty-ratio sweep", (RUN, CSV), plan_sweep, show_grid),
    "sweep-day": Target("day-length sweep", (RUN, CSV), plan_sweep, show_grid),
    "sweep-buffer": Target(
        "buffer-economics sweep (--buffer-policy/--buffer-total/--buffer-alpha)",
        (RUN, CSV, BUFFER), plan_sweep, show_grid,
    ),
    "sweep-load": Target(
        "workload-engine offered-load grid (--loads/--variants)",
        (RUN, CSV, LOAD_AXES, MAX_FLOWS), plan_load, show_grid,
    ),
    "replay-trace": Target(
        "workload trace replay (--trace CSV)",
        (RUN, TRACE, VARIANT, MAX_FLOWS), plan_replay, show_replay,
    ),
    "chaos": Target(
        "fault-plan run (--fault-plan/--audit/--check-determinism)",
        (RUN, VARIANT, DETERMINISM), plan_chaos, show_chaos,
    ),
    "rerun": Target("re-run a repro bundle's config (BUNDLE_DIR)", (BUNDLE,),
                    plan_rerun, show_delivered),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.experiments.cli",
        description="Regenerate the TDTCP paper's figures on the simulator.",
        allow_abbrev=False,
    )
    targets = parser.add_subparsers(dest="target", required=True, metavar="target")
    targets.add_parser("list", help="print the targets", allow_abbrev=False)
    for name, target in TARGETS.items():
        sub = targets.add_parser(name, help=target.about, allow_abbrev=False)
        for group in (EXECUTOR,) + target.flags:
            for flag, keywords in group.items():
                sub.add_argument(flag, **keywords)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as stop:  # the parser printed a usage error (2) or the help (0)
        return stop.code
    if args.target == "list":
        for name, target in TARGETS.items():
            print(f"{name}: {target.about}")
        print("list: print this table")
        return 0
    target = TARGETS[args.target]
    try:
        plan = target.plan(args)
        executor = executor_from_args(args)
    except FlagError as error:
        print(error, file=sys.stderr)
        return 2
    except (OSError, ValueError) as error:
        print(f"{args.target}: {error}", file=sys.stderr)
        return 2
    try:
        results = executor.run_batch(plan.configs, labels=plan.labels)
        lines, errors = target.show(args, plan, results, executor)
    except CampaignAborted as abort:
        print(f"aborted ({abort.reason}): {abort.done}/{abort.total} runs complete; "
              f"journal flushed — rerun with --resume to continue",
              file=sys.stderr)
        return EXIT_ABORTED
    more, failures = trailer(plan, results)
    print("\n".join(lines + more + finish_campaign(executor)))
    for message in failures + errors:
        print(message, file=sys.stderr)
    return 1 if failures or errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
