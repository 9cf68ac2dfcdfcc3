#!/usr/bin/env python3
"""One ledger for what users wait for.

    python3 benchmarks/ledger/run.py                      # all five workloads
    python3 benchmarks/ledger/run.py --workload rpc_churn # one workload
    python3 benchmarks/ledger/run.py --selfcheck          # everything twice

Without ``--trace`` this is the ledger: every workload runs in a fresh
child interpreter, one at a time, first untraced (the end-to-end
metrics) then traced (the per-layer metrics), and every metric is
printed by name with unit, direction and bound. With ``--workload NAME
--trace 0|1`` it is one such child: it measures for ``--seconds``, checks
the outputs and prints one JSON object as its last line (the contract
``BENCHMARK.json`` describes). See README.md beside this file.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

HERE = pathlib.Path(__file__).resolve().parent
REPO_ROOT = HERE.parent.parent
PINS_PATH = HERE / "pins.json"
# Reps per requested second. A rep takes 1.3-1.6 s at the baseline, so
# this fills --seconds there; the count must not follow the speed of the
# commit under test, or a faster commit would get more reps and with
# them lower minima.
REPS_PER_SECOND = 0.6
MIN_REPS = 3


def _import_layers():
    """The product and the harness modules (what ``setup_s`` pays for).
    Spawned pool workers re-import this file, so nothing else may run
    at import time."""
    for path in (str(REPO_ROOT / "src"), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import metrics
    import tracing
    import workloads

    return metrics, tracing, workloads


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _load_pins() -> dict:
    return json.loads(PINS_PATH.read_text())


# ----------------------------------------------------------------------
# One workload in this interpreter
# ----------------------------------------------------------------------
def _child_command(args, workload: str, *extra: str) -> list:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(args.seed), *extra]
    if args.smoke:
        command.append("--smoke")
    return command


def _probe_setup(args) -> float:
    """Set up once in a fresh interpreter (imports, configs, temp dir),
    timed from spawn to exit."""
    command = _child_command(args, args.workload, "--setup-only")
    started = perf_counter()
    subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
    return perf_counter() - started


def run_workload(args) -> int:
    metrics, tracing, workloads = _import_layers()
    scale = workloads.SCALES["smoke" if args.smoke else "full"]
    # Inside the checkout: the benchmark may write nowhere else.
    tmp_root = tempfile.mkdtemp(prefix=".ledger_tmp-", dir=os.getcwd())
    try:
        workload = workloads.BY_NAME[args.workload](args.seed, scale, tmp_root)
        workload.setup()
        if args.setup_only:
            return 0
        if args.trace:
            return _traced_pass(args, workload, metrics, tracing, workloads)
        return _untraced_pass(args, workload, metrics, tracing, workloads)
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)


def _one_rep(workload, workloads, tracer):
    gc.collect()  # every rep starts from the same heap, outside the timed slices
    clock = workloads.SliceClock()
    workloads.install_slice_clock(clock)
    try:
        clock.tick()
        produced = workload.rep(clock, tracer)
        clock.tick()
    finally:
        workloads.install_slice_clock(None)
    return produced, clock.durations()


def _untraced_pass(args, workload, metrics, tracing, workloads) -> int:
    null = tracing.NullTracer()
    reps, digests, setups = [], set(), []
    first = None
    attempted = failed = 0
    peak_rss_mb = 0.0
    for _ in range(max(MIN_REPS, round(args.seconds * REPS_PER_SECOND))):
        # One set-up probe before every rep, so that the probes are
        # spread over the run and a busy second does not hit them all.
        setups.append(_probe_setup(args))
        produced, durations = _one_rep(workload, workloads, null)
        outcome = workload.outcome(produced)
        reps.append(durations)
        digests.add(outcome.digest)
        attempted += outcome.runs
        failed += outcome.failed
        if first is None:
            first = outcome
            # After one rep, as for a user who runs the workload once.
            peak_rss_mb = _peak_rss_mb()
        del produced, outcome  # fat results must not pile up across reps
    problems = list(first.problems)
    if len(digests) != 1:
        problems.append("sim_digest differs between reps of one seed")
    wall_s = metrics.robust_wall_s(reps)
    values = metrics.end_to_end(wall_s, first, min(setups), peak_rss_mb)
    detail = {
        "reps": len(reps),
        "rep_wall_s": [sum(rep) for rep in reps],
        "slices": len(reps[0]),
    }
    return _report(args, first, problems, values, metrics.END_TO_END, detail,
                   attempted=attempted, failed=failed)


def _traced_pass(args, workload, metrics, tracing, workloads) -> int:
    produced, durations = _one_rep(workload, workloads, tracing.NullTracer())
    untraced = workload.outcome(produced)
    untraced_wall_s = sum(durations)
    # Reference phases time things themselves, so they run unwrapped.
    reference, problems = workload.reference(untraced)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        produced, _ = _one_rep(workload, workloads, tracer)
    finally:
        tracer.remove()
    traced = workload.outcome(produced)
    problems = list(traced.problems) + problems
    if traced.digest != untraced.digest:
        problems.append("traced sim_digest differs from the untraced one")
    results = traced.results
    if not results:  # rpc_churn: the sweep keeps summaries, not results
        results = [r for batch in tracer.batches for r in batch]
    values = metrics.per_layer(tracer, traced, results, reference, untraced_wall_s)
    detail = {"layer_shares": metrics.layer_shares(tracer)}
    pairs = getattr(workload, "accuracy_pairs", None)
    if pairs is not None:
        detail["accuracy_pairs"] = pairs
        if not args.smoke:
            pinned = _load_pins()["accuracy_pairs"][f"seed{workloads.ACCURACY_SEED}"]
            detail["accuracy_matches_pinned"] = pairs == pinned
            problems += workloads.accuracy_regressions(pairs, pinned)
    if args.out:
        out_dir = pathlib.Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        spans = tracer.to_dict()
        spans.update(workload=args.workload, seed=args.seed, smoke=args.smoke)
        (out_dir / f"spans_{args.workload}.json").write_text(
            json.dumps(spans, indent=1, sort_keys=True) + "\n")
    return _report(args, traced, problems, values, metrics.PER_LAYER, detail,
                   attempted=traced.runs, failed=traced.failed)


def _report(args, outcome, problems, values, catalogue, detail, attempted, failed) -> int:
    pinned = None if args.smoke else _load_pins()["sim_digest"].get(
        f"seed{args.seed}", {}).get(args.workload)
    detail.update(
        workload=args.workload, seed=args.seed, smoke=args.smoke, trace=args.trace,
        sim_digest=outcome.digest, problems=problems,
        digest_matches_pinned=None if pinned is None else pinned == outcome.digest,
    )
    for problem in problems:
        print(f"[ledger] {args.workload}: CHECK FAILED: {problem}", file=sys.stderr)
    print("ledger-detail: " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": catalogue[name][0]}
            for name in catalogue
        },
    }))
    return 1 if problems else 0


# ----------------------------------------------------------------------
# The ledger: every workload, each in a fresh child, one at a time
# ----------------------------------------------------------------------
def _child(args, workload: str, trace: int) -> dict:
    command = _child_command(
        args, workload, "--seconds", str(args.seconds), "--trace", str(trace))
    if args.out and trace:
        command += ["--out", args.out]
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2 or not lines[-2].startswith("ledger-detail: "):
        raise SystemExit(f"[ledger] {workload} (trace={trace}) exited "
                         f"{proc.returncode} without a result")
    row = json.loads(lines[-1])
    row["detail"] = json.loads(lines[-2][len("ledger-detail: "):])
    row["exit"] = proc.returncode
    return row


def run_ledger(args, names) -> dict:
    """Untraced runs (``--repeats`` of them) then one traced run per
    workload. Returns {workload: {"end_to_end": [rows], "traced": row}}."""
    ledger = {}
    for name in names:
        print(f"[ledger] {name}: {args.repeats} untraced run(s) + traced pass, "
              f"seed {args.seed}", flush=True)
        ledger[name] = {
            "end_to_end": [_child(args, name, 0) for _ in range(args.repeats)],
            "traced": _child(args, name, 1),
        }
    return ledger


def _value(rows, metric: str) -> dict:
    values = [row["metrics"][metric]["value"] for row in rows]
    out = {"value": statistics.median(values), "n": len(values)}
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    return out


def print_ledger(ledger: dict, metrics) -> bool:
    ok = True
    names = list(ledger)
    print("\nEnd-to-end metrics (tracing off)")
    print(f"{'workload':<18}{'metric':<20}{'value':>14} {'unit':<6}{'better':<8}"
          f"{'bound':>6}  n  [q1, q3]")
    for name in names:
        rows = ledger[name]["end_to_end"]
        for metric, (unit, better, bound, _doc) in metrics.END_TO_END.items():
            v = _value(rows, metric)
            spread = f"[{v['q1']:.4g}, {v['q3']:.4g}]" if "q1" in v else ""
            print(f"{name:<18}{metric:<20}{v['value']:>14.6g} {unit:<6}{better:<8}"
                  f"{bound:>6.0%}  {v['n']}  {spread}")
        failed = sum(r["failed"] for r in rows)
        attempted = sum(r["attempted"] for r in rows)
        detail = rows[0]["detail"]
        traced = ledger[name]["traced"]["detail"]
        accuracy = (f" accuracy_matches_pinned={traced['accuracy_matches_pinned']}"
                    if "accuracy_matches_pinned" in traced else "")
        print(f"{name:<18}{'failed_share':<20}{failed / attempted:>14.6g} "
              f"{'ratio':<6}{'lower':<8}{'0':>6}  ({failed}/{attempted} runs; "
              f"{detail['reps']} reps; sim_digest {detail['sim_digest'][:12]} "
              f"digest_matches_pinned={detail['digest_matches_pinned']}{accuracy})")
    print("\nPer-layer metrics (traced pass; no bound; 0 = does not apply)")
    print(f"{'metric':<44}{'unit':<7}{'better':<8}" + "".join(f"{n[:15]:>16}" for n in names))
    for metric, (unit, better, _det, _doc) in metrics.PER_LAYER.items():
        cells = "".join(
            f"{ledger[n]['traced']['metrics'][metric]['value']:>16.6g}" for n in names)
        print(f"{metric:<44}{unit:<7}{better:<8}{cells}")
    print("\nSelf-time share of the traced wall per layer")
    layers = sorted({l for n in names for l in ledger[n]["traced"]["detail"]["layer_shares"]})
    print(f"{'layer':<44}" + "".join(f"{n[:15]:>16}" for n in names))
    for layer in layers:
        cells = "".join(
            f"{ledger[n]['traced']['detail']['layer_shares'].get(layer, 0.0):>16.1%}"
            for n in names)
        print(f"{layer:<44}{cells}")
    for name in names:
        rows = ledger[name]["end_to_end"] + [ledger[name]["traced"]]
        digests = {row["detail"]["sim_digest"] for row in rows}
        if len(digests) != 1:
            print(f"[ledger] {name}: sim_digest differs between runs: {sorted(digests)}")
            ok = False
        for row in rows:
            if not row["correct"] or row["exit"] != 0:
                print(f"[ledger] {name}: output checks failed: {row['detail']['problems']}")
                ok = False
    return ok


def selfcheck(args, names, metrics) -> bool:
    """The whole set twice on one seed. As the driver judges it: no
    end-to-end metric of the second set may be worse than the first by
    more than its bound (host noise only ever adds time, so a second set
    that reads better is not a disagreement); deterministic counts and
    digests must repeat exactly."""
    first = run_ledger(args, names)
    second = run_ledger(args, names)
    ok = print_ledger(first, metrics) and print_ledger(second, metrics)
    print("\nSelfcheck: second set vs first set")
    for name in names:
        for metric, (unit, better, bound, _doc) in metrics.END_TO_END.items():
            a = _value(first[name]["end_to_end"], metric)["value"]
            b = _value(second[name]["end_to_end"], metric)["value"]
            diff = (b - a) / a
            worse = diff if better == "lower" else -diff
            within = worse <= bound
            ok = ok and within
            print(f"{name:<18}{metric:<20}{a:>12.5g} {b:>12.5g} {unit:<6}"
                  f"{diff:>+8.2%} (bound {bound:.0%}) {'ok' if within else 'WORSE'}")
        one, two = first[name]["traced"], second[name]["traced"]
        if one["detail"]["sim_digest"] != two["detail"]["sim_digest"]:
            print(f"{name}: sim_digest differs")
            ok = False
        for metric, (_unit, _better, deterministic, _doc) in metrics.PER_LAYER.items():
            if deterministic and (one["metrics"][metric]["value"]
                                  != two["metrics"][metric]["value"]):
                print(f"{name}: {metric} differs: {one['metrics'][metric]['value']} "
                      f"vs {two['metrics'][metric]['value']}")
                ok = False
    print("selfcheck", "passed" if ok else "FAILED")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run only this workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="how long one untraced run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="with --workload: be the child for the untraced (0) "
                             "or the traced (1) pass")
    parser.add_argument("--repeats", type=int, default=1,
                        help="untraced runs per workload; N>1 reports median, quartiles and n")
    parser.add_argument("--out", help="directory for span files and ledger.json")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run the full set twice and compare")
    parser.add_argument("--smoke", action="store_true",
                        help="self-test horizons; output is marked smoke and never pinned")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.workload and (args.trace is not None or args.setup_only):
        return run_workload(args)

    metrics, _tracing, workloads = _import_layers()
    names = [args.workload] if args.workload else list(workloads.BY_NAME)
    for name in names:
        if name not in workloads.BY_NAME:
            parser.error(f"unknown workload {name!r}; known: {sorted(workloads.BY_NAME)}")
    if args.selfcheck:
        return 0 if selfcheck(args, names, metrics) else 1
    ledger = run_ledger(args, names)
    ok = print_ledger(ledger, metrics)
    if args.out:
        path = pathlib.Path(args.out) / "ledger.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(
            {"seed": args.seed, "smoke": args.smoke, "workloads": ledger},
            indent=1, sort_keys=True) + "\n")
        print(f"[ledger] wrote {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
