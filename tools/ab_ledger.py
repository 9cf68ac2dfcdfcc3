#!/usr/bin/env python3
"""The ledger's A/B protocol as one command (docs/performance.md).

    python3 tools/ab_ledger.py --parent HEAD~1 --workload tiered_elephants
    python3 tools/ab_ledger.py --parent HEAD~1 --pairs 12 --seed 7

Checks ``--parent`` out into a temporary directory (``git archive``:
nothing is left in ``.git``, the directory is removed on exit) and runs
the ledger's documented child command
``benchmarks/ledger/run.py --workload W --seed S --seconds 15 --trace 0``
``--pairs`` times in each tree, alternating which side goes first, under
``PYTHONDONTWRITEBYTECODE=1``: like a fresh checkout, each child compiles
``src/`` inside ``setup_s`` (a ``__pycache__`` left in the working tree
would spare the change side that cost). It
measures nothing itself: every number is read from the child's last-line
JSON and its ``ledger-detail:`` line. Output is one markdown row per
(workload, end-to-end metric) with the verdict of the rule a speed claim
is held to, the bounds taken from ``BENCHMARK.json``:

* ``better`` — at least ten pairs, the change wins at least nine in ten
  (ties count for neither side) and the medians are further apart than
  the parent's inter-quartile distance;
* ``worse`` — the change's median is worse by more than the bound;
* ``unresolved`` — a side's inter-quartile distance is wider than the
  bound, unless every run of the change beats every run of the parent;
* ``inside bound`` — everything else.

Under the table, one line per workload and side gives its distinct
``sim_digest`` values and the median wall time of its first rep
(``rep_wall_s[0]`` of ``ledger-detail``): ``wall_s`` is a per-slice
minimum over the reps, so work moved from set-up into the first rep
shows only there.

Exit status is non-zero if any run is not ``correct``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_child(tree: pathlib.Path, workload: str, seed: int, smoke: bool) -> dict:
    command = [sys.executable, "benchmarks/ledger/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", "15", "--trace", "0"]
    proc = subprocess.run(command + (["--smoke"] if smoke else []), cwd=tree,
                          env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
                          stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2 or not lines[-2].startswith("ledger-detail: "):
        raise SystemExit(f"{workload} in {tree}: exit {proc.returncode} without a result")
    row = json.loads(lines[-1])
    row["detail"] = json.loads(lines[-2][len("ledger-detail: "):])
    row["correct"] = row["correct"] and proc.returncode == 0
    return row


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def verdict(parent: list, change: list, lower_is_better: bool, bound: float) -> tuple:
    """``(delta of medians, wins, ties, parent IQR, verdict)`` for one metric."""
    sign = 1 if lower_is_better else -1
    p_med, p_q1, p_q3 = quartiles(parent)
    c_med, c_q1, c_q3 = quartiles(change)
    wins = sum(sign * c < sign * p for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    worse_by = sign * (c_med - p_med) / p_med
    if (len(parent) >= 10 and wins >= 0.9 * len(parent)
            and sign * (p_med - c_med) > p_q3 - p_q1):
        word = "better"
    elif worse_by > bound:
        word = "worse"
    elif (max(p_q3 - p_q1, c_q3 - c_q1) > bound * p_med
          and not max(sign * c for c in change) < min(sign * p for p in parent)):
        word = "unresolved"
    else:
        word = "inside bound"
    return (c_med - p_med) / p_med, wins, ties, p_q3 - p_q1, word


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--workload", action="append", choices=names,
                        help="repeatable; default: every workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--smoke", action="store_true", help="the ledger's smoke scale")
    args = parser.parse_args(argv)
    ok, footnotes = True, []
    with tempfile.TemporaryDirectory(prefix="ab_ledger-") as tmp:
        parent_tree = pathlib.Path(tmp)
        archive = subprocess.run(["git", "archive", args.parent], cwd=ROOT,
                                 stdout=subprocess.PIPE, check=True)
        subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout, check=True)
        trees = {"parent": parent_tree, "change": ROOT}
        print("| workload | seed | metric | pairs | parent median [q1, q3] | "
              "change median [q1, q3] | Δ median | change better | parent IQR | verdict |")
        print("|---|---|---|---|---|---|---|---|---|---|")
        for workload in args.workload or names:
            rows = {"parent": [], "change": []}
            for pair in range(args.pairs):
                for side in (("parent", "change"), ("change", "parent"))[pair % 2]:
                    rows[side].append(run_child(trees[side], workload, args.seed, args.smoke))
            for metric in benchmark["end_to_end"]:
                name = metric["name"]
                parent, change = ([row["metrics"][name]["value"] for row in rows[side]]
                                  for side in ("parent", "change"))
                delta, wins, ties, iqr, word = verdict(
                    parent, change, metric["better"] == "lower", metric["bound"])
                cells = ["{:.4g} [{:.4g}, {:.4g}]".format(*quartiles(v)) for v in (parent, change)]
                tied = f" ({ties} ties)" if ties else ""
                print(f"| `{workload}` | {args.seed} | `{name}` | {args.pairs} | {cells[0]} | "
                      f"{cells[1]} | {delta:+.1%} | {wins}/{args.pairs}{tied} | {iqr:.3g} | {word} |",
                      flush=True)
            for side, side_rows in rows.items():
                digests = sorted({row["detail"]["sim_digest"][:12] for row in side_rows})
                failed = sum(row["failed"] for row in side_rows)
                attempted = sum(row["attempted"] for row in side_rows)
                bad = [row["detail"]["problems"] for row in side_rows if not row["correct"]]
                ok = ok and not bad
                first_rep = statistics.median(row["detail"]["rep_wall_s"][0] for row in side_rows)
                footnotes.append(
                    f"- `{workload}` {side}: sim_digest {', '.join(digests)}; first-rep wall "
                    f"median {first_rep:.4g} s; failed {failed}/{attempted}"
                    f"{'; NOT CORRECT: ' + json.dumps(bad) if bad else ''}")
    print("\n" + "\n".join(footnotes))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
