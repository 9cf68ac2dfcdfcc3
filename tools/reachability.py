#!/usr/bin/env python3
"""Which ``src/`` functions run from an entry point, and why the rest stay.

Runs every command :func:`entry_points` lists (CLI targets, examples, tools,
the ledger's smoke run, CI's inline scripts and a few benchmark files,
all at smoke scale) under a ``sys.setprofile`` recorder, maps the code
objects that ran to their definitions in ``src/repro/``, and prints
every function that never ran.

The unit is the outermost function: a method or a module-level
function, with every function nested in it counted as part of it.
Dunder methods other than ``__init__`` are called by the language and
are not checked. A function that never runs must have a :data:`KEEP`
entry saying why it stays:

* :class:`Error` — it raises or records a failure; the named test
  shows it;
* :class:`Declaration` — an abstract or protocol body that a subclass
  overrides;
* :class:`Oracle` — the named test compares against it;
* :class:`Docs` — the named page shows it.

Exit 0 when every never-run function has an entry and every entry
names a function that exists and never ran; exit 1 otherwise (a stale
entry fails like a missing one).

The recorder is installed through a ``sitecustomize.py`` that is put
first on ``PYTHONPATH``, so spawned pool workers record too; each
process writes the code objects it saw when it exits.
:func:`install_recorder` is the hook, importable on its own.

Usage::

    python tools/reachability.py                # run everything (~7 min, 2 cores)
"""

from __future__ import annotations

import ast
import atexit
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import textwrap
import threading
import time
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
CI = ROOT / ".github" / "workflows" / "ci.yml"

#: Environment variables through which a recorded process learns where
#: to write and which files count.
OUT_ENV = "REACHABILITY_OUT"
PREFIX_ENV = "REACHABILITY_PREFIX"


# -- the recorder ----------------------------------------------------------


def install_recorder(out_dir: str, prefix: str) -> None:
    """Record every code object this process calls (all threads) and,
    at exit, write the ``filename:first line`` of those under ``prefix``
    to a file of its own in ``out_dir``."""
    seen: Set[object] = set()
    add = seen.add

    def profile(frame, event, _arg):
        if event == "call":
            add(frame.f_code)

    def dump() -> None:
        sys.setprofile(None)
        threading.setprofile(None)
        rows = sorted({
            f"{code.co_filename}:{code.co_firstlineno}"
            for code in list(seen)
            if code.co_filename.startswith(prefix)
        })
        name = f"{os.getpid()}-{time.monotonic_ns()}.txt"
        with open(os.path.join(out_dir, name), "w") as handle:
            handle.write("\n".join(rows) + "\n")

    atexit.register(dump)
    threading.setprofile(profile)
    sys.setprofile(profile)


SITECUSTOMIZE = """\
import os, sys
sys.path.insert(0, {tools!r})
import reachability
del sys.path[0]
reachability.install_recorder(os.environ[{out!r}], os.environ[{prefix!r}])
"""


def read_recordings(out_dir: pathlib.Path) -> Set[Tuple[str, int]]:
    """``(filename, first line)`` of every code object any recorded
    process ran."""
    ran: Set[Tuple[str, int]] = set()
    for path in out_dir.glob("*.txt"):
        for line in path.read_text().splitlines():
            if line:
                filename, _, lineno = line.rpartition(":")
                ran.add((filename, int(lineno)))
    return ran


# -- the entry points ------------------------------------------------------


class Entry(NamedTuple):
    """One command, run from the scratch directory. ``{py}``, ``{root}``
    and ``{tmp}`` in an argument become the interpreter, the repository
    and the scratch directory; ``script`` is Python source for ``{py} -``
    and ``env`` adds to the environment."""

    label: str
    argv: Tuple[str, ...] = ()
    script: Optional[str] = None
    env: Tuple[Tuple[str, str], ...] = ()


S = ("--weeks", "3", "--warmup", "1", "--flows", "2")
CLI = ("{py}", "-m", "repro.experiments.cli")
PLANS = ("day_one_storm", "lossy_fabric", "control_plane_chaos")
BENCH_FILES = ("test_ext_incast.py", "test_ext_short_flows.py", "test_notifier_micro.py")


def ci_script(step: str) -> str:
    """The ``python - <<'EOF'`` body of the CI step named ``step``."""
    lines = CI.read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.strip() == f"- name: {step}")
    begin = next(i for i in range(start, len(lines)) if "<<'EOF'" in lines[i]) + 1
    end = next(i for i in range(begin, len(lines)) if lines[i].strip() == "EOF")
    return textwrap.dedent("\n".join(lines[begin:end])) + "\n"


CUSTOM_CDF_RUN = """\
from repro.experiments.config import ExperimentConfig, WorkloadConfig
from repro.experiments.runner import run_experiment, set_worker_heartbeat

set_worker_heartbeat(lambda *beat: None, 1000)
result = run_experiment(ExperimentConfig(
    variant="tdtcp", weeks=4, warmup_weeks=0, seed=11,
    collect_voq=False, collect_sequence=False,
    workload=WorkloadConfig(cdf="custom", custom_cdf=((0.0, 10_000), (1.0, 10_000)), load=0.3),
))
assert result.failure is None, result.failure
"""


def entry_points() -> List[Entry]:
    """The fixed list, in the order it runs (a campaign's resume after
    the campaign, the trace replay after the trace is written)."""
    from repro.experiments.cli import TARGETS

    entries = [Entry(
        "write a trace (CI workload-smoke)", script=ci_script("Replay a generated trace")
    )]
    for target in TARGETS:
        extra = ("--trace", "out/flows.csv") if target == "replay-trace" else ()
        entries.append(Entry(f"cli {target}", CLI + (target,) + S + extra))
    sweep = CLI + ("sweep-load", "--weeks", "2", "--warmup", "0")
    fig2 = CLI + ("fig2",) + S
    entries += [
        Entry("fig2 --csv", fig2 + ("--csv", "{tmp}/csv")),
        Entry("sweep-ratio --csv", CLI + ("sweep-ratio",) + S + ("--csv", "{tmp}/csv")),
        Entry("fig7 telemetry", CLI + ("fig7",) + S + (
            "--trace-out", "{tmp}/obs", "--metrics-out", "{tmp}/obs", "--profile")),
        Entry("fig7 dynamic-threshold traced", CLI + ("fig7",) + S + (
            "--buffer-policy", "dynamic-threshold", "--trace-out", "{tmp}/obs-dt")),
        Entry("fig2 complete-sharing tiered", fig2 + (
            "--buffer-policy", "complete-sharing", "--fidelity", "tiered")),
        Entry("fig2 tiered", fig2 + ("--fidelity", "tiered")),
        Entry("sweep-load pooled", sweep + ("--jobs", "2", "--cdf-out", "{tmp}/cdf")),
        Entry("sweep-load tiered hotspot", sweep + ("--fidelity", "tiered", "--matrix", "hotspot")),
        Entry("sweep-load data-mining all-to-all", sweep + (
            "--workload-cdf", "data-mining", "--matrix", "all-to-all")),
        Entry("sweep-load --csv", sweep + ("--csv", "{tmp}/wl")),
        Entry("campaign", fig2 + (
            "--jobs", "2", "--cache-dir", "{tmp}/cache", "--campaign-log", "{tmp}/c.jsonl")),
        Entry("campaign resume", fig2 + (
            "--jobs", "2", "--cache-dir", "{tmp}/cache", "--resume", "{tmp}/c.jsonl")),
        Entry("campaign report", ("{py}", "{root}/tools/campaign_report.py", "{tmp}/c.jsonl",
                                  "--validate", "--markdown", "{tmp}/c.md",
                                  "--summary-json", "{tmp}/c.json")),
    ]
    for plan in PLANS:
        entries.append(Entry(f"chaos {plan}", CLI + (
            "chaos", "--fault-plan", f"{{root}}/examples/fault_plans/{plan}.json",
            "--audit", "fail", "--weeks", "24", "--flows", "4")))
    entries += [
        Entry("chaos determinism", CLI + (
            "chaos", "--fault-plan", "{root}/examples/fault_plans/day_one_storm.json",
            "--audit", "fail", "--weeks", "6", "--warmup", "2", "--flows", "4",
            "--check-determinism")),
        Entry("fig2 audited lossy_fabric", CLI + (
            "fig2", "--weeks", "6", "--warmup", "2", "--flows", "2", "--audit", "fail",
            "--fault-plan", "{root}/examples/fault_plans/lossy_fabric.json")),
        Entry("chaos reno", CLI + ("chaos", "--variant", "reno") + S),
        Entry("chaos reno tiered", CLI + (
            "chaos", "--variant", "reno", "--fidelity", "tiered", "--audit", "warn") + S),
        Entry("rotor chaos (CI)", script=ci_script(
            "The same plan on the rotor fabric (8 racks, all-to-all TDTCP, traced)"),
            env=(("SEED", "1"),)),
        Entry("custom-CDF engine run", script=CUSTOM_CDF_RUN),
    ]
    for example in sorted((ROOT / "examples").glob("*.py")):
        if example.name == "ten_million_flows.py":
            continue
        extra = ("{tmp}/handover.pcap",) if example.name == "capture_to_pcap.py" else ()
        entries.append(Entry(f"example {example.stem}",
                             ("{py}", f"{{root}}/examples/{example.name}") + extra))
    ten = ("{py}", "{root}/examples/ten_million_flows.py", "--flows", "100",
           "--journal", "{tmp}/ten.jsonl")
    entries += [
        Entry("example ten_million_flows", ten + ("--compare-packet",)),
        Entry("example ten_million_flows resume", ten + ("--resume",)),
        Entry("figure shape check", ("{py}", "{root}/tools/figure_shape_check.py",
                                     "--weeks", "3", "--flows", "2")),
        Entry("ledger smoke", ("{py}", "{root}/benchmarks/ledger/run.py", "--smoke")),
        # --benchmark-disable: a timed pytest-benchmark round clears the
        # profile hook.
        Entry("benchmark files", ("{py}", "-m", "pytest", "-q", "-p", "no:cacheprovider",
                                  "--benchmark-disable", "--rootdir", "{tmp}",
                                  "-c", "{tmp}/pytest.ini")
              + tuple(f"benchmarks/{name}" for name in BENCH_FILES),
              env=(("REPRO_WEEKS", "3"), ("REPRO_WARMUP", "1"), ("REPRO_FLOWS", "2"))),
    ]
    return entries


def prepare_scratch(tmp: pathlib.Path) -> None:
    """Lay out the scratch directory the entries run in: ``examples/``
    and ``tests/`` linked (CI's scripts and one example name them
    relative to the repository), and a copy of the benchmark files the
    list runs, so their result tables land here, not in
    ``benchmarks/results/``."""
    for name in ("examples", "tests"):
        (tmp / name).symlink_to(ROOT / name)
    bench = tmp / "benchmarks"
    bench.mkdir()
    for name in ("__init__.py", "conftest.py") + BENCH_FILES:
        shutil.copy(ROOT / "benchmarks" / name, bench / name)
    (tmp / "pytest.ini").write_text("[pytest]\n")
    (tmp / "out").mkdir()


def run_entries(entries: Sequence[Entry], out_dir: pathlib.Path, src: pathlib.Path,
                package: pathlib.Path, tmp: pathlib.Path) -> List[str]:
    """Run ``entries`` in order under the recorder, with ``src`` on the
    path and code objects under ``package`` recorded into ``out_dir``.
    Returns the labels of entries that exited non-zero."""
    hook = tmp / "recorder"
    hook.mkdir(exist_ok=True)
    (hook / "sitecustomize.py").write_text(SITECUSTOMIZE.format(
        tools=str(pathlib.Path(__file__).resolve().parent), out=OUT_ENV, prefix=PREFIX_ENV))
    base = dict(os.environ)
    base["PYTHONPATH"] = os.pathsep.join(
        [str(hook), str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    base[OUT_ENV] = str(out_dir)
    base[PREFIX_ENV] = str(package) + os.sep
    fill = {"py": sys.executable, "root": str(ROOT), "tmp": str(tmp)}
    failed = []
    for entry in entries:
        env = dict(base, **dict(entry.env))
        argv = [arg.format(**fill) for arg in entry.argv] or [sys.executable, "-"]
        started = time.perf_counter()
        done = subprocess.run(argv, cwd=tmp, env=env, input=entry.script, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        wall = time.perf_counter() - started
        status = "ok" if done.returncode == 0 else f"exit {done.returncode}"
        print(f"  {wall:6.1f}s  {entry.label}: {status}", flush=True)
        if done.returncode != 0:
            failed.append(entry.label)
            print(textwrap.indent(done.stdout[-3000:], "      | "), flush=True)
    return failed


# -- mapping recorded code to definitions ----------------------------------


class Unit(NamedTuple):
    path: pathlib.Path
    start: int
    end: int


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _checked(name: str) -> bool:
    return name == "__init__" or not (name.startswith("__") and name.endswith("__"))


def units(package: pathlib.Path) -> Dict[str, Unit]:
    """``"relative/path.py::Qual.name"`` -> span of every outermost
    function under ``package`` that is checked (decorators included, as
    a code object's first line counts them)."""
    found: Dict[str, Unit] = {}

    def visit(node: ast.AST, path: pathlib.Path, rel: str, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _FUNCTIONS):
                if _checked(child.name):
                    start = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[f"{rel}::{scope}{child.name}"] = Unit(path, start, child.end_lineno)
            elif isinstance(child, ast.ClassDef):
                visit(child, path, rel, f"{scope}{child.name}.")
            else:
                visit(child, path, rel, scope)

    for path in sorted(package.rglob("*.py")):
        rel = path.relative_to(package).as_posix()
        visit(ast.parse(path.read_text(), str(path)), path.resolve(), rel, "")
    return found


def never_run(package: pathlib.Path, ran: Iterable[Tuple[str, int]]) -> Dict[str, Unit]:
    """The checked units under ``package`` that no recorded code object
    falls in."""
    lines: Dict[pathlib.Path, Set[int]] = {}
    for filename, lineno in ran:
        lines.setdefault(pathlib.Path(filename).resolve(), set()).add(lineno)
    return {
        name: unit
        for name, unit in units(package).items()
        if not any(unit.start <= line <= unit.end for line in lines.get(unit.path, ()))
    }


# -- why a never-run function stays ---------------------------------------


class Error:
    """It raises or records a failure; ``test`` (a tier-1 node id)
    shows it."""

    def __init__(self, test: str):
        self.test = test


class Declaration:
    """An abstract or protocol body a subclass overrides."""

    def __init__(self, why: str):
        self.why = why


class Oracle:
    """``test`` compares a run against it."""

    def __init__(self, test: str):
        self.test = test


class Docs:
    """``page`` (relative to the repository) shows it; ``why`` says
    what for."""

    def __init__(self, page: str, why: str):
        self.page, self.why = page, why


#: Every ``src/repro`` function the entry points never run, and why it
#: stays. A function that starts to run, or goes, must leave the table.
KEEP: Dict[str, object] = {
    # -- error paths ------------------------------------------------------
    "faults/audit.py::InvariantViolation.__init__": Error(
        "tests/test_faults.py::TestInvariantAuditor::test_fail_mode_raises"),
    "faults/audit.py::WatchdogExceeded.__init__": Error(
        "tests/test_faults.py::TestWatchdog::test_event_budget_aborts"),
    "faults/audit.py::InvariantAuditor._violation": Error(
        "tests/test_faults.py::TestInvariantAuditor::test_warn_mode_records_corrupted_accounting"),
    "faults/audit.py::_jsonable": Error(
        "tests/test_faults.py::TestCrashCapture::test_bundle_contents"),
    "faults/audit.py::write_repro_bundle": Error(
        "tests/test_faults.py::TestCrashCapture::test_bundle_contents"),
    "experiments/executor.py::CampaignAborted.__init__": Error(
        "tests/test_robustness_campaign.py::TestGracefulShutdown::test_keyboard_interrupt_aborts_with_record"),
    "experiments/executor.py::_ShutdownRequested.__init__": Error(
        "tests/test_robustness_campaign.py::TestGracefulShutdown::test_sigterm_aborts_with_the_signal_name"),
    "experiments/executor.py::_synthetic_failure": Error(
        "tests/test_executor.py::TestRetryPolicy::test_transport_crash_becomes_structured_failure"),
    "experiments/executor.py::_put_down": Error(
        "tests/test_robustness_campaign.py::TestExecutorChaos::test_worker_kill_rebuilds_pool_and_completes"),
    "experiments/runner.py::RunFailure.to_dict": Error(
        "tests/test_executor.py::TestResultSerialization::test_failure_round_trip"),
    "experiments/runner.py::RunFailure.from_dict": Error(
        "tests/test_executor.py::TestResultSerialization::test_failure_round_trip"),
    "experiments/runner.py::RunFailure.render": Error(
        "tests/test_faults.py::TestChaosCLI::test_failed_run_exits_nonzero_with_bundle_path"),
    "experiments/runner.py::ExperimentResult.failed": Error(
        "tests/test_faults.py::TestRunnerIntegration::test_watchdog_failure_becomes_structured_result"),
    "sim/timers.py::_closed_timer": Error(
        "tests/test_sim_core.py::TestTimer::test_a_timer_armed_after_close_raises_when_it_fires"),
    "obs/tracepoints.py::_NullTracepoint.subscribe": Error(
        "tests/test_obs.py::TestTracepoints::test_null_tracepoint_rejects_subscribers"),
    "core/tdtcp.py::TDTCPConnection._count_stale": Error(
        "tests/test_faults.py::TestStaleNotificationHandling::test_connection_rejects_stale_and_unknown"),
    "core/tdtcp.py::TDTCPConnection.downgrade": Error(
        "tests/test_core_tdtcp.py::TestNegotiation::test_mismatched_tdn_count_downgrades"),
    "sim/fastpath.py::FluidFastPath._abort_drain": Error(
        "tests/test_fastpath.py::TestCrossFidelityAgreement::test_a_drain_that_never_quiesces_goes_back_to_packet"),
    # -- declarations -----------------------------------------------------
    "net/node.py::PacketHandler.receive": Declaration("the protocol a host demuxes segments to"),
    "net/switch.py::Uplink.enqueue": Declaration("the protocol every ToR uplink implements"),
    "tcp/cc/base.py::CCClock.now_ns": Declaration("the clock protocol a CCA is given (Simulator.now_ns)"),
    "tcp/cc/base.py::CongestionControl.on_ack": Declaration("abstract: every registered CCA overrides it"),
    "tcp/cc/base.py::CongestionControl.on_congestion_event": Declaration(
        "abstract: every registered CCA overrides it"),
    # -- oracles ----------------------------------------------------------
    "obs/outcome.py::outcome_digest": Oracle(
        "tests/test_executor.py::TestCache::test_outcome_digest_ignores_telemetry_and_the_cache"),
    "experiments/runner.py::ExperimentResult.outcome": Oracle(
        "tests/test_fastpath.py::TestDeterminism::test_tiered_cubic_engine_run_matches_golden"),
    "experiments/runner.py::ExperimentResult.outcome_digest": Oracle(
        "tests/test_fastpath.py::TestDeterminism::test_tiered_cubic_engine_run_matches_golden"),
    # -- documented -------------------------------------------------------
    "rdcn/opera.py::OperaTestbed._demand_aware_matching": Docs(
        "docs/paper_mapping.md", "the §6 demand-aware RDCN class (matching_policy='demand-aware')"),
    "tcp/connection.py::TCPConnection._on_delack_timer": Docs(
        "DESIGN.md", "§7 deviation 7: delayed ACKs, off in every figure run"),
}


def check(missing: Dict[str, Unit], keep: Dict[str, object],
          defined: Iterable[str]) -> Tuple[List[str], List[str]]:
    """``(unjustified, stale)``: never-run units with no entry, and
    entries whose unit ran or no longer exists."""
    defined = set(defined)
    unjustified = sorted(set(missing) - set(keep))
    stale = sorted(name for name in keep if name not in missing or name not in defined)
    return unjustified, stale


def report(missing: Dict[str, Unit], keep: Dict[str, object],
           package: pathlib.Path) -> int:
    defined = units(package)
    unjustified, stale = check(missing, keep, defined)
    kept = len(missing) - len(unjustified)
    print(f"{len(defined)} functions, {len(defined) - len(missing)} ran, "
          f"{kept} never ran and are kept")
    if unjustified:
        print("never ran, and no KEEP entry says why (delete it, or add an entry):")
        for name in unjustified:
            unit = missing[name]
            print(f"  {name}  ({unit.end - unit.start + 1} lines)")
    if stale:
        print("stale KEEP entries (the function ran or no longer exists):")
        for name in stale:
            print(f"  {name}")
    return 1 if unjustified or stale else 0


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory(prefix="reachability-") as scratch:
        out = pathlib.Path(scratch) / "recordings"
        out.mkdir()
        work = pathlib.Path(scratch) / "work"
        work.mkdir()
        prepare_scratch(work)
        started = time.perf_counter()
        failed = run_entries(entry_points(), out, ROOT / "src", PACKAGE, work)
        print(f"entry points took {time.perf_counter() - started:.0f}s")
        if failed:
            print(f"entry points that failed: {failed}")
            return 1
        return report(never_run(PACKAGE, read_recordings(out)), KEEP, PACKAGE)


if __name__ == "__main__":
    raise SystemExit(main())
