"""The determinism contract: the JSONL telemetry trace of three seeded
workloads, and of one seeded run under a canned fault plan, is pinned
byte for byte.

A change that is not meant to alter simulation behaviour — a perf
optimisation, a refactor, a deletion — must leave every one of these
hashes alone; a mismatch means some packet, timer or notification now
happens at a different time or in a different order. docs/performance.md
("The determinism contract") says how to find which.
"""

from __future__ import annotations

import hashlib
import pathlib

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.obs.telemetry import ObsConfig
from tests.helpers import (
    FULL_SCALE,
    grid_pacing,
    run_bulk,
    run_incast_workload,
    run_shortflow_workload,
    traced_run,
)

# Re-pinning is legitimate only in a PR that changes simulation
# behaviour on purpose and says so in CHANGES.md (as PR 15 did for
# shortflows: released connections stopped logging TDN switches).
# ``events`` counts heap events, so a PR that makes the event core do
# the same work in fewer events moves it alone, with the hash unchanged.
#
# Re-pinned once more, on purpose, when a TDTCP pace tick started to
# exist only while the connection has paced work: incast and shortflows
# moved (first data at establishment, a FIN at once, retransmits on the
# ACK that finds them instead of on an idle grid's next tick); bulk lost
# its receivers' idle ticks (264,132 events before) and kept its hash.
# Under ``grid_pacing()`` the previous goldens come back (below).
#
# The shortflows rows were re-pinned once more when the workload engine
# became the only short-flow launcher: its ``workload:*`` lines are new
# and its server ports start at 30000, not 20000. Dropping those lines
# and mapping each ``conn`` port 30000+ back to 20000+ gives the old
# goldens with the same event counts: 7861c0f8... (6,875 lines, 11,230
# events) and, under ``grid_pacing()``, e522fd57... (6,877 lines,
# 12,271 events).
GOLDENS = [
    (run_bulk, "207a5d8547c011b7f493026ac6f67bb9870c0f21b18ffc63073eafa3d0a5a3a6", 105_613, 262_604),
    (run_incast_workload, "fee1430222534d689957520023098f33dc84697e779dafd27a795af30a2335d3", 58_120, 140_417),
    (run_shortflow_workload, "3ee24d7223cb6e6f1acb65834909224ccd30dbb03e8103a10c009905fd0fccd3", 7_005, 11_230),
]

# Before the pace-what-is-sent rule, with the free-running tick grid.
GRID_PACING_GOLDENS = [
    (run_incast_workload, "d25a2a9e46c5b38580557015d4c65af49b8be415debdbfe2845a98a0fc4ad836", 59_582, 159_112),
    (run_shortflow_workload, "782881a39b3ddd4edf64e26f89d10ee10c8261efd6257370e9b5b0f75b0c875a", 7_007, 12_271),
]


@pytest.mark.parametrize(
    "setup, sha256, trace_lines, events", GOLDENS, ids=[g[0].__name__ for g in GOLDENS]
)
def test_trace_matches_golden(setup, sha256, trace_lines, events, tmp_path):
    row = traced_run(setup, FULL_SCALE, tmp_path)
    assert row["trace_sha256"] == sha256, (
        f"{setup.__name__}: trace is {row['trace_sha256']} ({row['trace_lines']} lines), "
        f"golden is {sha256} ({trace_lines} lines) — simulation behaviour changed"
    )
    assert row["trace_lines"] == trace_lines
    assert row["events"] == events


@pytest.mark.parametrize(
    "setup, sha256, trace_lines, events", GRID_PACING_GOLDENS,
    ids=[g[0].__name__ for g in GRID_PACING_GOLDENS],
)
def test_grid_pacing_gives_the_previous_goldens(setup, sha256, trace_lines, events, tmp_path):
    """The arming rule is the only thing that moved the traces above."""
    with grid_pacing():
        row = traced_run(setup, FULL_SCALE, tmp_path)
    assert (row["trace_sha256"], row["trace_lines"], row["events"]) == (sha256, trace_lines, events)


# Faults cancel timers, drop packets mid-flight and squeeze queues: the
# event-core paths a seeded packet run alone does not reach.
FAULT_PLAN = pathlib.Path(__file__).resolve().parents[1] / "examples/fault_plans/lossy_fabric.json"
FAULT_GOLDEN = ("4322c1a3157ef68968ff9704b4b73e7420b22ab935dee03097e7c98fe6adec67", 7_057)


def test_fault_plan_trace_matches_golden(tmp_path):
    config = ExperimentConfig(
        variant="tdtcp", n_flows=2, weeks=4, warmup_weeks=1, seed=7,
        fault_plan_path=str(FAULT_PLAN),
        obs=ObsConfig(trace_dir=str(tmp_path), label="fault_golden",
                      chrome_trace=False, csv=False),
    )
    result = run_experiment(config)
    assert result.failure is None, result.failure
    assert result.fault_report is not None
    (jsonl_path,) = [p for p in result.artifacts if p.endswith(".jsonl")]
    data = pathlib.Path(jsonl_path).read_bytes()
    assert (hashlib.sha256(data).hexdigest(), data.count(b"\n")) == FAULT_GOLDEN
