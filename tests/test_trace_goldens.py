"""The determinism contract: the JSONL telemetry trace of three seeded
workloads is pinned byte for byte.

A change that is not meant to alter simulation behaviour — a perf
optimisation, a refactor, a deletion — must leave every one of these
hashes alone; a mismatch means some packet, timer or notification now
happens at a different time or in a different order. docs/performance.md
("The determinism contract") says how to find which.
"""

from __future__ import annotations

import pytest

from tests.helpers import (
    FULL_SCALE,
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
GOLDENS = [
    (run_bulk, "207a5d8547c011b7f493026ac6f67bb9870c0f21b18ffc63073eafa3d0a5a3a6", 105_613, 264_132),
    (run_incast_workload, "d25a2a9e46c5b38580557015d4c65af49b8be415debdbfe2845a98a0fc4ad836", 59_582, 159_112),
    (run_shortflow_workload, "e522fd57f49f750c12beb27318b490d101c00a6aa8cf82ce767d19af3fc35399", 6_877, 12_271),
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
