"""Differential determinism: channels+pooling vs a plain heap.

The channel/pool event core claims *exact* behavioural equivalence with
a flat heap of one-shot events: ``seq`` is assigned from the same global
counter at schedule time, and promotion-on-pop preserves global
(time, seq) firing order, so every simulation byte must be identical.
This suite pins that claim the same way
``test_ack_pipeline_equivalence.py`` pins the ACK-pipeline fusion — by
running the real workloads both ways and demanding byte-identical JSONL
telemetry traces:

* the three seeded trace workloads of ``test_trace_goldens.py``
  (bulk / incast / shortflows) at a reduced scale, and
* one canned fault plan from ``examples/fault_plans/`` (faults cancel
  timers, drop packets mid-flight, and squeeze queues — the paths where
  lazy channel discard and pool recycling could plausibly diverge).

The oracle side runs on ``tests.helpers.PlainHeapQueue``, which routes
every push straight to the heap as a fresh pinned event; it is
installed in place of ``repro.sim.simulator.EventQueue``, so every
simulator built afterwards uses it.
"""

from __future__ import annotations

import hashlib
import pathlib

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.obs.telemetry import ObsConfig
from tests.helpers import (
    PlainHeapQueue,
    run_bulk,
    run_incast_workload,
    run_shortflow_workload,
    traced_run,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

# Reduced-scale copy of the golden workloads: same mechanisms, smaller
# horizons, so the differential pass stays test-suite-fast.
SMALL_SCALE = {
    "seed": 3,
    "bulk_weeks": 3,
    "bulk_flows": 2,
    "incast_weeks": 4,
    "incast_workers": 3,
    "short_weeks": 4,
}

FAULT_PLAN = REPO_ROOT / "examples" / "fault_plans" / "lossy_fabric.json"


def _both_queues(monkeypatch, tmp_path, run):
    """``run(trace_dir)`` on the product queue, then on the oracle."""
    channel = run(tmp_path / "channel")
    monkeypatch.setattr("repro.sim.simulator.EventQueue", PlainHeapQueue)
    return channel, run(tmp_path / "plain")


class TestHarnessWorkloadEquivalence:
    @pytest.mark.parametrize(
        "setup",
        [run_bulk, run_incast_workload, run_shortflow_workload],
        ids=lambda setup: setup.__name__,
    )
    def test_trace_bytes_identical(self, setup, tmp_path, monkeypatch):
        channel, plain = _both_queues(
            monkeypatch, tmp_path, lambda trace_dir: traced_run(setup, SMALL_SCALE, trace_dir)
        )
        # The workload must be non-trivial, or equivalence is vacuous.
        assert channel["events"] > 1_000
        assert channel["trace_lines"] > 100
        assert channel["events"] == plain["events"]
        assert channel["trace_lines"] == plain["trace_lines"]
        assert channel["trace_sha256"] == plain["trace_sha256"], (
            f"{setup.__name__}: channel/pool trace diverged from the plain heap"
        )
        # Sanity: the two sides really were different implementations.
        assert channel["queue"]["pool_hits"] > 0
        assert plain["queue"]["pool_hits"] == 0
        # And the channels never grow the heap; on the packet-dominated
        # bulk workload they must strictly shrink it (short-flow churn
        # at this tiny scale is timer-dominated, so equality is fine).
        assert channel["queue"]["max_heap_len"] <= plain["queue"]["max_heap_len"]
        if setup is run_bulk:
            assert channel["queue"]["max_heap_len"] < plain["queue"]["max_heap_len"]


class TestFaultPlanEquivalence:
    def _run(self, trace_dir: pathlib.Path) -> tuple:
        config = ExperimentConfig(
            variant="tdtcp",
            n_flows=2,
            weeks=4,
            warmup_weeks=1,
            seed=7,
            fault_plan_path=str(FAULT_PLAN),
            obs=ObsConfig(
                trace_dir=str(trace_dir),
                label="fault_diff",
                jsonl=True,
                chrome_trace=False,
                csv=False,
            ),
        )
        result = run_experiment(config)
        assert result.failure is None, result.failure
        (jsonl_path,) = [p for p in result.artifacts if p.endswith(".jsonl")]
        data = pathlib.Path(jsonl_path).read_bytes()
        return hashlib.sha256(data).hexdigest(), data.count(b"\n"), result

    def test_trace_bytes_identical_under_faults(self, tmp_path, monkeypatch):
        channel, plain = _both_queues(monkeypatch, tmp_path, self._run)
        chan_sha, chan_lines, chan_result = channel
        plain_sha, plain_lines, _plain_result = plain
        assert chan_lines > 100  # the run must be non-trivial
        assert chan_lines == plain_lines
        assert chan_sha == plain_sha, (
            "channel/pool trace diverged from the plain heap under fault injection"
        )
        # The fault plan must actually have fired for this to mean much.
        assert chan_result.fault_report is not None
