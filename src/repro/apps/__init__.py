"""Workload applications: bulk flows (flowgrind-like), empirical
flow-size mixes, incast rounds, background cross traffic, and the
fabric-wide workload engine (which also replays short-RPC traces)."""

from repro.apps.bulk import BulkReceiver, BulkSender
from repro.apps.engine import (
    CompletionStats,
    TraceFlow,
    WorkloadEngine,
    load_trace,
    write_trace,
)
from repro.apps.workload import Flow, Workload
from repro.apps.background import BackgroundTraffic
from repro.apps.incast import IncastCoordinator, IncastStats, run_incast
from repro.apps.tracegen import (
    DATA_MINING_CDF,
    EmpiricalFlowSizes,
    WEB_SEARCH_CDF,
)

__all__ = [
    "BulkSender",
    "BulkReceiver",
    "Flow",
    "Workload",
    "BackgroundTraffic",
    "IncastCoordinator",
    "IncastStats",
    "run_incast",
    "EmpiricalFlowSizes",
    "WEB_SEARCH_CDF",
    "DATA_MINING_CDF",
    "WorkloadEngine",
    "CompletionStats",
    "TraceFlow",
    "load_trace",
    "write_trace",
]
