"""Workload applications: bulk flows (flowgrind-like), empirical
flow-size mixes, incast rounds, and the fabric-wide workload engine (which also replays short-RPC traces)."""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "bulk": ("BulkReceiver", "BulkSender"),
    "engine": (
        "CompletionStats",
        "TraceFlow",
        "WorkloadEngine",
        "load_trace",
        "write_trace",
    ),
    "workload": ("Flow", "Workload"),
    "incast": ("IncastCoordinator", "IncastStats", "run_incast"),
    "tracegen": ("DATA_MINING_CDF", "EmpiricalFlowSizes", "WEB_SEARCH_CDF"),
})
