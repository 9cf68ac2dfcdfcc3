"""Deterministic fault injection, invariant auditing, and crash capture.

See ``docs/robustness.md`` for the fault-plan JSON schema, the injector
catalog, auditor modes, and the repro-bundle workflow.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "audit": (
        "AUDIT_MODES",
        "InvariantAuditor",
        "InvariantViolation",
        "WatchdogExceeded",
        "run_with_watchdog",
        "write_repro_bundle",
    ),
    "injectors": ("FaultInjector",),
    "plan": ("FAULT_CATALOG", "FaultPlan", "FaultPlanError", "FaultSpec"),
})
