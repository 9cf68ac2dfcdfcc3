"""Deterministic fault injection, invariant auditing, and crash capture.

See ``docs/robustness.md`` for the fault-plan JSON schema, the injector
catalog, auditor modes, and the repro-bundle workflow.
"""

from repro.faults.audit import (
    AUDIT_MODES,
    InvariantAuditor,
    InvariantViolation,
    WatchdogExceeded,
    run_with_watchdog,
    write_repro_bundle,
)
from repro.faults.injectors import FaultInjector
from repro.faults.plan import FAULT_CATALOG, FaultPlan, FaultPlanError, FaultSpec

__all__ = [
    "AUDIT_MODES",
    "FAULT_CATALOG",
    "FaultInjector",
    "FaultPlan",
    "FaultPlanError",
    "FaultSpec",
    "InvariantAuditor",
    "InvariantViolation",
    "WatchdogExceeded",
    "run_with_watchdog",
    "write_repro_bundle",
]
