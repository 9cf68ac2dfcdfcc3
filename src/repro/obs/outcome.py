"""What a run produced: the one split of result fields into simulated
outcome and host cost, and the digest every golden hashes.

A seeded run repeats its simulated outcome byte for byte; what the host
spent on it (wall clock, event rates, profiler text, where telemetry
wrote its files) does not repeat. :data:`HOST_FIELDS` names the second
kind wherever it appears in a result, a workload summary or a campaign
record; :func:`strip_wall` drops them at any depth and
:func:`outcome_digest` hashes what is left in the canonical form
(``json.dumps(..., sort_keys=True)``).
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

__all__ = ["HOST_FIELDS", "WALL_FIELDS", "WALL_SUMMARY_FIELDS", "outcome_digest", "strip_wall"]

#: Wall-clock fields of campaign journal records (``repro.obs.campaign``).
WALL_FIELDS = ("wall_ms", "wall_s", "events_per_s", "eta_s")

#: Wall-clock keys of a workload-engine summary (``repro.apps.engine``).
WALL_SUMMARY_FIELDS = ("engine_wall_s", "engine_flows_per_sec")

#: Every host-dependent field: the two lists above plus the telemetry
#: outputs of an ``ExperimentResult``.
HOST_FIELDS = frozenset(WALL_FIELDS + WALL_SUMMARY_FIELDS) | {
    "events_per_second", "profile_report", "artifacts"}


def strip_wall(value: Any) -> Any:
    """``value`` without any :data:`HOST_FIELDS` key, at any depth
    (tuples come back as lists, as JSON would render them)."""
    if isinstance(value, dict):
        return {k: strip_wall(v) for k, v in value.items() if k not in HOST_FIELDS}
    if isinstance(value, (list, tuple)):
        return [strip_wall(v) for v in value]
    return value


def outcome_digest(value: Any) -> str:
    """sha256 of the key-sorted JSON of ``strip_wall(value)``."""
    text = json.dumps(strip_wall(value), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
