"""Declarative fault plans (§3.2, §5.4 degraded-signal regimes).

A :class:`FaultPlan` is a list of :class:`FaultSpec` entries — each one
timed (``at_ns``/``until_ns``) and optionally periodic — that a
:class:`repro.faults.injectors.FaultInjector` executes against a built
testbed. Plans serialize to/from JSON so every chaos run is replayable
from a file: the repro bundle written on a crash embeds the plan next
to the seed and config.

Determinism contract: a plan carries **no randomness of its own**. All
stochastic decisions (loss draws, jitter widths, Gilbert–Elliott state
transitions) come from dedicated :class:`repro.sim.rng.SeededRandom`
child streams forked per spec (``faults`` → ``<index>:<kind>``), so

* the same plan + seed replays byte-identically, and
* enabling faults never perturbs the workload's own arrival sequences
  (the workload streams are separate forks of the same root seed and
  ``fork`` derives seeds arithmetically without drawing from the
  parent).

The JSON schema is documented in ``docs/robustness.md``.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence

#: kind -> (layer, recognized params, one-line description).
FAULT_CATALOG: Dict[str, Any] = {
    "link_flap": (
        "net",
        ("down_ns",),
        "take matching links down for down_ns starting at at_ns (periodic with period_ns/count)",
    ),
    "packet_loss": (
        "net",
        ("rate",),
        "independent (Bernoulli) packet loss on matching carriers while active",
    ),
    "burst_loss": (
        "net",
        ("p_enter", "p_exit", "loss_good", "loss_bad"),
        "Gilbert-Elliott two-state burst loss on matching carriers while active",
    ),
    "delay_jitter": (
        "net",
        ("rate", "max_jitter_ns"),
        "per-packet extra delay in [0, max_jitter_ns] with probability rate (causes reordering)",
    ),
    "queue_squeeze": (
        "net",
        ("capacity",),
        "shrink matching queues to capacity packets between at_ns and until_ns",
    ),
    "notifier_drop": (
        "rdcn",
        ("rate",),
        "drop TDN-change notifications with probability rate while active",
    ),
    "notifier_delay": (
        "rdcn",
        ("rate", "max_delay_ns"),
        "delay TDN-change notifications by up to max_delay_ns (stale/out-of-order arrivals)",
    ),
    "notifier_duplicate": (
        "rdcn",
        ("rate", "dup_delay_ns"),
        "re-deliver TDN-change notifications dup_delay_ns later with probability rate",
    ),
    "schedule_skew": (
        "rdcn",
        ("max_skew_ns",),
        "jitter every day/night boundary by a uniform draw in [0, max_skew_ns]",
    ),
    "rotor_stall": (
        "rdcn",
        (),
        "freeze the optical rotor: gate matching uplinks from at_ns to until_ns",
    ),
    "app_pause": (
        "host",
        (),
        "pause matching hosts (buffer all arriving packets) from at_ns to until_ns",
    ),
    "rcv_buffer_pressure": (
        "host",
        ("factor",),
        "scale the advertised receive window of matching hosts' connections by factor while active",
    ),
}


class FaultPlanError(ValueError):
    """A plan failed validation (unknown kind, bad window, bad params)."""


@dataclass(frozen=True)
class FaultSpec:
    """One schedulable fault.

    ``target`` is an ``fnmatch`` glob over component names: link names
    (``r0h0-up``, ``uplink-r0``), queue names (``voq-r0-to-r1``), host
    addresses (``r1h*``). ``at_ns``/``until_ns`` bound the active
    window (``until_ns`` None = one-shot for point faults, open-ended
    for rate faults). ``period_ns``/``count`` repeat point faults
    (link flaps, rotor stalls).
    """

    kind: str
    target: str = "*"
    at_ns: int = 0
    until_ns: Optional[int] = None
    period_ns: Optional[int] = None
    count: int = 1
    params: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in FAULT_CATALOG:
            raise FaultPlanError(
                f"unknown fault kind {self.kind!r}; known: {sorted(FAULT_CATALOG)}"
            )
        if self.at_ns < 0:
            raise FaultPlanError(f"{self.kind}: at_ns must be non-negative")
        if self.until_ns is not None and self.until_ns <= self.at_ns:
            raise FaultPlanError(f"{self.kind}: until_ns must exceed at_ns")
        if self.count < 1:
            raise FaultPlanError(f"{self.kind}: count must be >= 1")
        if self.count > 1 and not self.period_ns:
            raise FaultPlanError(f"{self.kind}: count > 1 requires period_ns")
        if self.period_ns is not None and self.period_ns <= 0:
            raise FaultPlanError(f"{self.kind}: period_ns must be positive")
        _layer, known, _desc = FAULT_CATALOG[self.kind]
        unknown = set(self.params) - set(known)
        if unknown:
            raise FaultPlanError(
                f"{self.kind}: unknown params {sorted(unknown)}; known: {list(known)}"
            )
        for name, value in self.params.items():
            if not isinstance(value, (int, float)):
                raise FaultPlanError(f"{self.kind}: param {name} must be numeric")
        for rate_name in ("rate", "p_enter", "p_exit", "loss_good", "loss_bad"):
            if rate_name in self.params and not (0.0 <= self.params[rate_name] <= 1.0):
                raise FaultPlanError(f"{self.kind}: {rate_name} must be in [0, 1]")

    @property
    def layer(self) -> str:
        return FAULT_CATALOG[self.kind][0]

    def active_at(self, time_ns: int) -> bool:
        """Is this spec's window open at ``time_ns``? Rate faults with
        no ``until_ns`` stay active forever once ``at_ns`` passes."""
        if time_ns < self.at_ns:
            return False
        return self.until_ns is None or time_ns < self.until_ns

    def param(self, name: str, default: float) -> float:
        return self.params.get(name, default)

    def to_dict(self) -> dict:
        data: Dict[str, Any] = {"kind": self.kind, "target": self.target, "at_ns": self.at_ns}
        if self.until_ns is not None:
            data["until_ns"] = self.until_ns
        if self.period_ns is not None:
            data["period_ns"] = self.period_ns
        if self.count != 1:
            data["count"] = self.count
        if self.params:
            data["params"] = dict(self.params)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "FaultSpec":
        if not isinstance(data, dict):
            raise FaultPlanError(f"fault spec must be an object, got {type(data).__name__}")
        known = {"kind", "target", "at_ns", "until_ns", "period_ns", "count", "params"}
        unknown = set(data) - known
        if unknown:
            raise FaultPlanError(f"unknown fault spec fields {sorted(unknown)}")
        if "kind" not in data:
            raise FaultPlanError("fault spec needs a 'kind'")
        return cls(
            kind=data["kind"],
            target=data.get("target", "*"),
            at_ns=int(data.get("at_ns", 0)),
            until_ns=None if data.get("until_ns") is None else int(data["until_ns"]),
            period_ns=None if data.get("period_ns") is None else int(data["period_ns"]),
            count=int(data.get("count", 1)),
            params=dict(data.get("params", {})),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A named, serializable list of fault specs."""

    specs: Sequence[FaultSpec] = ()
    name: str = "fault-plan"
    description: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self):
        return iter(self.specs)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "description": self.description,
            "specs": [spec.to_dict() for spec in self.specs],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        if not isinstance(data, dict):
            raise FaultPlanError(f"fault plan must be an object, got {type(data).__name__}")
        specs = data.get("specs", [])
        if not isinstance(specs, list):
            raise FaultPlanError("'specs' must be a list")
        return cls(
            specs=[FaultSpec.from_dict(entry) for entry in specs],
            name=str(data.get("name", "fault-plan")),
            description=str(data.get("description", "")),
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FaultPlanError(f"fault plan is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    @classmethod
    def load(cls, path) -> "FaultPlan":
        return cls.from_json(pathlib.Path(path).read_text())

    def save(self, path) -> str:
        target = pathlib.Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(self.to_json() + "\n")
        return str(target)
