"""Tracepoints: named, typed probe points modeled on Linux tracepoints.

The kernel analogue the paper leans on (``tcp_probe``, ``ss -ti`` state
dumps) exposes protocol internals at stable, named probe points; this
module provides the simulator-side equivalent. A :class:`Tracepoint` is
a cheap dispatch object: instrumented code fetches it once (one dict
lookup at construction) and guards every emission with the ``enabled``
attribute, so a run with no subscribers pays one attribute check per
probe site and nothing else.

The catalog of probe points (:data:`TRACEPOINT_CATALOG`) mirrors the
kernel probes the paper's evaluation used — see
``docs/observability.md`` for the mapping.
"""

from __future__ import annotations

import fnmatch
from typing import Any, Callable, Dict, List, Tuple

# Subscriber signature: fn(time_ns, tracepoint_name, fields_dict).
Subscriber = Callable[[int, str, Dict[str, Any]], None]

# name -> (documented field names, one-line description). Field tuples
# are documentation and export schema, not enforcement: emit() accepts
# arbitrary keywords so instrumentation can evolve without registry
# churn.
TRACEPOINT_CATALOG: Dict[str, Tuple[Tuple[str, ...], str]] = {
    "tcp:cwnd_update": (
        ("conn", "tdn", "cwnd", "ssthresh", "ca_state", "reason"),
        "congestion window / ssthresh change on one path (kernel: tcp_probe)",
    ),
    "tcp:retransmit": (
        ("conn", "tdn", "seq", "retx_count", "probe", "spurious"),
        "segment retransmission (kernel: tcp_retransmit_skb)",
    ),
    "tcp:ca_state": (
        ("conn", "tdn", "state", "reason"),
        "congestion-avoidance state machine transition (kernel: tcp_ca_state_set)",
    ),
    "tdtcp:tdn_switch": (
        ("conn", "from_tdn", "to_tdn", "saved_cwnd", "restored_cwnd", "snd_nxt", "switches"),
        "TDTCP state-set save/restore at a TDN change (§3.1)",
    ),
    "rdcn:day_night": (
        ("phase", "tdn", "day_index"),
        "fabric day start / night (reconfiguration blackout) start (§2.1)",
    ),
    "queue:drop": (
        ("queue", "occupancy"),
        "drop-tail overflow at a VOQ",
    ),
    "queue:occupancy": (
        ("queue", "length"),
        "VOQ length change (enqueue or dequeue)",
    ),
    "pool:occupancy": (
        ("pool", "used", "free"),
        "shared ToR buffer pool occupancy change (repro.net.queues.SharedBufferPool)",
    ),
    "pool:reject": (
        ("pool", "queue", "occupancy"),
        "pool admission refusal (complete-sharing full / dynamic threshold hit)",
    ),
    "notifier:deliver": (
        ("host", "tdn", "latency_ns"),
        "TDN-change notification processed by a host (§5.4 end-to-end latency)",
    ),
    "notifier:stale": (
        ("where", "name", "tdn", "reason"),
        "stale/duplicate/unknown TDN notification counted and ignored (§3.2 tolerance)",
    ),
    "fastpath:span": (
        ("phase", "pair", "flows", "reason", "span_ns"),
        "fluid span entered (phase=enter) or left (phase=exit, with its reason and "
        "length) on one uplink direction (repro.sim.fastpath)",
    ),
    "fastpath:virtual_loss": (
        ("pair", "tdn", "cwnd"),
        "analytic VOQ-overflow loss applied to one fluid flow's window (repro.sim.fastpath)",
    ),
    "workload:flow_start": (
        ("src", "dst", "size_bytes"),
        "workload-engine flow launched (repro.apps.engine)",
    ),
    "workload:flow_complete": (
        ("src", "dst", "size_bytes", "fct_ns", "slowdown"),
        "workload-engine flow fully delivered: FCT and line-rate slowdown",
    ),
    "workload:load_report": (
        ("offered_load", "achieved_load", "started", "completed", "truncated"),
        "end-of-run offered vs achieved load digest (one emission per engine run; "
        "a trace replay offers the load of the rows it launched)",
    ),
    "fault:inject": (
        ("kind", "target", "detail"),
        "one injected fault effect (repro.faults: drop, flap, stall, skew, ...)",
    ),
    "executor:cache_write_error": (
        ("key", "error"),
        "result-cache write failed (e.g. ENOSPC); the batch continues uncached "
        "(process-level probe: repro.experiments.executor.CACHE_WRITE_ERROR_TP)",
    ),
    "audit:violation": (
        ("check", "subject", "detail"),
        "runtime invariant auditor found corrupted state (repro.faults.audit)",
    ),
}


class Tracepoint:
    """One named probe point.

    ``enabled`` flips to True while at least one subscriber is attached;
    instrumented code is expected to guard with it::

        if self._tp_cwnd.enabled:
            self._tp_cwnd.emit(self.sim.now, conn=self.name, cwnd=cwnd)
    """

    __slots__ = ("name", "fields", "description", "enabled", "_subscribers")

    def __init__(
        self,
        name: str,
        fields: Tuple[str, ...] = (),
        description: str = "",
    ):
        self.name = name
        self.fields = fields
        self.description = description
        self.enabled = False
        self._subscribers: List[Subscriber] = []

    def subscribe(self, fn: Subscriber) -> None:
        """Attach a subscriber; enables the tracepoint."""
        self._subscribers.append(fn)
        self.enabled = True

    def emit(self, time_ns: int, **fields: Any) -> None:
        """Dispatch one event to every subscriber, in subscription
        order (deterministic given a deterministic simulation)."""
        for fn in self._subscribers:
            fn(time_ns, self.name, fields)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "on" if self.enabled else "off"
        return f"<Tracepoint {self.name} [{state}] subs={len(self._subscribers)}>"


#: Shared disabled sentinel handed out when no telemetry is attached;
#: subscribing to it is a programming error, so it raises.
class _NullTracepoint(Tracepoint):
    __slots__ = ()

    def subscribe(self, fn: Subscriber) -> None:
        raise RuntimeError(
            "cannot subscribe to NULL_TRACEPOINT; attach a Telemetry to the "
            "simulator before constructing the instrumented object"
        )


NULL_TRACEPOINT = _NullTracepoint("null", (), "disabled sentinel")


class TracepointRegistry:
    """The named probe points of one telemetry instance.

    Lookup is a single dict access; tracepoint objects are identity-
    stable, so instrumented code can fetch them once at construction and
    later ``subscribe`` calls take effect at the same object.
    """

    def __init__(self) -> None:
        self._tracepoints: Dict[str, Tracepoint] = {}
        for name, (fields, description) in TRACEPOINT_CATALOG.items():
            self._tracepoints[name] = Tracepoint(name, fields, description)

    def get(self, name: str) -> Tracepoint:
        """The tracepoint registered under ``name``; unknown names are
        auto-registered (ad-hoc probes in tests and extensions)."""
        tp = self._tracepoints.get(name)
        if tp is None:
            tp = Tracepoint(name)
            self._tracepoints[name] = tp
        return tp

    def match(self, pattern: str) -> List[Tracepoint]:
        """Tracepoints whose name matches a glob (``tcp:*``, ``*``)."""
        return [
            self._tracepoints[name]
            for name in sorted(self._tracepoints)
            if fnmatch.fnmatchcase(name, pattern)
        ]

    def subscribe(self, pattern: str, fn: Subscriber) -> List[Tracepoint]:
        """Subscribe ``fn`` to every tracepoint matching ``pattern``;
        returns the tracepoints touched."""
        touched = self.match(pattern)
        for tp in touched:
            tp.subscribe(fn)
        return touched
