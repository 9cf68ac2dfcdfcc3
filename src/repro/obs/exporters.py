"""Trace exporters: JSONL, Chrome trace-event JSON, and CSV.

All exporters render the same in-memory event stream — ``(time_ns,
tracepoint_name, fields)`` tuples as captured by :class:`MemoryExporter`
— so one run can ship its raw telemetry in every format at once:

* **JSONL** — one JSON object per line, key-sorted. Byte-identical
  across identical seeded runs (the determinism contract the tests pin).
* **Chrome trace-event JSON** — loadable in Perfetto or
  ``chrome://tracing``. TDNs appear as tracks (one thread per TDN under
  the ``fabric`` process, day spans as slices), connections as tracks
  under the ``tcp`` process, queue occupancy and cwnd as counter series.
* **CSV** — one time-series file per tracepoint family, for spreadsheets
  and plotting scripts.
"""

from __future__ import annotations

import csv
import json
import math
import pathlib
from typing import Any, Dict, Iterable, List, Tuple

# One captured probe event.
TraceEvent = Tuple[int, str, Dict[str, Any]]


class MemoryExporter:
    """Buffers every event it sees; the substrate the file exporters
    render from, and directly usable in tests."""

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []

    def __call__(self, time_ns: int, name: str, fields: Dict[str, Any]) -> None:
        # No defensive copy: each emit builds a fresh kwargs dict and no
        # subscriber mutates it, so the buffer can keep it as-is.
        self.events.append((time_ns, name, fields))

    def __len__(self) -> int:
        return len(self.events)


def _clean(value: Any) -> Any:
    """JSON-safe scalar: non-finite floats become None (strict JSON has
    no Infinity literal, and Perfetto rejects it)."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def render_jsonl(events: Iterable[TraceEvent]) -> str:
    """One key-sorted JSON object per line: ``{"tp": name, "ts": ns,
    ...fields}``. Deterministic byte-for-byte for a deterministic run."""
    lines = []
    for time_ns, name, fields in events:
        record = {"tp": name, "ts": time_ns}
        for key, value in fields.items():
            record[key] = _clean(value)
        lines.append(json.dumps(record, sort_keys=True, separators=(",", ":")))
    return "\n".join(lines) + ("\n" if lines else "")


class _TrackAllocator:
    """Stable small-integer thread ids for string track keys."""

    def __init__(self) -> None:
        self._ids: Dict[Any, int] = {}

    def tid(self, key: Any) -> int:
        if key not in self._ids:
            self._ids[key] = len(self._ids) + 1
        return self._ids[key]

    def items(self):
        return self._ids.items()


# Chrome trace process ids, one per subsystem.
_PID_FABRIC = 1
_PID_TCP = 2
_PID_QUEUES = 3
_PID_NOTIFIER = 4

_PROCESS_NAMES = {
    _PID_FABRIC: "fabric (TDNs)",
    _PID_TCP: "tcp",
    _PID_QUEUES: "queues",
    _PID_NOTIFIER: "notifier",
}


def render_chrome_trace(events: Iterable[TraceEvent]) -> dict:
    """Chrome trace-event JSON (object format, ``traceEvents`` list).

    Timestamps are microseconds as the format requires. Every emitted
    event carries the ``ph``/``ts``/``pid`` keys tracing frontends need.
    """
    trace: List[dict] = []
    tdn_tracks = _TrackAllocator()
    conn_tracks = _TrackAllocator()
    open_day: List[Tuple[int, int]] = []  # (tid, tdn) of the open day slice

    def us(time_ns: int) -> float:
        return time_ns / 1000.0

    def args_of(fields: Dict[str, Any]) -> Dict[str, Any]:
        return {key: _clean(value) for key, value in fields.items()}

    for time_ns, name, fields in events:
        if name == "rdcn:day_night":
            phase = fields.get("phase")
            if open_day:
                tid, _tdn = open_day.pop()
                trace.append({"ph": "E", "ts": us(time_ns), "pid": _PID_FABRIC, "tid": tid})
            if phase == "day":
                tdn = fields.get("tdn", 0)
                tid = tdn_tracks.tid(tdn)
                trace.append({
                    "ph": "B", "ts": us(time_ns), "pid": _PID_FABRIC, "tid": tid,
                    "name": f"day tdn{tdn}", "cat": "rdcn",
                    "args": {"day_index": fields.get("day_index")},
                })
                open_day.append((tid, tdn))
            active = fields.get("tdn") if phase == "day" else -1
            trace.append({
                "ph": "C", "ts": us(time_ns), "pid": _PID_FABRIC, "tid": 0,
                "name": "active_tdn", "args": {"tdn": -1 if active is None else active},
            })
        elif name == "tcp:cwnd_update":
            conn = fields.get("conn", "?")
            tdn = fields.get("tdn", 0)
            counter_args = {"cwnd": _clean(fields.get("cwnd"))}
            ssthresh = _clean(fields.get("ssthresh"))
            if ssthresh is not None:
                counter_args["ssthresh"] = ssthresh
            trace.append({
                "ph": "C", "ts": us(time_ns), "pid": _PID_TCP,
                "tid": conn_tracks.tid(conn),
                "name": f"cwnd {conn}/tdn{tdn}", "args": counter_args,
            })
        elif name == "queue:occupancy":
            trace.append({
                "ph": "C", "ts": us(time_ns), "pid": _PID_QUEUES, "tid": 0,
                "name": f"occupancy {fields.get('queue', '?')}",
                "args": {"packets": _clean(fields.get("length", 0))},
            })
        else:
            pid = _PID_TCP
            tid = 0
            if name.startswith("queue:"):
                pid = _PID_QUEUES
            elif name.startswith("notifier:"):
                pid = _PID_NOTIFIER
            elif name.startswith("rdcn:"):
                pid = _PID_FABRIC
            elif name.startswith(("tcp:", "tdtcp:")):
                tid = conn_tracks.tid(fields.get("conn", "?"))
            trace.append({
                "ph": "i", "s": "t", "ts": us(time_ns), "pid": pid, "tid": tid,
                "name": name, "cat": name.split(":", 1)[0], "args": args_of(fields),
            })

    # Close any day slice left open at the end of the run.
    if open_day and trace:
        last_ts = trace[-1]["ts"]
        tid, _tdn = open_day.pop()
        trace.append({"ph": "E", "ts": last_ts, "pid": _PID_FABRIC, "tid": tid})

    metadata: List[dict] = []
    for pid, pname in _PROCESS_NAMES.items():
        metadata.append({
            "ph": "M", "ts": 0, "pid": pid, "name": "process_name",
            "args": {"name": pname},
        })
    for tdn, tid in tdn_tracks.items():
        metadata.append({
            "ph": "M", "ts": 0, "pid": _PID_FABRIC, "tid": tid,
            "name": "thread_name", "args": {"name": f"tdn{tdn}"},
        })
    for conn, tid in conn_tracks.items():
        metadata.append({
            "ph": "M", "ts": 0, "pid": _PID_TCP, "tid": tid,
            "name": "thread_name", "args": {"name": str(conn)},
        })
    return {"traceEvents": metadata + trace, "displayTimeUnit": "ns"}


def _family_filename(family: str) -> str:
    return family.replace(":", "_").replace("/", "_")


def write_csv_series(
    events: Iterable[TraceEvent], directory, label: str
) -> List[str]:
    """One CSV per tracepoint family: ``<label>_<family>.csv`` with a
    ``ts_ns`` column plus the union of field names (sorted)."""
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    by_family: Dict[str, List[TraceEvent]] = {}
    for event in events:
        by_family.setdefault(event[1], []).append(event)
    written: List[str] = []
    for family in sorted(by_family):
        rows = by_family[family]
        columns = sorted({key for _t, _n, fields in rows for key in fields})
        path = directory / f"{label}_{_family_filename(family)}.csv"
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["ts_ns"] + columns)
            for time_ns, _name, fields in rows:
                writer.writerow(
                    [time_ns] + [_clean(fields.get(column, "")) for column in columns]
                )
        written.append(str(path))
    return written
