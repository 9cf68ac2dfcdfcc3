"""Campaign observability: the run-lifecycle event bus.

A *campaign* is one executor batch — a figure, a sweep, or a
variants × seeds grid — observed while it runs. The ROADMAP's sweep
fabric requires that "a 10k-run campaign is observable while it runs";
this module is the transport and the vocabulary:

* :class:`CampaignLog` — an append-only JSONL event bus. Every record
  is a key-sorted JSON object with a monotonic ``seq``, flushed per
  line so ``tail -f`` sees events as they happen. Subscribers attached
  to the log receive each record in process, so the same stream drives
  the file, the executor's stats, and tests.
* The **event schema** (:data:`EVENT_SCHEMA`): ``campaign_start``,
  ``queued``, ``started``, ``heartbeat``, ``cache_hit``, ``retry``,
  ``finished``, ``failed``, ``quarantined``, ``campaign_end``, plus the
  crash-safety meta events ``campaign_resume`` and ``campaign_abort``
  (schema v2). :func:`validate_record` / :func:`validate_records` check
  field presence, types, and seq monotonicity — CI validates every
  record of a smoke campaign.
* The **run lifecycle** (:class:`CampaignFold`): the one transition
  function from records to per-run state (:class:`RunState`, states
  :data:`RUN_STATES`, terminal ones :data:`TERMINAL_STATES`). Summary,
  checkpoint, dashboard timeline and resume are all
  projections of it — none of them reads event names to decide what
  state a run is in. ``docs/observability.md`` has the state table.
* :func:`campaign_summary` — a deterministic digest: wall-clock-derived
  fields (:data:`WALL_FIELDS`) are stripped and runs are keyed by
  label, so two identical seeded campaigns produce **byte-identical**
  summaries no matter how their events interleaved across workers.

Heartbeats originate in :meth:`repro.sim.simulator.Simulator.run` (the
``set_heartbeat`` hook). An inline run's heartbeats stream straight
into the log; a pooled worker collects its run's heartbeats and returns
them with the result, and the executor journals them just before the
run's ``finished`` or ``failed`` record. Every executed run emits at
least one heartbeat (a final flush fires at run end), so a silent
worker is always distinguishable from a short run.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, IO, Iterable, List, Optional, Sequence

from repro.obs.outcome import WALL_FIELDS, strip_wall

__all__ = [
    "CAMPAIGN_SCHEMA_VERSION",
    "EVENT_SCHEMA",
    "EVENT_TYPES",
    "META_EVENTS",
    "RUN_STATES",
    "TERMINAL_STATES",
    "WALL_FIELDS",
    "CampaignFold",
    "CampaignLog",
    "RunState",
    "campaign_summary",
    "fold_campaign",
    "read_campaign",
    "read_campaign_with_tail",
    "validate_record",
    "validate_records",
]

#: Bumped when record shapes change; stamped on ``campaign_start``.
#: v2: ``campaign_abort`` (graceful shutdown), ``campaign_resume``
#: (checkpoint replay), and ``quarantined`` (poison-run marking).
CAMPAIGN_SCHEMA_VERSION = 2

_NUM = (int, float)

#: event type -> {field: allowed types}. Fields beyond the schema are
#: permitted (the schema is a floor, like the tracepoint catalog);
#: missing or mistyped required fields fail validation.
EVENT_SCHEMA: Dict[str, Dict[str, tuple]] = {
    "campaign_start": {"schema": (int,), "total": (int,), "jobs": (int,)},
    "queued": {"run": (str,), "index": (int,), "total": (int,)},
    "started": {"run": (str,), "attempt": (int,)},
    "heartbeat": {
        "run": (str,),
        "sim_now": (int,),
        "events": (int,),
        "events_per_s": _NUM,
        "pending_events": (int,),
    },
    "cache_hit": {"run": (str,), "index": (int,)},
    "retry": {"run": (str,), "attempt": (int,)},
    "finished": {"run": (str,), "outcome": (str,)},
    "failed": {"run": (str,), "error_type": (str,), "error_message": (str,)},
    "quarantined": {"run": (str,), "attempts": (int,)},
    "campaign_end": {"stats": (dict,)},
    "campaign_resume": {
        "schema": (int,),
        "total": (int,),
        "replayed": (int,),
        "remaining": (int,),
        "jobs": (int,),
    },
    "campaign_abort": {"reason": (str,), "done": (int,), "total": (int,)},
}

EVENT_TYPES = tuple(EVENT_SCHEMA)

#: Every state a run can be in. ``queued`` -> ``running`` (``started``)
#: -> ``retrying`` (``retry``) -> ``running`` … until one run-ending
#: record: ``cached`` (``cache_hit``), ``finished``, or ``failed`` —
#: which a following ``quarantined`` record turns into ``quarantined``.
RUN_STATES = (
    "queued", "running", "retrying", "cached", "finished", "failed", "quarantined",
)

#: The states that end a run's lifecycle. ``failed`` marks an
#: infrastructure casualty that resume *resubmits*; ``quarantined`` a
#: poison run that resume must *never* resubmit.
TERMINAL_STATES = ("cached", "finished", "failed", "quarantined")

#: run-ending event -> the state it puts the run in.
_ENDING_STATE = {"cache_hit": "cached", "finished": "finished", "failed": "failed"}

#: Crash-safety bookkeeping events that describe *how this particular
#: journal came to be* rather than what the campaign computed. They are
#: excluded from :func:`campaign_summary` so an uninterrupted journal
#: and a kill-then-resume journal of the same seeded campaign digest
#: byte-identically.
META_EVENTS = ("campaign_resume", "campaign_abort")


def _typed(value: Any, types: tuple) -> bool:
    """``isinstance``, except that JSON ``true``/``false`` never pass
    as a number: no schema field is a boolean."""
    return isinstance(value, types) and not isinstance(value, bool)


def validate_record(record: Any) -> List[str]:
    """Schema errors of one parsed record ([] when valid)."""
    errors: List[str] = []
    if not isinstance(record, dict):
        return [f"record is not an object: {type(record).__name__}"]
    event = record.get("event")
    if event not in EVENT_SCHEMA:
        return [f"unknown event type {event!r}"]
    if not _typed(record.get("seq"), (int,)) or record["seq"] < 0:
        errors.append(f"{event}: seq must be a non-negative int")
    if not _typed(record.get("wall_ms"), _NUM):
        errors.append(f"{event}: wall_ms must be a number")
    for name, types in EVENT_SCHEMA[event].items():
        if name not in record:
            errors.append(f"{event}: missing field {name!r}")
        elif not _typed(record[name], types):
            errors.append(
                f"{event}: field {name!r} has type "
                f"{type(record[name]).__name__}, expected {'/'.join(t.__name__ for t in types)}"
            )
    return errors


def validate_records(records: Sequence[dict]) -> List[str]:
    """Validate a whole campaign stream: per-record schema plus the
    cross-record invariants (strictly monotonic ``seq``, start first)."""
    errors: List[str] = []
    last_seq = -1
    for position, record in enumerate(records):
        for error in validate_record(record):
            errors.append(f"record {position}: {error}")
        seq = record.get("seq") if isinstance(record, dict) else None
        if _typed(seq, (int,)):
            if seq <= last_seq:
                errors.append(
                    f"record {position}: seq {seq} not strictly greater than {last_seq}"
                )
            last_seq = max(last_seq, seq)
    if records:
        head = records[0]
        if not isinstance(head, dict) or head.get("event") != "campaign_start":
            errors.append("record 0: campaign must open with campaign_start")
    return errors


def read_campaign_with_tail(path) -> tuple:
    """Parse a campaign JSONL file, tolerating a truncated final line.

    A process killed mid-``write`` leaves exactly one artifact: a
    partial last line. Returns ``(records, partial_tail)`` where
    ``partial_tail`` is the unparseable trailing fragment (``None`` for
    a clean file). Corruption anywhere *before* the final non-empty
    line is not a crash artifact and still raises ``ValueError``.
    """
    records: List[dict] = []
    lines: List[tuple] = []
    with open(path) as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if line:
                lines.append((number, line))
    for position, (number, line) in enumerate(lines):
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as error:
            if position == len(lines) - 1:
                return records, line
            raise ValueError(
                f"{path}: corrupt record on line {number} "
                f"(not a truncated tail): {error}"
            ) from error
    return records, None


def read_campaign(path) -> List[dict]:
    """Parse a campaign JSONL file into record dicts. A truncated final
    line (the artifact of a mid-write crash) is dropped."""
    return read_campaign_with_tail(path)[0]


class CampaignLog:
    """Append-only, key-sorted JSONL event bus with a monotonic ``seq``.

    ``path=None`` keeps the bus purely in process (subscribers still
    fire). Records carry
    ``wall_ms`` (milliseconds since the log opened); every field that
    depends on wall time is listed in :data:`WALL_FIELDS` so
    deterministic digests can strip them.
    """

    def __init__(self, path=None, clock: Callable[[], float] = time.monotonic) -> None:
        self.path = str(path) if path is not None else None
        self._clock = clock
        self._started = clock()
        self._seq = 0
        self._subscribers: List[Callable[[dict], None]] = []
        self._handle: Optional[IO[str]] = None
        self.records: List[dict] = []
        if self.path is not None:
            self._handle = open(self.path, "w")

    def subscribe(self, fn: Callable[[dict], None]) -> None:
        """Receive every record as it is emitted (in process)."""
        self._subscribers.append(fn)

    def emit(self, event: str, **fields: Any) -> dict:
        """Append one record; returns the record dict."""
        if event not in EVENT_SCHEMA:
            raise ValueError(f"unknown campaign event {event!r}")
        record = dict(fields)
        record["event"] = event
        record["seq"] = self._seq
        record["wall_ms"] = round((self._clock() - self._started) * 1000.0, 3)
        self._seq += 1
        self.records.append(record)
        if self._handle is not None:
            self._handle.write(json.dumps(record, sort_keys=True) + "\n")
            self._handle.flush()  # live tailing sees events as they happen
        for fn in self._subscribers:
            fn(record)
        return record

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "CampaignLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@dataclass
class RunState:
    """One run's lifecycle state, folded from its records.

    ``queued`` / ``last_heartbeat`` / ``ending`` are the latest record
    of that kind (``None`` until one is seen): the fold decides *state*,
    projections pick the payload fields they report.
    """

    label: str
    state: str = "queued"
    attempts: int = 0
    retries: int = 0
    heartbeats: int = 0
    #: Run-ending records seen (``cache_hit``/``finished``/``failed``);
    #: a sound journal holds exactly one per settled run.
    endings: int = 0
    ending: Optional[dict] = None
    replayed: bool = False
    queued: Optional[dict] = None
    last_heartbeat: Optional[dict] = None
    started_ms: Optional[float] = None
    ended_ms: Optional[float] = None
    #: The run's full lifecycle in journal order (the replay input).
    records: List[dict] = field(default_factory=list)

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def index(self) -> Optional[int]:
        return self.queued.get("index") if self.queued is not None else None

    def summary(self) -> dict:
        """This run's entry in :func:`campaign_summary` (wall-free)."""
        out: Dict[str, Any] = {
            "state": self.state,
            "attempts": self.attempts,
            "retries": self.retries,
            "heartbeats": self.heartbeats,
            "cache_hit": self.state == "cached",
            "last_heartbeat": None,
        }
        if self.last_heartbeat is not None:
            out["last_heartbeat"] = {
                name: self.last_heartbeat.get(name)
                for name in ("sim_now", "events", "pending_events")
            }
        if self.queued is not None:
            out["index"] = self.index
            for name in ("variant", "seed"):
                if name in self.queued:
                    out[name] = self.queued[name]
        ending = self.ending or {}
        if ending.get("event") == "finished":
            out["outcome"] = ending.get("outcome")
            if "sketches" in ending:
                out["sketches"] = ending["sketches"]
        elif ending.get("event") == "failed":
            out["error_type"] = ending.get("error_type")
        return out


class CampaignFold:
    """The run lifecycle, defined once: feed records to :meth:`apply`
    in journal order and read per-run state off :attr:`runs`.

    Pure and synchronous — the same fold runs over a journal read back
    from disk (:func:`fold_campaign`) and over the records an executor
    is emitting right now, so what resume sees is by construction what
    the live campaign saw.
    """

    def __init__(self) -> None:
        #: One log may carry several batches; totals accumulate.
        self.total = 0
        self.runs: Dict[str, RunState] = {}
        #: state -> number of runs currently in it.
        self.states: Dict[str, int] = dict.fromkeys(RUN_STATES, 0)
        self.event_counts: Dict[str, int] = {}
        #: ``campaign_end`` stats, wall fields stripped, numeric
        #: counters summed across batches.
        self.stats: Optional[dict] = None
        #: The :data:`META_EVENTS` records, in journal order: how this
        #: journal came to be, not what the campaign computed — kept out
        #: of everything above, so a kill-then-resume journal digests
        #: byte-identically to the uninterrupted run's.
        self.meta: List[dict] = []

    @property
    def done(self) -> int:
        """Runs that reached a terminal state."""
        return sum(self.states[state] for state in TERMINAL_STATES)

    @property
    def failures(self) -> int:
        """Runs that ended without a result, resubmittable or poison."""
        return self.states["failed"] + self.states["quarantined"]

    def apply(self, record: dict) -> Optional[RunState]:
        """Advance by one record; returns the run it belongs to (None
        for campaign-level records)."""
        event = record.get("event")
        if event in META_EVENTS:
            self.meta.append(record)
            return None
        self.event_counts[event] = self.event_counts.get(event, 0) + 1
        if event == "campaign_start":
            self.total += record.get("total", 0)
            return None
        if event == "campaign_end":
            self._merge_stats(strip_wall(record.get("stats", {})))
            return None
        label = record.get("run")
        if not label:
            return None
        run = self.runs.get(label)
        if run is None:
            run = self.runs[label] = RunState(label)
            self.states[run.state] += 1
        before = run.state
        run.records.append(record)
        if record.get("replayed"):
            run.replayed = True
        if event == "queued":
            run.queued = record
        elif event == "started":
            run.attempts += 1
            run.state = "running"
            if run.started_ms is None:
                run.started_ms = record.get("wall_ms")
        elif event == "retry":
            run.retries += 1
            run.state = "retrying"
        elif event == "heartbeat":
            run.heartbeats += 1
            run.last_heartbeat = record
        elif event == "quarantined":
            run.state = "quarantined"
        elif event in _ENDING_STATE:
            run.state = _ENDING_STATE[event]
            run.ending = record
            run.endings += 1
            run.ended_ms = record.get("wall_ms")
        if run.state != before:
            self.states[before] -= 1
            self.states[run.state] += 1
        return run

    def _merge_stats(self, batch_stats: dict) -> None:
        if self.stats is None:
            self.stats = batch_stats
            return
        for key, value in batch_stats.items():
            if isinstance(value, (int, float)) and isinstance(
                self.stats.get(key), (int, float)
            ):
                self.stats[key] += value
            else:
                self.stats[key] = value


def fold_campaign(records: Iterable[dict]) -> CampaignFold:
    """Fold a whole campaign stream."""
    fold = CampaignFold()
    for record in records:
        fold.apply(record)
    return fold


def campaign_summary(records: Sequence[dict]) -> dict:
    """Deterministic digest of a campaign stream.

    Wall-time fields are stripped and ordering artifacts removed (runs
    are keyed by label, counters are order-free), so two identical
    seeded campaigns — whatever their worker interleaving — summarize
    byte-identically under ``json.dumps(..., sort_keys=True)``.
    """
    fold = fold_campaign(records)
    return {
        "schema": CAMPAIGN_SCHEMA_VERSION,
        "total": fold.total,
        "event_counts": {
            name: fold.event_counts[name] for name in sorted(fold.event_counts)
        },
        "runs": {label: fold.runs[label].summary() for label in sorted(fold.runs)},
        "stats": fold.stats,
    }
