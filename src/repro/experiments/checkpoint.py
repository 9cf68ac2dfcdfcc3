"""Crash-safe campaign resumption: the journal is the recovery record.

A campaign that dies mid-flight (OOM kill, scheduler SIGTERM, Ctrl-C,
power loss) must be resumable without re-executing completed work and
— just as important — without *changing the answer*: the ROADMAP's
sweep fabric calls for incremental re-runs whose merged
:func:`~repro.obs.campaign.campaign_summary` is byte-identical to an
uninterrupted run.

* The **campaign journal** (:class:`~repro.obs.campaign.CampaignLog`
  JSONL, flushed per line) records every run's full lifecycle and is
  the only thing resume reads: :func:`load_resume_plan` folds it with
  :class:`~repro.obs.campaign.CampaignFold` — the same transition
  function the live campaign runs — tolerating the truncated final
  line a SIGKILL leaves behind. A :class:`CampaignCheckpoint` is that
  fold's terminal runs.
* The **checkpoint sidecar** (``<log>.ckpt.json``) is a *derived status
  file*: the executor's live :class:`CampaignCheckpoint`, atomically
  replaced after every run-ending record, for humans and schedulers
  that want "what is done so far" without parsing the journal. Nothing
  in this package reads it back. (Deleting the writer too is a
  follow-up that needs a ``benchmark`` issue first: ``BENCHMARK.json``'s
  ``campaign_replay`` passes ``checkpoint_to`` and its traced pass
  wraps :meth:`CampaignCheckpoint.save`.)

The executor's write ordering makes every kill window safe::

    emit run-ending record (journal, flushed)  ->  save sidecar  ->  cache.put

A run whose ending record reached the journal replays on resume; one
whose record did not (or whose cache entry is missing) simply
re-executes, and determinism guarantees it re-emits the identical
lifecycle. The sidecar lagging the journal by a record — the state a
kill between the first two steps leaves — changes nothing.
"""

from __future__ import annotations

import json
import os
import pathlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.obs.campaign import (
    CAMPAIGN_SCHEMA_VERSION,
    TERMINAL_STATES,
    CampaignFold,
    read_campaign_with_tail,
)

__all__ = [
    "RunCheckpoint",
    "CampaignCheckpoint",
    "ResumePlan",
    "checkpoint_path",
    "load_resume_plan",
]


@dataclass
class RunCheckpoint:
    """Terminal state of one run: what resume decides on and what the
    sidecar reports. ``state`` is one of
    :data:`~repro.obs.campaign.TERMINAL_STATES`."""

    label: str
    index: int
    state: str
    attempts: int = 1
    retries: int = 0
    cache_key: Optional[str] = None
    cache_hit: bool = False
    cache_miss: bool = False
    executed: bool = False
    outcome: Optional[str] = None
    error_type: Optional[str] = None
    error_message: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.label:
            raise ValueError("label must be non-empty")
        if self.state not in TERMINAL_STATES:
            raise ValueError(
                f"state must be one of {TERMINAL_STATES}, got {self.state!r}"
            )
        if self.index < 0:
            raise ValueError(f"index must be >= 0, got {self.index}")
        if self.attempts < 0 or self.retries < 0:
            raise ValueError("attempts/retries must be >= 0")

    def to_dict(self) -> dict:
        return dict(vars(self))  # flat fields; asdict's deep copy is 10x slower


@dataclass
class CampaignCheckpoint:
    """All terminal run states of one campaign, keyed by run label:
    the terminal runs of a :class:`~repro.obs.campaign.CampaignFold`."""

    total: int = 0
    runs: Dict[str, RunCheckpoint] = field(default_factory=dict)
    fold: CampaignFold = field(default_factory=CampaignFold, repr=False, compare=False)

    def record(self, run: RunCheckpoint) -> None:
        self.runs[run.label] = run

    def apply(self, record: dict) -> None:
        """Advance by one journal record. The executor feeds the
        records it emits; :meth:`from_journal` feeds a journal read
        back from disk — one code path, so they cannot disagree."""
        run = self.fold.apply(record)
        self.total = self.fold.total
        if run is None or not run.terminal:
            return  # in flight: resume re-executes it
        queued = run.queued or {}
        ending = run.ending or {}
        self.record(
            RunCheckpoint(
                label=run.label,
                index=run.index or 0,
                state=run.state,
                attempts=run.attempts,
                retries=run.retries,
                # The key and miss flag ride on the queued record so a
                # checkpoint can be rebuilt from the journal alone.
                cache_key=queued.get("key"),
                cache_hit=run.state == "cached",
                cache_miss=bool(queued.get("cache_miss", False)),
                executed=run.attempts > 0,
                outcome=ending.get("outcome"),
                error_type=ending.get("error_type"),
                error_message=ending.get("error_message"),
            )
        )

    @classmethod
    def from_journal(cls, records: Sequence[dict]) -> "CampaignCheckpoint":
        checkpoint = cls()
        for record in records:
            checkpoint.apply(record)
        return checkpoint

    def to_dict(self) -> dict:
        return {
            "schema": CAMPAIGN_SCHEMA_VERSION,
            "total": self.total,
            "runs": {
                label: self.runs[label].to_dict() for label in sorted(self.runs)
            },
        }

    def save(self, path) -> str:
        """Write the sidecar atomically (tmp file + rename)."""
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        tmp.write_text(json.dumps(self.to_dict(), sort_keys=True) + "\n")
        os.replace(tmp, path)
        return str(path)


def checkpoint_path(log_path) -> str:
    """The sidecar path for a campaign log: ``<log>.ckpt.json``."""
    return f"{log_path}.ckpt.json"


@dataclass
class ResumePlan:
    """Everything ``run_batch(resume_from=...)`` needs from a prior
    campaign, all of it folded from the journal: the terminal-state
    checkpoint (the decision source, whose fold indexes each run's
    records — the replay source) and whether the journal ended in a
    torn write."""

    checkpoint: CampaignCheckpoint
    partial_tail: Optional[str] = None

    def run_records(self, label: str) -> List[dict]:
        """One run's full lifecycle, in journal order (replay input)."""
        return self.checkpoint.fold.runs[label].records


def load_resume_plan(log_path) -> ResumePlan:
    """Load a prior campaign for resumption from its journal alone.

    Journal reading tolerates a truncated final line (the mid-write
    crash artifact); the sidecar is never opened.
    """
    records, tail = read_campaign_with_tail(log_path)
    return ResumePlan(CampaignCheckpoint.from_journal(records), partial_tail=tail)
