"""Crash-safe campaign resumption: the journal is the recovery record.

A campaign that dies mid-flight (OOM kill, scheduler SIGTERM, Ctrl-C,
power loss) must be resumable without re-executing completed work and
without *changing the answer*: the resumed journal's
:func:`~repro.obs.campaign.campaign_summary` is byte-identical to an
uninterrupted run's.

* The **campaign journal** (:class:`~repro.obs.campaign.CampaignLog`
  JSONL, flushed per line) records every run's full lifecycle and is
  the only thing resume reads: :func:`load_resume_plan` folds it with
  :class:`~repro.obs.campaign.CampaignFold` — the same transition
  function the live campaign runs — tolerating the truncated final
  line a SIGKILL leaves behind. A :class:`CampaignCheckpoint` is that
  fold's terminal :class:`~repro.obs.campaign.RunState` objects: resume
  decides on ``state``, ``queued["key"]``, ``ending``; replays ``records``.
* The **checkpoint sidecar** (``<log>.ckpt.json``) is a *derived status
  file*: one :func:`sidecar_row` per terminal run the executor's log has
  seen, atomically written once per batch, when the batch ends or
  aborts, for humans and schedulers that want "what is done" without
  parsing the journal. During a batch the journal is the live status.
  Nothing in this package reads the sidecar back. (Deleting the writer
  needs a ``benchmark`` issue first: ``campaign_replay`` passes
  ``checkpoint_to`` and its traced pass wraps
  :meth:`CampaignCheckpoint.save`.)

The executor's write ordering makes every kill window safe::

    per run:    emit run-ending record (journal, flushed)  ->  cache.put
    per batch:  close the books  ->  save sidecar  ->  campaign_end / campaign_abort

A run whose ending record reached the journal replays on resume; one
whose record did not (or whose cache entry is missing) simply
re-executes, and determinism guarantees it re-emits the identical
lifecycle. A batch killed before its books close leaves the journal and
whatever sidecar an earlier batch of the same log wrote; a stale or
foreign sidecar changes nothing.
"""

from __future__ import annotations

import json
import os
import pathlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.obs.campaign import (
    CAMPAIGN_SCHEMA_VERSION,
    CampaignFold,
    RunState,
    read_campaign_with_tail,
)

__all__ = ["CampaignCheckpoint", "ResumePlan", "checkpoint_path", "load_resume_plan"]


def sidecar_row(run: RunState) -> dict:
    """One terminal run's row in the status sidecar."""
    queued = run.queued or {}
    ending = run.ending or {}
    return {
        "label": run.label,
        "index": run.index or 0,
        "state": run.state,
        "attempts": run.attempts,
        "retries": run.retries,
        "cache_key": queued.get("key"),
        "cache_hit": run.state == "cached",
        "cache_miss": bool(queued.get("cache_miss", False)),
        "executed": run.attempts > 0,
        "outcome": ending.get("outcome"),
        "error_type": ending.get("error_type"),
        "error_message": ending.get("error_message"),
    }


class CampaignCheckpoint:
    """The terminal runs of one campaign journal, keyed by run label,
    and the sidecar that lists them."""

    def __init__(self) -> None:
        self.runs: Dict[str, RunState] = {}
        self._fold = CampaignFold()
        self._rows: Dict[str, dict] = {}

    @property
    def total(self) -> int:
        return self._fold.total

    def apply(self, record: dict) -> None:
        """Advance by one journal record. The executor feeds the
        records it emits; :meth:`from_journal` feeds a journal read
        back from disk — one code path, so they cannot disagree."""
        run = self._fold.apply(record)
        if run is None:
            return
        if run.terminal:
            # A terminal run's row changes at most once more (failed ->
            # quarantined): build it here, not on each save.
            self.runs[run.label] = run
            self._rows[run.label] = sidecar_row(run)
        else:  # in flight: resume re-executes it
            self.runs.pop(run.label, None)
            self._rows.pop(run.label, None)

    @classmethod
    def from_journal(cls, records: Iterable[dict]) -> "CampaignCheckpoint":
        checkpoint = cls()
        for record in records:
            checkpoint.apply(record)
        return checkpoint

    def to_dict(self) -> dict:
        return {"schema": CAMPAIGN_SCHEMA_VERSION, "total": self.total, "runs": self._rows}

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
    campaign, all of it folded from the journal: the terminal runs (the
    decision source; each carries its own records — the replay source)
    and whether the journal ended in a torn write."""

    checkpoint: CampaignCheckpoint
    partial_tail: Optional[str] = None

    def run_records(self, label: str) -> List[dict]:
        """One run's full lifecycle, in journal order (replay input)."""
        return self.checkpoint.runs[label].records


def load_resume_plan(log_path) -> ResumePlan:
    """Load a prior campaign for resumption from its journal alone.

    Journal reading tolerates a truncated final line (the mid-write
    crash artifact); the sidecar is never opened.
    """
    records, tail = read_campaign_with_tail(log_path)
    return ResumePlan(CampaignCheckpoint.from_journal(records), partial_tail=tail)
