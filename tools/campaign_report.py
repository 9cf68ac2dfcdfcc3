#!/usr/bin/env python3
"""Render a campaign JSONL event log into a markdown dashboard.

The log comes from ``python -m repro.experiments.cli <target>
--campaign-log out/campaign.jsonl``. This tool validates it against the
event schema and renders the dashboard CI uploads as an artifact:

    python tools/campaign_report.py out/campaign.jsonl \\
        --markdown out/campaign.md \\
        --summary-json out/campaign_summary.json --validate

``--validate`` exits 1 when any record fails the schema (missing
fields, wrong types, non-monotonic seq). ``--summary-json`` writes the
deterministic digest (wall-time fields stripped) — byte-identical
across identical seeded campaigns, so it doubles as a regression
fingerprint.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.experiments.report import render_campaign  # noqa: E402
from repro.obs.campaign import (  # noqa: E402
    campaign_summary,
    read_campaign_with_tail,
    validate_records,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Validate and render a repro campaign JSONL log."
    )
    parser.add_argument("log", help="campaign JSONL file (from --campaign-log)")
    parser.add_argument("--markdown", metavar="FILE", default=None,
                        help="write the markdown dashboard here")
    parser.add_argument("--summary-json", metavar="FILE", default=None,
                        help="write the deterministic campaign summary here")
    parser.add_argument("--validate", action="store_true",
                        help="exit 1 if any record fails the event schema")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the markdown dump on stdout")
    args = parser.parse_args(argv)

    try:
        records, tail = read_campaign_with_tail(args.log)
    except (OSError, ValueError) as error:
        print(f"cannot read {args.log}: {error}", file=sys.stderr)
        return 1
    if tail is not None:
        # A SIGKILL mid-write leaves exactly one torn final line; the
        # journal is still consumable (and resumable) without it.
        print(
            f"warning: tolerated truncated final record "
            f"({len(tail)} bytes): {tail[:60]!r}…",
            file=sys.stderr,
        )

    errors = validate_records(records)
    if errors:
        for error in errors:
            print(f"schema: {error}", file=sys.stderr)
        print(f"{len(errors)} schema violations in {len(records)} records",
              file=sys.stderr)
        if args.validate:
            return 1
    elif args.validate:
        print(f"{len(records)} records schema-valid", file=sys.stderr)

    markdown = render_campaign(records)
    if args.markdown:
        pathlib.Path(args.markdown).write_text(markdown)
    if args.summary_json:
        summary = campaign_summary(records)
        pathlib.Path(args.summary_json).write_text(
            json.dumps(summary, sort_keys=True, indent=2) + "\n"
        )
    if not args.quiet:
        print(markdown)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
