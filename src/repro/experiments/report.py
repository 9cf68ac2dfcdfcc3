"""Text rendering of figure data — the rows/series the paper reports.

Benchmarks print these tables so a run of ``pytest benchmarks/``
regenerates every figure as text; EXPERIMENTS.md records them.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.experiments.figures import FigureData
from repro.experiments.runner import step_interpolate
from repro.obs.campaign import CampaignFold, RunState, fold_campaign
from repro.obs.sketch import PERCENTILE_LABELS, QuantileSketch, quantile
from repro.units import to_usec

#: The per-day quantiles of a Figure-10-style summary.
CDF_QUANTILES = (0.5, 0.9, 0.99, 1.0)


def render_series_table(
    data: FigureData,
    curves: Dict[str, Tuple[Sequence[int], Sequence[float]]],
    value_label: str,
    scale: float = 1.0,
    points: int = 12,
    include_references: bool = False,
) -> str:
    """One row per sampled time, one column per variant.

    Rows are anchored to a base time grid (sampled from the first
    non-empty column) and every other column is step-interpolated onto
    that grid — columns with different sample times or lengths line up
    on real timestamps instead of raw row indices.
    """
    columns: List[Tuple[str, Tuple[Sequence[int], Sequence[float]]]] = []
    if include_references and data.optimal is not None:
        columns.append(("optimal", data.optimal))
    columns.extend(sorted(curves.items()))
    if include_references and data.packet_only is not None:
        columns.append(("packet-only", data.packet_only))
    if not columns:
        return "(no series)"
    grid_ns: List[int] = []
    for _name, (times, _values) in columns:
        if len(times) > 0:
            # ``points`` evenly spaced indices, truncated; the last is exact.
            last = len(times) - 1
            if points > 1:
                picks = [int(k * (last / (points - 1))) for k in range(points - 1)] + [last]
            else:
                picks = [0] * points
            grid_ns = [int(times[i]) for i in picks]
            break
    resampled: Dict[str, List[float]] = {}
    for name, (times, values) in columns:
        initial = float(values[0]) if len(values) else float("nan")
        resampled[name] = step_interpolate(times, values, grid_ns, initial=initial)
    names = [name for name, _ in columns]
    header = f"{'time(us)':>10} " + " ".join(f"{n:>12}" for n in names)
    lines = [f"[{data.name}] {value_label}", header]
    for row in range(len(grid_ns)):
        cells = [f"{resampled[name][row] * scale:12.2f}" for name in names]
        lines.append(f"{to_usec(grid_ns[row]):10.1f} " + " ".join(cells))
    return "\n".join(lines)


def render_seq_graph(data: FigureData, points: int = 12) -> str:
    """Sequence-number graph as text (bytes in MB)."""
    return render_series_table(
        data, data.seq_curves, "sequence progress (MB)", scale=1e-6,
        points=points, include_references=True,
    )


def render_voq_graph(data: FigureData, points: int = 12) -> str:
    """VOQ occupancy over time. The counts are divided by 6 so the axis
    matches the paper's jumbo-frame units."""
    label = "VOQ length (jumbo-frame equivalents)"
    return render_series_table(data, data.voq_curves, label, scale=1.0 / 6.0, points=points)


def render_throughput_summary(data: FigureData, baseline: str = "cubic") -> str:
    lines = [f"[{data.name}] steady-state throughput"]
    base = data.throughputs_gbps.get(baseline)
    optimal_rate = None
    if data.optimal is not None:
        times, values = data.optimal
        optimal_rate = values[-1] * 8 / (times[-1] / 1e9) / 1e9 if times[-1] > 0 else None
    for variant in sorted(data.throughputs_gbps, key=data.throughputs_gbps.get, reverse=True):
        thr = data.throughputs_gbps[variant]
        rel = f" ({(thr / base - 1) * +100:+.0f}% vs {baseline})" if base else ""
        lines.append(f"  {variant:<12} {thr:6.2f} Gbps{rel}")
    if optimal_rate:
        lines.append(f"  {'optimal':<12} {optimal_rate:6.2f} Gbps (analytic)")
    return "\n".join(lines)


def render_cdf_summary(name: str, per_day: Dict[str, Sequence[int]]) -> str:
    """Figure-10-style distribution summary of per-day counts."""
    qs = CDF_QUANTILES
    header = f"{'variant':<10} " + " ".join(f"{'p' + str(int(q * 100)):>5}" for q in qs) + "  zero-days"
    lines = [f"[{name}] per-optical-day distribution", header]
    for variant, samples in sorted(per_day.items()):
        cells = " ".join(f"{quantile(samples, q):5.0f}" for q in qs)
        zero = sum(1 for s in samples if s == 0) / len(samples) if len(samples) else 0.0
        lines.append(f"{variant:<10} {cells}  {zero * 100:8.0f}%")
    return "\n".join(lines)


def render_fig10(data: FigureData) -> str:
    """Figure 10: reordering events (a) and retransmission marks (b)
    per optical day, and spurious retransmissions per GB delivered."""
    results = data.results
    return "\n\n".join([
        render_cdf_summary("fig10a reordering events/day",
                           {v: r.reordering_per_day for v, r in results.items()}),
        render_cdf_summary("fig10b retransmission marks/day",
                           {v: r.retx_marks_per_day for v, r in results.items()}),
        "spurious retransmissions per GB delivered:\n" + "\n".join(
            f"  {v:<8} {r.spurious_retransmissions / max(r.aggregate_delivered / 1e9, 1e-9):8.1f}"
            for v, r in sorted(results.items())
        ),
    ])


def _write_csv(directory, name: str, header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Write ``header`` and ``rows`` to ``directory/name`` (the directory
    made if need be); returns the path written. Every CSV export goes
    through here."""
    import csv
    import pathlib

    path = pathlib.Path(directory) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)
    return str(path)


def figure_to_csv(data: FigureData, directory) -> List[str]:
    """Write a figure's series as CSV files (one per series family);
    returns the paths written. For plotting outside this package."""
    written: List[str] = []

    def dump(name: str, columns: Dict[str, Tuple[Sequence[int], Sequence[float]]]) -> None:
        if not columns:
            return
        names = sorted(columns)
        length = max(len(columns[n][0]) for n in names)
        rows = []
        for i in range(length):
            row: list = []
            for n in names:
                times, values = columns[n]
                row.extend([int(times[i]), float(values[i])] if i < len(times) else ["", ""])
            rows.append(row)
        header = [cell for n in names for cell in (f"{n}_time_ns", f"{n}_value")]
        written.append(_write_csv(directory, f"{data.name}_{name}.csv", header, rows))

    refs = {}
    if data.optimal is not None:
        refs["optimal"] = data.optimal
    if data.packet_only is not None:
        refs["packet_only"] = data.packet_only
    dump("seq", {**data.seq_curves, **refs})
    dump("voq", data.voq_curves)
    if data.throughputs_gbps:
        written.append(_write_csv(directory, f"{data.name}_throughput.csv", ["variant", "gbps"],
                                  sorted(data.throughputs_gbps.items())))
    return written


def sweep_to_csv(result, directory) -> List[str]:
    """Write a :class:`SweepResult` as one long-format CSV (setting,
    variant, throughput, retransmissions, rtos, status); returns the
    paths written. Failed points carry an empty throughput cell and
    status ``failed`` — never a fake zero."""
    return [_write_csv(
        directory, f"{result.name}_points.csv",
        ["setting", "variant", "throughput_gbps", "retransmissions", "rtos", "status"],
        ([point.label, point.variant,
          f"{point.throughput_gbps:.6f}" if point.ok else "",
          point.retransmissions, point.rtos, "ok" if point.ok else "failed"]
         for point in result.points),
    )]


def load_sweep_to_csv(result, directory) -> List[str]:
    """Write a :class:`LoadSweepResult` as one long-format CSV: one row
    per (load, variant) with counts, loads, and the slowdown/FCT
    percentiles. Failed cells carry empty measurement columns and
    status ``failed`` — never fake zeros."""
    labels = [label for label, _q in PERCENTILE_LABELS]
    header = (
        ["load", "variant", "offered_load", "achieved_load", "started",
         "completed", "truncated", "completion_rate"]
        + [f"slowdown_{label}" for label in labels]
        + [f"fct_us_{label}" for label in labels]
        + ["status"]
    )

    def fmt(value) -> str:
        return "" if value is None else f"{value:.6g}"

    def row(point) -> list:
        if not point.ok:
            return [f"{point.load:.4f}", point.variant] + [""] * (len(header) - 3) + ["failed"]
        return (
            [f"{point.load:.4f}", point.variant,
             f"{point.load:.6g}", fmt(point.achieved_load),
             point.started, point.completed, point.truncated,
             f"{point.completion_rate:.6g}"]
            + [fmt(point.percentile("slowdown", label)) for label in labels]
            + [fmt(point.percentile("fct_us", label)) for label in labels]
            + ["ok"]
        )

    return [_write_csv(directory, f"{result.name}_points.csv", header,
                       (row(point) for point in result.points))]


def fct_cdf_to_csv(result, directory, sketch: str = "fct_us") -> List[str]:
    """Write a :class:`LoadSweepResult`'s FCT CDFs as one long-format
    CSV: ``(load, variant, value, cum_probability)`` rows decoded from
    each cell's serialized DDSketch state via
    :meth:`QuantileSketch.cdf_points` — one row per occupied bucket,
    within relative error ``alpha`` of the exact empirical CDF at
    constant memory. Failed cells and cells without the family are
    skipped (their absence marks them); returns the paths written."""
    return [_write_csv(
        directory, f"{result.name}_{sketch}_cdf.csv",
        ["load", "variant", "value", "cum_probability"],
        ([f"{point.load:.4f}", point.variant, f"{value:.6g}", f"{prob:.6g}"]
         for point in result.points
         if point.ok and point.sketches.get(sketch)
         for value, prob in QuantileSketch.from_dict(point.sketches[sketch]).cdf_points()),
    )]


def headline_claims(data: FigureData) -> Dict[str, float]:
    """The abstract's numbers from a Figure-7 run: TDTCP vs CUBIC/DCTCP
    (paper: +24%), vs MPTCP (paper: +41%), vs reTCP-dyn (paper: parity)."""
    thr = data.throughputs_gbps

    def gain(a: str, b: str) -> Optional[float]:
        if a in thr and b in thr and thr[b] > 0:
            return (thr[a] / thr[b] - 1.0) * 100.0
        return None

    claims = {}
    for other in ("cubic", "dctcp", "mptcp", "retcp", "retcpdyn"):
        value = gain("tdtcp", other)
        if value is not None:
            claims[f"tdtcp_vs_{other}_pct"] = value
    return claims


# ----------------------------------------------------------------------
# Campaign dashboard (repro.obs.campaign JSONL -> markdown)
# ----------------------------------------------------------------------

def _merge_sketches(fold: CampaignFold) -> Dict[str, Dict[str, QuantileSketch]]:
    """sketch name -> variant -> exact merge of every finished run's
    sketch (bucket counts are integers, so per-variant percentiles are
    independent of run completion order)."""
    merged: Dict[str, Dict[str, QuantileSketch]] = {}
    for run in fold.runs.values():
        variant = str((run.queued or {}).get("variant", "?"))
        # Only a run that finished carries sketches on its ending record.
        for name, state in ((run.ending or {}).get("sketches") or {}).items():
            per_variant = merged.setdefault(name, {})
            sketch = QuantileSketch.from_dict(state)
            if variant in per_variant:
                per_variant[variant].merge(sketch)
            else:
                per_variant[variant] = sketch
    return merged


def _campaign_timeline(fold: CampaignFold) -> List[RunState]:
    """The fold's runs in input order (by queue index)."""
    return sorted(
        fold.runs.values(), key=lambda r: (r.index is None, r.index, r.label)
    )


def _fmt(value, scale: float = 1.0) -> str:
    if value is None:
        return "-"
    return f"{value * scale:.4g}"


#: Meta record -> (headline word, the rest of the sentence). Resume and
#: abort records are excluded from the deterministic summary but
#: headline news for a human reader.
_BANNERS = {
    "campaign_resume": ("resumed", ": {replayed} runs replayed from "
                        "the prior journal, {remaining} executed fresh"),
    "campaign_abort": ("aborted", " ({reason}) at {done}/{total} runs "
                       "— resumable via --resume"),
}


def render_campaign(records: Sequence[dict]) -> str:
    """Markdown dashboard of a campaign JSONL stream: headline counts,
    per-variant sketch percentiles, the run timeline, and the
    failure/retry table — all read off the campaign fold."""
    fold = fold_campaign(records)
    lines = ["# Campaign report", ""]
    lines.append(
        f"**{fold.total} runs** — "
        + ", ".join(
            f"{count} {state}" for state, count in sorted(fold.states.items()) if count
        )
    )
    if fold.stats:
        lines.append((
            "executed {executed}, cache hits {cache_hits}, cache misses "
            "{cache_misses}, retries {retries}, failures {failures}"
        ).format_map(defaultdict(int, fold.stats)))
    lines.append(f"heartbeats observed: {fold.event_counts.get('heartbeat', 0)}")
    for record in fold.meta:
        head, rest = _BANNERS[record["event"]]
        lines.append(f"**{head}**" + rest.format_map(defaultdict(lambda: "?", record)))
    timeline = _campaign_timeline(fold)
    replayed_rows = sum(1 for run in timeline if run.replayed)
    if replayed_rows:
        lines.append(f"replayed run records: {replayed_rows}")
    lines.append("")

    merged = _merge_sketches(fold)
    if merged:
        lines.append("## Percentiles (sketches merged per variant)")
        lines.append("")
        header = "| sketch | variant | count | " + " | ".join(
            label for label, _q in PERCENTILE_LABELS
        ) + " |"
        lines.append(header)
        lines.append("|" + "---|" * (3 + len(PERCENTILE_LABELS)))
        for name in sorted(merged):
            for variant, sketch in sorted(merged[name].items()):
                cells = " | ".join(_fmt(sketch.quantile(q)) for _label, q in PERCENTILE_LABELS)
                lines.append(f"| {name} | {variant} | {sketch.count} | {cells} |")
        lines.append("")

    if timeline:
        lines.append("## Run timeline")
        lines.append("")
        lines.append(
            "| # | run | variant | seed | state | attempts | heartbeats "
            "| started (s) | ended (s) | duration (s) |"
        )
        lines.append("|" + "---|" * 10)
        for run in timeline:
            queued = run.queued or {}
            duration = None
            if run.started_ms is not None and run.ended_ms is not None:
                duration = (run.ended_ms - run.started_ms) / 1000.0
            lines.append(
                f"| {'-' if run.index is None else run.index} | {run.label} "
                f"| {queued.get('variant', '?')} | {queued.get('seed')} "
                f"| {run.state} | {run.attempts} | {run.heartbeats} "
                f"| {_fmt(run.started_ms, 1e-3)} | {_fmt(run.ended_ms, 1e-3)} "
                f"| {_fmt(duration)} |"
            )
        lines.append("")

    lines.append("## Failures & retries")
    lines.append("")
    troubled = [run for run in timeline
                if run.retries or run.state in ("failed", "quarantined")]
    if troubled:
        lines.append("| run | state | retries | error |")
        lines.append("|" + "---|" * 4)
        for run in troubled:
            error = "-"
            if run.state in ("failed", "quarantined") and run.ending is not None:
                error = "{error_type}: {error_message}".format_map(
                    defaultdict(lambda: None, run.ending)
                )
            lines.append(f"| {run.label} | {run.state} | {run.retries} | {error} |")
    else:
        lines.append("none — every run completed on its first attempt.")
    lines.append("")
    return "\n".join(lines)


def render_headline_claims(data: FigureData) -> str:
    paper = {
        "tdtcp_vs_cubic_pct": 24.0,
        "tdtcp_vs_dctcp_pct": 24.0,
        "tdtcp_vs_mptcp_pct": 41.0,
        "tdtcp_vs_retcpdyn_pct": 0.0,
    }
    claims = headline_claims(data)
    lines = [f"[{data.name}] headline claims (paper vs measured)"]
    for key, measured in sorted(claims.items()):
        expect = paper.get(key)
        expect_s = f"{expect:+6.1f}%" if expect is not None else "   n/a "
        lines.append(f"  {key:<24} paper {expect_s}   measured {measured:+6.1f}%")
    return "\n".join(lines)
