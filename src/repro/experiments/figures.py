"""Per-figure experiment definitions (§2.2 and §5).

Every paper figure is the same experiment — a variant line-up on one
RDCN setting — so the figures are :class:`Figure` rows of
:data:`FIGURES`. A row's :meth:`Figure.plan` builds the variants'
labelled configs before anything runs; calling the row runs them and
returns a :class:`FigureData` with each run's folded week (sequence
progress, VOQ occupancy) tiled over the plotted weeks, plus the
analytic reference lines. Run options are :class:`ExperimentConfig` fields,
passed by keyword (see :class:`Figure`).

Scale note: the paper averages thousands of optical weeks of hardware
time; these definitions default to tens of simulated weeks (``weeks``
and ``n_flows`` scale up freely).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.experiments.config import ExperimentConfig
from repro.experiments.executor import ExperimentExecutor, Plan
from repro.experiments.runner import ExperimentResult, RunFailure, week_grid
from repro.rdcn.config import RDCNConfig
from repro.rdcn.schedule import TDNSchedule
from repro.units import gbps, usec

# The line-up of Figure 7/8/9 in the paper's legend order.
FULL_VARIANTS = ("retcpdyn", "tdtcp", "retcp", "dctcp", "cubic", "mptcp")
MOTIVATION_VARIANTS = ("cubic", "mptcp")
REORDERING_VARIANTS = ("cubic", "mptcp", "tdtcp")

#: Sample points of the analytic reference lines.
OPTIMAL_POINTS_PER_WEEK = 400
PACKET_ONLY_POINTS = 1200


@dataclass
class FigureData:
    """Processed series for one figure."""

    name: str
    rdcn: RDCNConfig
    weeks_plotted: int
    # variant -> (times_ns, values); sequence curves in bytes.
    seq_curves: Dict[str, Tuple[List[int], List[float]]] = field(default_factory=dict)
    voq_curves: Dict[str, Tuple[List[int], List[float]]] = field(default_factory=dict)
    optimal: Optional[Tuple[List[int], List[float]]] = None
    packet_only: Optional[Tuple[List[int], List[float]]] = None
    throughputs_gbps: Dict[str, float] = field(default_factory=dict)
    results: Dict[str, ExperimentResult] = field(default_factory=dict)
    # Partial-figure degradation: variants whose runs crashed end up
    # here (with their structured failures) instead of aborting the
    # figure; the surviving variants still render.
    failures: Dict[str, RunFailure] = field(default_factory=dict)

def tile_weeks(
    grid_ns: Sequence[int],
    mean_curve: Sequence[float],
    mean_week_progress: float,
    week_ns: int,
    n_weeks: int = 3,
) -> Tuple[List[int], List[float]]:
    """Tile an averaged one-week curve over ``n_weeks`` for plotting,
    each week offset by the mean weekly progress."""
    weeks = range(n_weeks)
    times = [t + week * week_ns for week in weeks for t in grid_ns]
    values = [v + week * mean_week_progress for week in weeks for v in mean_curve]
    return times, values


def optimal_curve(
    schedule: TDNSchedule,
    rates_bps: Sequence[float],
    n_weeks: int = 3,
) -> Tuple[List[int], List[float]]:
    """The paper's 'optimal' line: an idealized TCP that fully uses the
    active TDN's bottleneck bandwidth, and nothing during nights
    (:data:`OPTIMAL_POINTS_PER_WEEK` points a week)."""
    pieces = schedule.rate_profile(list(rates_bps))
    n_points = n_weeks * OPTIMAL_POINTS_PER_WEEK
    step = n_weeks * schedule.week_ns / n_points
    times = [int(i * step) for i in range(n_points)]
    # Cumulative bytes at each phase boundary of one week.
    week_bytes = 0.0
    boundaries = []  # (phase_start, cumulative_bytes_at_start, rate)
    for start, end, rate in pieces:
        boundaries.append((start, week_bytes, rate))
        week_bytes += rate / 8.0 * (end - start) / 1e9
    starts = [b[0] for b in boundaries]
    out = []
    for t in times:
        week, phase = divmod(t, schedule.week_ns)
        start, cum, rate = boundaries[bisect_right(starts, phase) - 1]
        out.append(week * week_bytes + cum + rate / 8.0 * (phase - start) / 1e9)
    return times, out


def constant_rate_curve(rate_bps: float, duration_ns: int) -> Tuple[List[int], List[float]]:
    """The 'packet only' line: a constant-slope reference that never
    experiences reconfiguration blackouts (:data:`PACKET_ONLY_POINTS`
    points)."""
    grid = [i * (duration_ns / PACKET_ONLY_POINTS) for i in range(PACKET_ONLY_POINTS)]
    return [int(t) for t in grid], [rate_bps / 8.0 * t / 1e9 for t in grid]


# ----------------------------------------------------------------------
# The paper's RDCN settings
# ----------------------------------------------------------------------
def bw_latency_rdcn() -> RDCNConfig:
    """§5.1 default: 10/100 Gbps AND ~100/40 us RTTs (Figures 2, 7, 10,
    11, 13)."""
    return RDCNConfig()


def bw_only_rdcn() -> RDCNConfig:
    """Figure 8: bandwidth difference only — both TDNs at the *low*
    (optical) base latency.

    With short, equal RTTs a single-path sender's queue-inflated window
    already translates into several-fold circuit throughput, which is
    how the paper's CUBIC/DCTCP get close to TDTCP in this setting.
    """
    base = RDCNConfig()
    return replace(base, packet_one_way_ns=base.optical_one_way_ns)


def latency_only_rdcn(rate_gbps: float = 100.0) -> RDCNConfig:
    """Figures 9/14: both TDNs at ``rate_gbps``; RTTs ~20 us vs ~10 us.

    One-way fabric delays are set so end-to-end base RTTs (including
    host links and serialization) land near the paper's 20/10 us.
    """
    base = RDCNConfig()
    return replace(
        base,
        packet_rate_bps=gbps(rate_gbps),
        optical_rate_bps=gbps(rate_gbps),
        host_link_rate_bps=gbps(rate_gbps / base.n_hosts_per_rack),
        packet_one_way_ns=usec(7),
        optical_one_way_ns=usec(2),
    )


# ----------------------------------------------------------------------
# Figures: name -> (RDCN setting, variants, run defaults)
# ----------------------------------------------------------------------
class Figure(NamedTuple):
    """One figure: a variant line-up on one RDCN setting, and the
    :class:`ExperimentConfig` fields it sets over the figure-scale
    defaults of 40 weeks, 12 of them warm-up, and 8 flows.

    Calling it runs the figure. ``run`` is any config field (``weeks``,
    ``seed``, ``fidelity``, ``audit``, ``fault_plan``, ...); a name that
    is not a field raises ``TypeError``. There is no second list of run
    options: what a figure run can be told is what the config can hold.

    The variant runs are independent, so they execute as one
    :class:`ExperimentExecutor` batch — pass ``executor`` to fan them
    out across processes and reuse cached results; assembly is in
    variant order regardless of which worker finishes first, so a
    parallel figure is value-identical to a sequential one. A crashed
    variant does not abort the figure: it lands in
    ``FigureData.failures`` while the others render.

    When ``obs`` is set, each variant's run records telemetry under the
    label ``{figure}_{variant}`` (artifact paths end up on the per-
    variant :class:`ExperimentResult`).

    ``rdcn_override`` (an ``RDCNConfig -> RDCNConfig`` transform) is
    applied to the figure's setting before running — the CLI's
    ``--buffer-policy``/``--buffer-total``/``--buffer-alpha`` flags ride
    in this way without each figure knowing about them."""

    name: str
    rdcn: RDCNConfig
    variants: Tuple[str, ...]
    defaults: Dict[str, Any] = {}

    def plan(
        self,
        weeks_plotted: int = 3,
        rdcn_override: Optional[Callable[[RDCNConfig], RDCNConfig]] = None,
        **run,
    ) -> Plan:
        """The figure's labelled configs, built before anything runs."""
        rdcn = self.rdcn if rdcn_override is None else rdcn_override(self.rdcn)
        run = {"weeks": 40, "warmup_weeks": 12, "n_flows": 8, **self.defaults, **run}
        obs = run.pop("obs", None)
        configs = [
            ExperimentConfig(
                variant=variant,
                rdcn=rdcn,
                obs=obs.for_run(f"{self.name}_{variant}") if obs is not None else None,
                **run,
            )
            for variant in self.variants
        ]
        labels = [f"{self.name}/{variant}" for variant in self.variants]
        return Plan(configs, labels, labels, partial(self._assemble, rdcn, weeks_plotted))

    def _assemble(
        self, rdcn: RDCNConfig, weeks_plotted: int, results: List[ExperimentResult]
    ) -> FigureData:
        data = FigureData(name=self.name, rdcn=rdcn, weeks_plotted=weeks_plotted)
        for variant, result in zip(self.variants, results):
            if result.failure is not None:
                data.failures[variant] = result.failure
                continue
            week_ns = result.config.rdcn.week_ns
            grid = week_grid(week_ns)
            data.results[variant] = result
            data.throughputs_gbps[variant] = result.steady_state_throughput_gbps()
            if result.seq_week_curve is not None:
                data.seq_curves[variant] = tile_weeks(
                    grid, result.seq_week_curve, result.seq_week_progress, week_ns, weeks_plotted
                )
            if result.voq_week_curve is not None:
                data.voq_curves[variant] = tile_weeks(
                    grid, result.voq_week_curve, 0.0, week_ns, weeks_plotted
                )
        # The analytic reference lines.
        schedule = TDNSchedule.uniform(rdcn.schedule_pattern, rdcn.day_ns, rdcn.night_ns)
        rates = [rdcn.tdn_rate_bps(t) for t in range(rdcn.n_tdns)]
        data.optimal = optimal_curve(schedule, rates, n_weeks=weeks_plotted)
        data.packet_only = constant_rate_curve(
            rdcn.packet_rate_bps, weeks_plotted * schedule.week_ns
        )
        return data

    def __call__(self, executor: Optional[ExperimentExecutor] = None, **kwargs) -> FigureData:
        return self.plan(**kwargs).run(executor)


FIGURES: Dict[str, Figure] = {
    # Motivation sequence graph (CUBIC, MPTCP vs optimal and
    # packet-only) over three optical weeks.
    "fig2": Figure("fig2", bw_latency_rdcn(), MOTIVATION_VARIANTS),
    # All variants under bandwidth AND latency differences:
    # (a) is ``seq_curves``; (b) is ``voq_curves``.
    "fig7": Figure("fig7", bw_latency_rdcn(), FULL_VARIANTS),
    # Bandwidth difference only.
    "fig8": Figure("fig8", bw_only_rdcn(), FULL_VARIANTS),
    # Latency difference only at 100 Gbps.
    "fig9": Figure("fig9", latency_only_rdcn(100.0), FULL_VARIANTS),
    # Reordering events and retransmitted packets per optical day
    # (``reordering_per_day`` / ``retx_marks_per_day`` on each result);
    # per-day distributions want more days than a throughput average.
    "fig10": Figure("fig10", bw_latency_rdcn(), REORDERING_VARIANTS, {"weeks": 60}),
    # TDTCP with and without the §5.4 notification optimizations.
    "fig11": Figure("fig11", bw_latency_rdcn(), ("tdtcp", "tdtcp-unopt")),
    # Appendix A.3: VOQ occupancy of CUBIC and MPTCP in the Figure-2
    # configuration. Figures 13 and 14 plot no sequence graph.
    "fig13": Figure("fig13", bw_latency_rdcn(), MOTIVATION_VARIANTS, {"collect_sequence": False}),
    # Appendix A.4: VOQ occupancy, latency-only RDCN at a fixed rate
    # (the paper shows 10 and 100 Gbps panels).
    "fig14-10g": Figure("fig14-10g", latency_only_rdcn(10.0), FULL_VARIANTS,
                        {"collect_sequence": False}),
    "fig14-100g": Figure("fig14-100g", latency_only_rdcn(100.0), FULL_VARIANTS,
                         {"collect_sequence": False}),
}

fig2 = FIGURES["fig2"]
fig7 = FIGURES["fig7"]
fig8 = FIGURES["fig8"]
fig9 = FIGURES["fig9"]
fig10 = FIGURES["fig10"]
fig11 = FIGURES["fig11"]
fig13 = FIGURES["fig13"]
