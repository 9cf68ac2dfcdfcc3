"""Per-figure experiment definitions (§2.2 and §5).

Each ``figN`` function runs the variants that appear in the paper's
figure on the matching RDCN configuration and returns a
:class:`FigureData` with the processed series (folded/tiled sequence
curves, VOQ occupancy curves, CDFs) plus the analytic reference lines.

Scale note: the paper averages thousands of optical weeks of hardware
time; these definitions default to tens of simulated weeks (``weeks``
and ``n_flows`` scale up freely).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.experiments.config import ExperimentConfig
from repro.experiments.executor import ExperimentExecutor
from repro.experiments.runner import ExperimentResult, RunFailure
from repro.obs.telemetry import ObsConfig
from repro.metrics.cdf import empirical_cdf
from repro.metrics.seqgraph import (
    constant_rate_curve,
    fold_series_by_week,
    optimal_curve,
    tile_weeks,
)
from repro.rdcn.config import RDCNConfig
from repro.rdcn.schedule import TDNSchedule
from repro.units import gbps, usec

# The line-up of Figure 7/8/9 in the paper's legend order.
FULL_VARIANTS = ("retcpdyn", "tdtcp", "retcp", "dctcp", "cubic", "mptcp")
MOTIVATION_VARIANTS = ("cubic", "mptcp")
REORDERING_VARIANTS = ("cubic", "mptcp", "tdtcp")
# Buffer-economics panels: the variants whose buffer appetite differs
# most — deep-buffer loss-based, shallow-buffer ECN, and TDN-aware.
BUFFER_VARIANTS = ("cubic", "dctcp", "tdtcp")


@dataclass
class FigureData:
    """Processed series for one figure."""

    name: str
    rdcn: RDCNConfig
    weeks_plotted: int
    # variant -> (times_ns, values); sequence curves in bytes.
    seq_curves: Dict[str, Tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    voq_curves: Dict[str, Tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    optimal: Optional[Tuple[np.ndarray, np.ndarray]] = None
    packet_only: Optional[Tuple[np.ndarray, np.ndarray]] = None
    throughputs_gbps: Dict[str, float] = field(default_factory=dict)
    # variant -> CDF pairs (values, probabilities) for Figure 10.
    reordering_cdfs: Dict[str, Tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    retx_cdfs: Dict[str, Tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    results: Dict[str, ExperimentResult] = field(default_factory=dict)
    # Partial-figure degradation: variants whose runs crashed end up
    # here (with their structured failures) instead of aborting the
    # figure; the surviving variants still render.
    failures: Dict[str, RunFailure] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures


def _schedule_of(rdcn: RDCNConfig) -> TDNSchedule:
    return TDNSchedule.uniform(rdcn.schedule_pattern, rdcn.day_ns, rdcn.night_ns)


def _process_run(
    data: FigureData,
    variant: str,
    result: ExperimentResult,
    weeks_plotted: int,
) -> None:
    cfg = result.config
    week_ns = cfg.rdcn.week_ns
    data.results[variant] = result
    data.throughputs_gbps[variant] = result.steady_state_throughput_gbps()
    if result.seq_samples:
        grid, curve, progress = fold_series_by_week(
            result.seq_samples, week_ns, cfg.weeks, cfg.warmup_weeks
        )
        data.seq_curves[variant] = tile_weeks(grid, curve, progress, week_ns, weeks_plotted)
    if result.voq_samples:
        grid, curve, _ = fold_series_by_week(
            result.voq_samples, week_ns, cfg.weeks, cfg.warmup_weeks, cumulative=False
        )
        data.voq_curves[variant] = tile_weeks(grid, curve, 0.0, week_ns, weeks_plotted)


def _reference_curves(data: FigureData, rdcn: RDCNConfig, weeks_plotted: int) -> None:
    schedule = _schedule_of(rdcn)
    rates = [rdcn.tdn_rate_bps(t) for t in range(rdcn.n_tdns)]
    data.optimal = optimal_curve(schedule, rates, n_weeks=weeks_plotted)
    data.packet_only = constant_rate_curve(
        rdcn.packet_rate_bps, weeks_plotted * schedule.week_ns
    )


def run_figure(
    name: str,
    rdcn: RDCNConfig,
    variants: Sequence[str],
    weeks: int = 40,
    warmup_weeks: int = 12,
    n_flows: int = 8,
    weeks_plotted: int = 3,
    seed: int = 1,
    obs: Optional[ObsConfig] = None,
    executor: Optional[ExperimentExecutor] = None,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    use_cache: bool = True,
    retries: int = 1,
    rdcn_override: Optional[Callable[[RDCNConfig], RDCNConfig]] = None,
    fidelity: str = "packet",
) -> FigureData:
    """Generic driver: run every variant on one RDCN configuration.

    The variant runs are independent, so they execute as one
    :class:`ExperimentExecutor` batch — pass ``executor`` (or
    ``jobs``/``cache_dir``) to fan them out across processes and reuse
    cached results; assembly is in variant order regardless of which
    worker finishes first, so a parallel figure is value-identical to a
    sequential one. A crashed variant no longer aborts the figure: it
    lands in ``FigureData.failures`` while the others render.

    When ``obs`` is set, each variant's run records telemetry under the
    label ``{figure}_{variant}`` (artifact paths end up on the per-
    variant :class:`ExperimentResult`).

    ``rdcn_override`` (an ``RDCNConfig -> RDCNConfig`` transform) is
    applied to the figure's canned setting before running — the CLI's
    ``--buffer-policy``/``--buffer-total``/``--buffer-alpha`` flags ride
    in this way without each figure knowing about them.

    ``fidelity="tiered"`` runs every variant through the fluid fast
    path (``repro.sim.fastpath``); variants or settings the fluid model
    cannot represent fall back to packet fidelity per-run with a logged
    reason (the decision lands on each result's ``fidelity_report``)."""
    if rdcn_override is not None:
        rdcn = rdcn_override(rdcn)
    data = FigureData(name=name, rdcn=rdcn, weeks_plotted=weeks_plotted)
    configs = [
        ExperimentConfig(
            variant=variant,
            rdcn=rdcn,
            n_flows=n_flows,
            weeks=weeks,
            warmup_weeks=warmup_weeks,
            seed=seed,
            fidelity=fidelity,
            obs=obs.for_run(f"{name}_{variant}") if obs is not None else None,
        )
        for variant in variants
    ]
    if executor is None:
        executor = ExperimentExecutor(
            jobs=jobs, cache_dir=cache_dir, use_cache=use_cache, retries=retries
        )
    results = executor.run_batch(configs, labels=[f"{name}/{v}" for v in variants])
    for variant, result in zip(variants, results):
        if result.failure is not None:
            data.failures[variant] = result.failure
            continue
        _process_run(data, variant, result, weeks_plotted)
    _reference_curves(data, rdcn, weeks_plotted)
    return data


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
# Figures
# ----------------------------------------------------------------------
def fig2(
    weeks: int = 40, warmup_weeks: int = 12, n_flows: int = 8, seed: int = 1,
    obs: Optional[ObsConfig] = None,
    executor: Optional[ExperimentExecutor] = None,
    rdcn_override: Optional[Callable[[RDCNConfig], RDCNConfig]] = None,
    fidelity: str = "packet",
) -> FigureData:
    """Figure 2: motivation sequence graph (CUBIC, MPTCP vs optimal and
    packet-only) over three optical weeks."""
    return run_figure(
        "fig2", bw_latency_rdcn(), MOTIVATION_VARIANTS, weeks, warmup_weeks, n_flows,
        seed=seed, obs=obs, executor=executor, rdcn_override=rdcn_override,
        fidelity=fidelity,
    )


def fig7(
    weeks: int = 40, warmup_weeks: int = 12, n_flows: int = 8, seed: int = 1,
    obs: Optional[ObsConfig] = None,
    executor: Optional[ExperimentExecutor] = None,
    rdcn_override: Optional[Callable[[RDCNConfig], RDCNConfig]] = None,
    fidelity: str = "packet",
) -> FigureData:
    """Figure 7: all variants under bandwidth AND latency differences.

    (a) is ``seq_curves``; (b) is ``voq_curves``.
    """
    return run_figure(
        "fig7", bw_latency_rdcn(), FULL_VARIANTS, weeks, warmup_weeks, n_flows,
        seed=seed, obs=obs, executor=executor, rdcn_override=rdcn_override,
        fidelity=fidelity,
    )


def fig8(
    weeks: int = 40, warmup_weeks: int = 12, n_flows: int = 8, seed: int = 1,
    obs: Optional[ObsConfig] = None,
    executor: Optional[ExperimentExecutor] = None,
    rdcn_override: Optional[Callable[[RDCNConfig], RDCNConfig]] = None,
    fidelity: str = "packet",
) -> FigureData:
    """Figure 8: bandwidth difference only."""
    return run_figure(
        "fig8", bw_only_rdcn(), FULL_VARIANTS, weeks, warmup_weeks, n_flows,
        seed=seed, obs=obs, executor=executor, rdcn_override=rdcn_override,
        fidelity=fidelity,
    )


def fig9(
    weeks: int = 40, warmup_weeks: int = 12, n_flows: int = 8, seed: int = 1,
    obs: Optional[ObsConfig] = None,
    executor: Optional[ExperimentExecutor] = None,
    rdcn_override: Optional[Callable[[RDCNConfig], RDCNConfig]] = None,
    fidelity: str = "packet",
) -> FigureData:
    """Figure 9: latency difference only at 100 Gbps."""
    return run_figure(
        "fig9", latency_only_rdcn(100.0), FULL_VARIANTS, weeks, warmup_weeks, n_flows,
        seed=seed, obs=obs, executor=executor, rdcn_override=rdcn_override,
        fidelity=fidelity,
    )


def fig10(
    weeks: int = 60, warmup_weeks: int = 12, n_flows: int = 8, seed: int = 1,
    obs: Optional[ObsConfig] = None,
    executor: Optional[ExperimentExecutor] = None,
    rdcn_override: Optional[Callable[[RDCNConfig], RDCNConfig]] = None,
    fidelity: str = "packet",
) -> FigureData:
    """Figure 10: CDFs of reordering events and retransmitted packets
    per optical day for CUBIC, MPTCP, and TDTCP."""
    data = run_figure(
        "fig10", bw_latency_rdcn(), REORDERING_VARIANTS, weeks, warmup_weeks, n_flows,
        seed=seed, obs=obs, executor=executor, rdcn_override=rdcn_override,
        fidelity=fidelity,
    )
    for variant, result in data.results.items():
        data.reordering_cdfs[variant] = empirical_cdf(result.reordering_per_day)
        data.retx_cdfs[variant] = empirical_cdf(result.retx_marks_per_day)
    return data


def fig11(
    weeks: int = 40, warmup_weeks: int = 12, n_flows: int = 8, seed: int = 1,
    obs: Optional[ObsConfig] = None,
    executor: Optional[ExperimentExecutor] = None,
    rdcn_override: Optional[Callable[[RDCNConfig], RDCNConfig]] = None,
    fidelity: str = "packet",
) -> FigureData:
    """Figure 11: TDTCP with and without the §5.4 notification
    optimizations."""
    return run_figure(
        "fig11",
        bw_latency_rdcn(),
        ("tdtcp", "tdtcp-unopt"),
        weeks,
        warmup_weeks,
        n_flows,
        seed=seed,
        obs=obs,
        executor=executor,
        rdcn_override=rdcn_override,
        fidelity=fidelity,
    )


def fig13(
    weeks: int = 40, warmup_weeks: int = 12, n_flows: int = 8, seed: int = 1,
    obs: Optional[ObsConfig] = None,
    executor: Optional[ExperimentExecutor] = None,
    rdcn_override: Optional[Callable[[RDCNConfig], RDCNConfig]] = None,
    fidelity: str = "packet",
) -> FigureData:
    """Figure 13 (Appendix A.3): VOQ occupancy of CUBIC and MPTCP in the
    Figure-2 configuration."""
    return run_figure(
        "fig13", bw_latency_rdcn(), MOTIVATION_VARIANTS, weeks, warmup_weeks, n_flows,
        seed=seed, obs=obs, executor=executor, rdcn_override=rdcn_override,
        fidelity=fidelity,
    )


def buffer_rdcn(total: int, policy: str, alpha: float = 1.0) -> RDCNConfig:
    """The Figure-2 RDCN with ``total`` packets of ToR buffer under one
    sharing policy (static carves it into the VOQ; pooled policies back
    it with a shared pool of the same size)."""
    return replace(
        bw_latency_rdcn(),
        voq_capacity=total,
        buffer_policy=policy,
        buffer_alpha=alpha,
        buffer_total_capacity=None if policy == "static" else total,
    )


def fig_buffer(
    total: int,
    policy: str,
    alpha: float = 1.0,
    variants: Sequence[str] = BUFFER_VARIANTS,
    weeks: int = 40, warmup_weeks: int = 12, n_flows: int = 8, seed: int = 1,
    obs: Optional[ObsConfig] = None,
    executor: Optional[ExperimentExecutor] = None,
    rdcn_override: Optional[Callable[[RDCNConfig], RDCNConfig]] = None,
    fidelity: str = "packet",
) -> FigureData:
    """One buffer-economics panel: sequence/VOQ curves of the buffer
    variants with ``total`` packets of ToR memory under ``policy``.

    The full figure family is one panel per (total, policy) point —
    see :func:`buffer_figure_family` and
    ``experiments.sweeps.buffer_economics_sweep`` for the aggregate
    throughput surface.
    """
    from repro.experiments.sweeps import POLICY_TAGS

    return run_figure(
        f"fig-buffer-{total}x{POLICY_TAGS[policy]}",
        buffer_rdcn(total, policy, alpha),
        variants,
        weeks,
        warmup_weeks,
        n_flows,
        seed=seed,
        obs=obs,
        executor=executor,
        rdcn_override=rdcn_override,
        fidelity=fidelity,
    )


def buffer_figure_family(
    totals: Sequence[int] = (32, 64, 96),
    policies: Sequence[str] = ("static", "complete-sharing", "dynamic-threshold"),
    alpha: float = 1.0,
    variants: Sequence[str] = BUFFER_VARIANTS,
    weeks: int = 40, warmup_weeks: int = 12, n_flows: int = 8, seed: int = 1,
    obs: Optional[ObsConfig] = None,
    executor: Optional[ExperimentExecutor] = None,
    rdcn_override: Optional[Callable[[RDCNConfig], RDCNConfig]] = None,
    fidelity: str = "packet",
) -> Dict[str, FigureData]:
    """The buffer-economics figure family: a panel per (total buffer x
    sharing policy) point, keyed by the panel name."""
    family: Dict[str, FigureData] = {}
    for total in totals:
        for policy in policies:
            data = fig_buffer(
                total, policy, alpha, variants, weeks, warmup_weeks, n_flows,
                seed=seed, obs=obs, executor=executor, rdcn_override=rdcn_override,
                fidelity=fidelity,
            )
            family[data.name] = data
    return family


def fig14(
    rate_gbps: float, weeks: int = 40, warmup_weeks: int = 12, n_flows: int = 8, seed: int = 1,
    obs: Optional[ObsConfig] = None,
    executor: Optional[ExperimentExecutor] = None,
    rdcn_override: Optional[Callable[[RDCNConfig], RDCNConfig]] = None,
    fidelity: str = "packet",
) -> FigureData:
    """Figure 14 (Appendix A.4): VOQ occupancy, latency-only RDCN at a
    fixed rate (the paper shows 10 and 100 Gbps panels)."""
    return run_figure(
        f"fig14-{int(rate_gbps)}g",
        latency_only_rdcn(rate_gbps),
        FULL_VARIANTS,
        weeks,
        warmup_weeks,
        n_flows,
        seed=seed,
        obs=obs,
        executor=executor,
        rdcn_override=rdcn_override,
        fidelity=fidelity,
    )
