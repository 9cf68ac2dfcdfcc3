"""Parameter sweeps beyond the paper's headline setting.

Two studies the paper explicitly defers:

* §5.1: "TDTCP has the most advantage over other TCP variants with
  ratios on this order [6:1]. We leave it as future work to study
  TDTCP's performance when operating under extreme ratios." —
  :func:`duty_ratio_sweep` varies the packet:optical day ratio.
* §3.5: "TDTCP is most suitable to operate in networks where the
  periods between TDN changes are 1-100x path RTT." —
  :func:`day_length_sweep` varies the day duration across that band.

Every (setting, variant) point is an independent seeded run, so each
sweep is one :class:`~repro.experiments.executor.Plan`: ``*_plan``
builds its labelled configs before anything runs, and the sweep of the
same name runs them as one :class:`ExperimentExecutor` batch — pass
``executor`` to parallelize/cache them. A crashed run is recorded as a
failed :class:`SweepPoint` (structured failure attached, **no**
throughput number), never as a silent ~0 Gbps measurement.

Beyond its own grid axes every sweep takes ``**run``: any
:class:`ExperimentConfig` field, applied to every point over the
sweep-scale defaults (24 weeks, 8 of them warm-up). A name that is not
a field raises ``TypeError``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial, wraps
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments.config import ExperimentConfig, WorkloadConfig
from repro.experiments.executor import ExperimentExecutor, Plan
from repro.experiments.runner import ExperimentResult, RunFailure
from repro.net.queues import BUFFER_POLICIES
from repro.rdcn.config import RDCNConfig
from repro.units import usec

#: Compact policy tags used in sweep labels and CSV/figure axes.
POLICY_TAGS = {
    "static": "static",
    "complete-sharing": "share",
    "dynamic-threshold": "dyn",
}


@dataclass
class _GridResult:
    """What every sweep returns: its points in grid order, and every
    run's :class:`ExperimentResult` (fault-plan / auditor reports,
    telemetry artifacts), in grid order too."""

    name: str
    points: list = field(default_factory=list)
    runs: List[ExperimentResult] = field(default_factory=list)

    @property
    def failures(self) -> list:
        return [p for p in self.points if not p.ok]


@dataclass
class SweepPoint:
    """One (setting, variant) measurement. ``failure`` set means the
    run crashed: there is no throughput to report (NaN placeholder)."""

    label: str
    variant: str
    throughput_gbps: float = float("nan")
    retransmissions: int = 0
    rtos: int = 0
    failure: Optional[RunFailure] = None

    @property
    def ok(self) -> bool:
        return self.failure is None


@dataclass
class SweepResult(_GridResult):
    """A setting x variant grid of bulk runs."""

    def by_label(self) -> Dict[str, Dict[str, float]]:
        """setting -> variant -> throughput; failed points are left out
        (their absence, not a zero, marks them)."""
        out: Dict[str, Dict[str, float]] = {}
        for p in self.points:
            out.setdefault(p.label, {})
            if p.ok:
                out[p.label][p.variant] = p.throughput_gbps
        return out

    def render(self) -> str:
        table = self.by_label()
        variants = sorted({p.variant for p in self.points})
        failed = {(p.label, p.variant) for p in self.points if not p.ok}
        header = f"{'setting':>14} " + " ".join(f"{v:>10}" for v in variants)
        lines = [f"[{self.name}] steady-state throughput (Gbps)", header]
        for label, row in table.items():
            cells = []
            for v in variants:
                if (label, v) in failed:
                    cells.append(f"{'FAILED':>10}")
                else:
                    cells.append(f"{row.get(v, float('nan')):10.2f}")
            lines.append(f"{label:>14} " + " ".join(cells))
        for point in self.failures:
            lines.append(f"  [{point.label}/{point.variant}] {point.failure.render()}")
        return "\n".join(lines)


def _grid_plan(name: str, grid: List[Tuple[str, str, RDCNConfig]], run: dict) -> Plan:
    """Every (label, variant, rdcn) point as one batch, assembled in
    grid order. ``run`` holds the :class:`ExperimentConfig` fields every
    point gets."""
    run = {"weeks": 24, "warmup_weeks": 8, "n_flows": 8, **run}
    obs = run.pop("obs", None)
    tags = [f"{label}/{variant}" for label, variant, _rdcn in grid]
    configs = [
        ExperimentConfig(
            variant=variant,
            rdcn=rdcn,
            # Labels name artifact files; "2:1" must not put a colon there.
            obs=obs.for_run(f"{name}_{label}_{variant}".replace(":", "to"))
            if obs is not None else None,
            **run,
        )
        for label, variant, rdcn in grid
    ]
    return Plan(configs, [f"{name}/{tag}" for tag in tags], tags,
                partial(_assemble_sweep, name, grid))


def _assemble_sweep(
    name: str, grid: List[Tuple[str, str, RDCNConfig]], runs: List[ExperimentResult]
) -> SweepResult:
    result = SweepResult(name=name, runs=runs)
    for (label, variant, _rdcn), outcome in zip(grid, runs):
        if not outcome.ok:
            # A crashed run must surface as a failure, never as a
            # zero-throughput measurement.
            result.points.append(
                SweepPoint(label=label, variant=variant, failure=outcome.failure)
            )
            continue
        result.points.append(
            SweepPoint(
                label=label,
                variant=variant,
                throughput_gbps=outcome.steady_state_throughput_gbps(),
                retransmissions=outcome.retransmissions,
                rtos=outcome.rtos,
            )
        )
    return result


@dataclass
class LoadPoint:
    """One (offered load, variant) workload-engine measurement."""

    load: float
    variant: str
    achieved_load: float = float("nan")
    started: int = 0
    completed: int = 0
    truncated: int = 0
    completion_rate: float = 0.0
    #: Serialized QuantileSketch states (fct_us / slowdown / per-bin)
    #: from the run — merge-ready across seeds and campaigns.
    sketches: Dict[str, dict] = field(default_factory=dict)
    summary: Optional[dict] = None
    failure: Optional[RunFailure] = None

    @property
    def ok(self) -> bool:
        return self.failure is None

    def percentile(self, sketch: str, label: str) -> Optional[float]:
        """One labeled percentile (e.g. ``("slowdown", "p99")``) from
        this point's serialized sketches; None when absent/empty."""
        if self.summary is None:
            return None
        family = self.summary.get(sketch)
        if not isinstance(family, dict):
            return None
        return family.get(label)


@dataclass
class LoadSweepResult(_GridResult):
    """A load x variant grid of workload-engine runs."""

    def render(self) -> str:
        variants = sorted({p.variant for p in self.points})
        by_cell = {(p.load, p.variant): p for p in self.points}
        loads = sorted({p.load for p in self.points})
        header = f"{'load':>6} " + " ".join(f"{v:>24}" for v in variants)
        lines = [
            f"[{self.name}] FCT slowdown p50/p99 (achieved load)",
            header,
        ]
        for load in loads:
            cells = []
            for variant in variants:
                point = by_cell.get((load, variant))
                if point is None:
                    cells.append(f"{'-':>24}")
                elif not point.ok:
                    cells.append(f"{'FAILED':>24}")
                else:
                    p50 = point.percentile("slowdown", "p50")
                    p99 = point.percentile("slowdown", "p99")
                    p50_s = f"{p50:.1f}" if p50 is not None else "-"
                    p99_s = f"{p99:.1f}" if p99 is not None else "-"
                    cells.append(
                        f"{p50_s + '/' + p99_s:>15} ({point.achieved_load:5.3f})"
                    )
            lines.append(f"{load:6.2f} " + " ".join(cells))
        for point in self.failures:
            lines.append(
                f"  [{point.load:.2f}/{point.variant}] {point.failure.render()}"
            )
        return "\n".join(lines)


def load_plan(
    loads: Sequence[float] = (0.2, 0.4, 0.6),
    variants: Sequence[str] = ("cubic", "tdtcp"),
    cdf: str = "web-search",
    custom_cdf: Optional[tuple] = None,
    matrix: str = "permutation",
    hotspot_fraction: float = 0.5,
    max_flows: Optional[int] = None,
    **run,
) -> Plan:
    """Offered load x variant grid through the workload engine.

    Every cell is one seeded engine run (Poisson empirical arrivals on
    the two-rack fabric); FCT/slowdown percentiles come from the run's
    streaming sketches and the engine releases each connection pair
    (``TCPConnection.release``: demux slot, timers, TDN listener) 1 ms
    after delivery, so memory and host time per flow stay flat however
    many flows a cell launches; no per-flow record is kept. Telemetry
    (``obs``) is recorded per cell under the label
    ``load_{load}_{variant}``.
    """
    run = {"weeks": 24, "warmup_weeks": 8, **run}
    obs = run.pop("obs", None)
    grid = [(load, variant) for load in loads for variant in variants]
    configs = [
        ExperimentConfig(
            variant=variant,
            collect_voq=False,
            collect_sequence=False,
            obs=obs.for_run(f"load_{load:.2f}_{variant}") if obs is not None else None,
            workload=WorkloadConfig(
                kind="empirical",
                cdf=cdf,
                custom_cdf=custom_cdf,
                load=load,
                matrix=matrix,
                hotspot_fraction=hotspot_fraction,
                max_flows=max_flows,
            ),
            **run,
        )
        for load, variant in grid
    ]
    tags = [f"{load:.2f}/{variant}" for load, variant in grid]
    return Plan(configs, [f"load-sweep/{tag}" for tag in tags], tags,
                partial(_assemble_loads, grid))


def _assemble_loads(
    grid: List[Tuple[float, str]], runs: List[ExperimentResult]
) -> LoadSweepResult:
    result = LoadSweepResult(name="load-sweep", runs=runs)
    for (load, variant), outcome in zip(grid, runs):
        if not outcome.ok:
            result.points.append(
                LoadPoint(load=load, variant=variant, failure=outcome.failure)
            )
            continue
        summary = outcome.workload_summary or {}
        result.points.append(
            LoadPoint(
                load=load,
                variant=variant,
                achieved_load=summary.get("achieved_load", float("nan")),
                started=summary.get("started", 0),
                completed=summary.get("completed", 0),
                truncated=outcome.truncated_flows,
                completion_rate=summary.get("completion_rate", 0.0),
                sketches={
                    name: state
                    for name, state in outcome.sketches.items()
                    if name.startswith(("fct_", "slowdown"))
                },
                summary=summary,
            )
        )
    return result


def duty_ratio_plan(
    packet_days: Sequence[int] = (2, 6, 13),
    variants: Sequence[str] = ("cubic", "tdtcp"),
    **run,
) -> Plan:
    """Vary the packet:optical ratio (the paper's future work).

    ``packet_days=n`` gives an ``n:1`` schedule — the projection of an
    ``n+2``-rack rotor fabric.
    """
    base = RDCNConfig()
    grid: List[Tuple[str, str, RDCNConfig]] = []
    for n_packet in packet_days:
        pattern = tuple([0] * n_packet + [1])
        rdcn = replace(base, schedule_pattern=pattern)
        for variant in variants:
            grid.append((f"{n_packet}:1", variant, rdcn))
    return _grid_plan("duty-ratio-sweep", grid, run)


def day_length_plan(
    day_us_values: Sequence[int] = (60, 180, 1000),
    variants: Sequence[str] = ("cubic", "tdtcp"),
    **run,
) -> Plan:
    """Vary the day duration across the §3.5 operating band.

    The packet RTT is ~100 us, so 60/180/1000 us days correspond to
    roughly 0.6x / 2x / 10x RTT per configuration.
    """
    base = RDCNConfig()
    grid: List[Tuple[str, str, RDCNConfig]] = []
    for day_us in day_us_values:
        rdcn = replace(base, day_ns=usec(day_us))
        for variant in variants:
            grid.append((f"{day_us}us", variant, rdcn))
    return _grid_plan("day-length-sweep", grid, run)


def buffer_economics_plan(
    totals: Sequence[int] = (32, 64, 96),
    policies: Sequence[str] = BUFFER_POLICIES,
    variants: Sequence[str] = ("cubic", "dctcp", "tdtcp"),
    alpha: float = 1.0,
    **run,
) -> Plan:
    """Buffer economics: total ToR buffer x sharing policy x variant.

    Each setting gives every ToR the same total memory (``totals``
    packets per ToR) and varies only how the VOQs may claim it
    (:meth:`RDCNConfig.with_buffer`): ``static`` carves it per VOQ,
    ``complete-sharing`` lets any VOQ consume the whole pool,
    ``dynamic-threshold`` admits while a VOQ stays below
    ``alpha x free_pool`` (Choudhury-Hahne). Labels are ``{total}x{tag}``
    (e.g. ``96xdyn``).

    Unlike the other sweeps this one audits every point in fail mode
    unless told otherwise: a pooled run whose used-cell counter drifts
    from the sum of member queue lengths surfaces as a FAILED point,
    never as a throughput number.
    """
    for policy in policies:
        if policy not in BUFFER_POLICIES:
            raise ValueError(
                f"unknown buffer policy {policy!r}; expected one of {BUFFER_POLICIES}"
            )
    base = RDCNConfig()
    grid: List[Tuple[str, str, RDCNConfig]] = []
    for total in totals:
        for policy in policies:
            rdcn = base.with_buffer(total, policy, alpha)
            label = f"{total}x{POLICY_TAGS[policy]}"
            for variant in variants:
                grid.append((label, variant, rdcn))
    return _grid_plan("buffer-economics-sweep", grid, {"audit": "fail", **run})


def _runs(plan_of: Callable[..., Plan]) -> Callable:
    """The sweep that runs ``plan_of``'s plan: the same arguments, plus
    ``executor`` (inline by default). It carries the plan's docstring,
    and ``inspect.signature`` / ``help()`` show the plan's parameters."""

    @wraps(plan_of, assigned=("__doc__",))
    def sweep(*args, executor: Optional[ExperimentExecutor] = None, **kwargs):
        return plan_of(*args, **kwargs).run(executor)

    return sweep


load_sweep = _runs(load_plan)
duty_ratio_sweep = _runs(duty_ratio_plan)
day_length_sweep = _runs(day_length_plan)
buffer_economics_sweep = _runs(buffer_economics_plan)
