"""Figure 14 (Appendix A.4): VOQ occupancy under latency-only variation
at fixed 10 Gbps and 100 Gbps.

Expected shape: TDTCP's buffer use is in line with CUBIC/DCTCP/MPTCP,
while reTCP-dyn still builds large queues ahead of each circuit day —
mismatched here, because with fixed bandwidth the circuit BDP is
*smaller* (lower latency), so prebuffering buys nothing."""

import pytest

from repro.experiments.figures import FIGURES
from repro.experiments.report import render_throughput_summary, render_voq_graph

from benchmarks.conftest import emit


@pytest.mark.parametrize("rate_gbps", [10.0, 100.0])
def test_fig14_latency_only_voq(benchmark, results_dir, scale, rate_gbps):
    # Fixed-rate fabrics move more packets per week than the hybrid
    # setting (no slow days); halve the horizon to keep it tractable.
    fig_scale = dict(scale)
    fig_scale["weeks"] = max(scale["weeks"] // 2, scale["warmup_weeks"] + 4)
    fig_scale["warmup_weeks"] = max(scale["warmup_weeks"] // 2, 2)
    figure = FIGURES[f"fig14-{int(rate_gbps)}g"]
    data = benchmark.pedantic(
        lambda: figure(**fig_scale), rounds=1, iterations=1, warmup_rounds=0
    )
    text = "\n\n".join(
        [render_voq_graph(data, points=14), render_throughput_summary(data)]
    )
    emit(results_dir, f"fig14_{int(rate_gbps)}g", text)

    # reTCP-dyn's prebuffering still fills the enlarged VOQ...
    assert data.results["retcpdyn"].voq_max > 96
    # ...while TDTCP stays within the stock queue like everyone else.
    assert data.results["tdtcp"].voq_max <= 96
