"""Figure 10: reordering events and retransmitted packets per optical
day — CDFs for CUBIC, MPTCP, and TDTCP.

Expected shape: TDTCP cuts off CUBIC's spurious-retransmission tail
(per delivered byte) and a healthy fraction of TDTCP's optical days see
no reordering-induced retransmission at all.
"""

import numpy as np

from repro.experiments.figures import fig10
from repro.experiments.report import render_fig10

from benchmarks.conftest import emit


def test_fig10_reordering_cdfs(benchmark, results_dir, scale):
    fig_scale = dict(scale)
    fig_scale["weeks"] = max(fig_scale["weeks"], 32)  # CDFs need samples
    data = benchmark.pedantic(
        lambda: fig10(**fig_scale), rounds=1, iterations=1, warmup_rounds=0
    )
    emit(results_dir, "fig10", render_fig10(data))

    # TDTCP's relaxed detection: fewer spurious retransmissions per
    # delivered byte than CUBIC.
    tdtcp = data.results["tdtcp"]
    cubic = data.results["cubic"]
    tdtcp_rate = tdtcp.spurious_retransmissions / max(tdtcp.aggregate_delivered, 1)
    cubic_rate = cubic.spurious_retransmissions / max(cubic.aggregate_delivered, 1)
    assert tdtcp_rate <= cubic_rate

    # Some optical days are completely clean for TDTCP (paper: 80%).
    assert np.mean(np.asarray(tdtcp.retx_marks_per_day) <= 0) > 0.0
