"""Figure 8: bandwidth difference only (latency equal across TDNs).

Expected shape: CUBIC adapts to pure bandwidth variation — it clearly
exceeds the packet-only rate, unlike the paper's Figure 2 regime —
while MPTCP still struggles. Partial deviation (recorded in
EXPERIMENTS.md): the paper reports near-parity between CUBIC and TDTCP
here; our single-path stack is equally clean in the Figure-7 setting
(no 200 ms-RTO stalls), so the *contrast* between the two figures is
smaller — CUBIC captures the same ~2/3 of TDTCP's throughput in both.

DCTCP does what its marks tell it to: it holds the VOQ near K = 30
segments, so it enters the optical day with no standing queue and a
window sized for the packet network, and gets the packet rate and
little more. (Until the senders were actually ECT this file asserted
``dctcp > 1.15 x packet`` — true only of a DCTCP that never saw a mark.)
"""

from repro.experiments.figures import fig8
from repro.experiments.report import (
    render_seq_graph,
    render_throughput_summary,
    render_voq_graph,
)

from benchmarks.conftest import emit


def test_fig08_bandwidth_only(benchmark, results_dir, scale):
    data = benchmark.pedantic(
        lambda: fig8(**scale), rounds=1, iterations=1, warmup_rounds=0
    )
    text = "\n\n".join(
        [
            render_seq_graph(data, points=14),
            render_voq_graph(data, points=14),
            render_throughput_summary(data),
        ]
    )
    emit(results_dir, "fig08", text)

    thr = data.throughputs_gbps
    packet_gbps = data.rdcn.packet_rate_bps / 1e9
    # A buffer-filling single-path sender adapts to bandwidth-only
    # variation: clearly above the packet-only rate (Figure 8a's
    # contrast with Figure 2).
    assert thr["cubic"] > packet_gbps * 1.15
    assert thr["cubic"] > thr["tdtcp"] * 0.55
    # What the figure can honestly show for ECN-driven DCTCP: it keeps
    # the packet rate, trails CUBIC, and buys that with the shortest
    # queue of the single-path variants.
    assert thr["dctcp"] >= packet_gbps * 0.95
    assert thr["dctcp"] < thr["cubic"]
    mean_voq = {name: curve.mean() for name, (_times, curve) in data.voq_curves.items()}
    assert mean_voq["dctcp"] == min(
        mean_voq[name] for name in ("cubic", "dctcp", "retcp", "retcpdyn")
    )
    # MPTCP still brings up the rear.
    assert thr["mptcp"] == min(thr.values())
