"""Extension: short-lived flows (§5.1's deferred claim).

"Overall, we do not expect TDTCP to impact the completion time of
short-lived flows but a full treatment is outside the scope of this
paper." — the treatment: Poisson arrivals of 10-segment RPCs on the
paper's RDCN, FCT distributions under plain TCP vs TDTCP.
"""

from repro.apps.shortflows import run_short_flow_study
from repro.core.tdtcp import TDTCPConnection
from repro.obs.sketch import quantile
from repro.rdcn.config import RDCNConfig
from repro.rdcn.topology import build_two_rack_testbed
from repro.tcp.connection import TCPConnection
from repro.units import usec

from benchmarks.conftest import emit


def test_ext_short_flow_fct(benchmark, results_dir, scale):
    def study():
        out = {}
        for name, cls, kwargs in (
            ("tcp", TCPConnection, {}),
            ("tdtcp", TDTCPConnection, {"tdn_count": 2}),
        ):
            testbed = build_two_rack_testbed(RDCNConfig(seed=scale["seed"]))
            stats = run_short_flow_study(
                testbed, cls,
                duration_ns=testbed.config.week_ns * max(scale["weeks"], 20),
                flow_size_bytes=15_000,
                mean_interarrival_ns=usec(400),
                **kwargs,
            )
            out[name] = stats
        return out

    results = benchmark.pedantic(study, rounds=1, iterations=1)
    lines = ["short-flow FCT (15 KB RPCs, Poisson arrivals on the paper's RDCN):"]
    for name, stats in results.items():
        fcts = stats.fct_values_us()
        lines.append(
            f"  {name:<6} n={len(fcts):4d} completion={stats.completion_rate() * 100:5.1f}%  "
            f"p50={quantile(fcts, 0.5):7.1f}us  p90={quantile(fcts, 0.9):7.1f}us  "
            f"p99={quantile(fcts, 0.99):7.1f}us"
        )
    lines.append("paper expectation: no impact (claim deferred in §5.1)")
    emit(results_dir, "ext_short_flows", "\n".join(lines))

    tcp_p50 = quantile(results["tcp"].fct_values_us(), 0.5)
    tdtcp_p50 = quantile(results["tdtcp"].fct_values_us(), 0.5)
    assert 0.5 < tdtcp_p50 / tcp_p50 < 2.0
    for stats in results.values():
        assert stats.completion_rate() > 0.9
