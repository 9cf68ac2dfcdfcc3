"""Extension: short-lived flows (§5.1's deferred claim).

"Overall, we do not expect TDTCP to impact the completion time of
short-lived flows but a full treatment is outside the scope of this
paper." — the treatment: Poisson arrivals of 10-segment RPCs on the
paper's RDCN, replayed through the workload engine as a trace, FCT
distributions under plain TCP vs TDTCP.
"""

from repro.apps.engine import WorkloadEngine, poisson_trace
from repro.core.tdtcp import TDTCPConnection
from repro.obs.sketch import quantile
from repro.rdcn.config import RDCNConfig
from repro.rdcn.topology import build_two_rack_testbed
from repro.tcp.connection import TCPConnection
from repro.units import usec

from benchmarks.conftest import emit


def replay_short_flows(testbed, connection_cls, duration_ns, **conn_kwargs):
    """15 KB RPCs from r0h0 to r1h0, Poisson arrivals every 400 us on
    average, through the workload engine; every completion is kept."""
    trace = poisson_trace(testbed.rng, "r0h0", "r1h0", 15_000, usec(400), duration_ns)
    engine = WorkloadEngine(
        testbed, testbed.rng, trace=trace, connection_cls=connection_cls,
        record_cap=len(trace), **conn_kwargs,
    )
    engine.start()
    testbed.start()
    testbed.sim.run(until=duration_ns)
    return engine.finish()


def fct_values_us(stats):
    return [record.fct_ns / 1000 for record in stats.records]


def test_ext_short_flow_fct(benchmark, results_dir, scale):
    def study():
        out = {}
        for name, cls, kwargs in (
            ("tcp", TCPConnection, {}),
            ("tdtcp", TDTCPConnection, {"tdn_count": 2}),
        ):
            testbed = build_two_rack_testbed(RDCNConfig(seed=scale["seed"]))
            out[name] = replay_short_flows(
                testbed, cls, testbed.config.week_ns * max(scale["weeks"], 20), **kwargs
            )
        return out

    results = benchmark.pedantic(study, rounds=1, iterations=1)
    lines = ["short-flow FCT (15 KB RPCs, Poisson arrivals on the paper's RDCN):"]
    for name, stats in results.items():
        fcts = fct_values_us(stats)
        lines.append(
            f"  {name:<6} n={len(fcts):4d} completion={stats.completion_rate() * 100:5.1f}%  "
            f"p50={quantile(fcts, 0.5):7.1f}us  p90={quantile(fcts, 0.9):7.1f}us  "
            f"p99={quantile(fcts, 0.99):7.1f}us"
        )
    lines.append("paper expectation: no impact (claim deferred in §5.1)")
    emit(results_dir, "ext_short_flows", "\n".join(lines))

    tcp_p50 = quantile(fct_values_us(results["tcp"]), 0.5)
    tdtcp_p50 = quantile(fct_values_us(results["tdtcp"]), 0.5)
    assert 0.5 < tdtcp_p50 / tcp_p50 < 2.0
    for stats in results.values():
        assert stats.completion_rate() > 0.9
