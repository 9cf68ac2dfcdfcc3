"""Short-flow workload and the §5.1 no-impact expectation: Poisson
traces of 15 KB RPCs replayed through the workload engine."""

from repro.apps.engine import poisson_trace
from repro.core.tdtcp import TDTCPConnection
from repro.obs.sketch import quantile
from repro.rdcn.topology import build_two_rack_testbed
from repro.sim.rng import SeededRandom
from repro.tcp.connection import TCPConnection
from repro.units import msec, usec

from tests.helpers import fct_values_us, replay_short_flows, small_rdcn


def small_testbed():
    return build_two_rack_testbed(small_rdcn(n_hosts=1))


class TestGenerator:
    def test_trace_is_seeded_and_bounded(self):
        trace = poisson_trace(SeededRandom(3), "r0h0", "r1h0", 15_000, usec(300), msec(10))
        assert trace == poisson_trace(SeededRandom(3), "r0h0", "r1h0", 15_000, usec(300), msec(10))
        starts = [flow.start_ns for flow in trace]
        assert all(b - a >= 1_000 for a, b in zip([0] + starts, starts))
        assert starts[-1] <= msec(10)
        assert {(f.src, f.dst, f.size_bytes) for f in trace} == {("r0h0", "r1h0", 15_000)}

    def test_flows_launch_and_complete(self):
        stats = replay_short_flows(small_testbed(), TCPConnection, msec(10), usec(300))
        assert stats.started > 10
        assert stats.completion_rate() > 0.9

    def test_fct_positive_and_reasonable(self):
        stats = replay_short_flows(small_testbed(), TCPConnection, msec(10), usec(500))
        fcts = fct_values_us(stats)
        assert fcts
        # 15 KB over the small RDCN: tens to hundreds of us.
        assert min(fcts) > 10
        assert quantile(fcts, 0.5) < 2_000

    def test_connections_cleaned_up(self):
        testbed = small_testbed()
        stats = replay_short_flows(testbed, TCPConnection, msec(20), usec(200))
        testbed.sim.run(until=msec(25))
        # Far fewer registered connections than launched flows.
        assert len(testbed.host(0, 0)._connections) < stats.started / 2


class TestShortFlowsOnRDCN:
    def test_paper_claim_tdtcp_does_not_hurt_short_flows(self):
        """§5.1: TDTCP should not impact short-flow completion times.
        Compare median FCT of 10-segment RPCs under plain TCP vs TDTCP
        on the same RDCN."""
        results = {}
        for name, cls, kwargs in (
            ("tcp", TCPConnection, {}),
            ("tdtcp", TDTCPConnection, {"tdn_count": 2}),
        ):
            testbed = build_two_rack_testbed(small_rdcn(n_hosts=2))
            stats = replay_short_flows(
                testbed, cls, testbed.config.week_ns * 20, usec(400), **kwargs
            )
            assert stats.completion_rate() > 0.9
            results[name] = quantile(fct_values_us(stats), 0.5)
        # Within a modest band of each other (no harm, no magic).
        ratio = results["tdtcp"] / results["tcp"]
        assert 0.5 < ratio < 2.0, results
