"""Short-flow workload and the §5.1 no-impact expectation."""

import pytest

from repro.apps.shortflows import ShortFlowGenerator, run_short_flow_study
from repro.core.tdtcp import TDTCPConnection
from repro.obs.sketch import quantile
from repro.rdcn.topology import build_two_rack_testbed
from repro.sim.rng import SeededRandom
from repro.tcp.connection import TCPConnection
from repro.units import msec, usec

from tests.helpers import small_rdcn, two_hosts


class TestGenerator:
    def test_flows_launch_and_complete(self):
        sim, a, b, _ab, _ba = two_hosts()
        gen = ShortFlowGenerator(
            sim, a, b, SeededRandom(3),
            flow_size_bytes=15_000, mean_interarrival_ns=usec(300),
        )
        gen.start()
        sim.run(until=msec(10))
        gen.stop()
        assert len(gen.stats.records) > 10
        assert gen.stats.completion_rate() > 0.9

    def test_fct_positive_and_reasonable(self):
        sim, a, b, _ab, _ba = two_hosts()
        gen = ShortFlowGenerator(
            sim, a, b, SeededRandom(3),
            flow_size_bytes=15_000, mean_interarrival_ns=usec(500),
        )
        gen.start()
        sim.run(until=msec(10))
        fcts = gen.stats.fct_values_us()
        assert fcts
        # 15 KB over a 10 Gbps / 40 us-RTT path: tens to hundreds of us.
        assert min(fcts) > 10
        assert quantile(fcts, 0.5) < 2_000

    def test_stop_halts_launches(self):
        sim, a, b, _ab, _ba = two_hosts()
        gen = ShortFlowGenerator(sim, a, b, SeededRandom(3))
        gen.start()
        sim.run(until=msec(2))
        gen.stop()
        count = len(gen.stats.records)
        sim.run(until=msec(6))
        assert len(gen.stats.records) == count

    def test_connections_cleaned_up(self):
        sim, a, b, _ab, _ba = two_hosts()
        gen = ShortFlowGenerator(
            sim, a, b, SeededRandom(3), mean_interarrival_ns=usec(200),
        )
        gen.start()
        sim.run(until=msec(20))
        gen.stop()
        sim.run(until=msec(25))
        # Far fewer registered connections than launched flows.
        assert len(a._connections) < len(gen.stats.records) / 2


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
            stats = run_short_flow_study(
                testbed, cls,
                duration_ns=testbed.config.week_ns * 20,
                flow_size_bytes=15_000,
                mean_interarrival_ns=usec(400),
                **kwargs,
            )
            assert stats.completion_rate() > 0.9
            results[name] = quantile(stats.fct_values_us(), 0.5)
        # Within a modest band of each other (no harm, no magic).
        ratio = results["tdtcp"] / results["tcp"]
        assert 0.5 < ratio < 2.0, results
