"""Sub-MSS writes go out at once (no Nagle), and the documented
jumbo-frame incast regime."""

import pytest

from repro.experiments import ExperimentConfig, run_experiment
from repro.rdcn.config import RDCNConfig
from repro.tcp.sockets import create_connection_pair
from repro.units import gbps, msec, usec

from tests.helpers import two_hosts


def count_partials(sim, ab):
    partials = []
    original = ab.deliver
    ab.deliver = lambda p: (
        partials.append(p.payload_len) if 0 < p.payload_len < 1500 else None,
        original(p),
    )
    return partials


class TestNagle:
    def test_nodelay_sends_partials_immediately(self):
        sim, a, b, ab, _ba = two_hosts()
        partials = count_partials(sim, ab)
        client, server = create_connection_pair(sim, a, b)
        sim.run(until=usec(200))
        # Three quick sub-MSS writes: all go out as separate segments.
        client.write(100)
        sim.run(until=usec(210))
        client.write(100)
        client.write(100)
        sim.run(until=msec(3))
        assert len(partials) >= 3
        assert server.stats.bytes_delivered == 300


class TestJumboIncastRegime:
    def test_documented_deviation_jumbo_incast_collapse(self):
        """DESIGN.md §7 item 2: at jumbo MSS with the paper's VOQ byte
        capacity and many flows, per-flow windows fall below 2 MSS on
        the packet network and the run degenerates into RTO-bound
        incast. This test pins the rationale for the 1500 B MSS."""
        jumbo = RDCNConfig(
            n_hosts_per_rack=16,
            host_link_rate_bps=gbps(6.25),
            mss=9_000,
            voq_capacity=16,       # 16 jumbo frames, the paper's literal value
            ecn_threshold=5,
        )
        cfg = ExperimentConfig(
            variant="cubic", rdcn=jumbo, n_flows=16, weeks=16, warmup_weeks=4,
        )
        result = run_experiment(cfg)
        scaled = run_experiment(
            ExperimentConfig(variant="cubic", n_flows=16, weeks=16, warmup_weeks=4)
        )
        # The jumbo regime suffers dramatically more timeouts per
        # delivered byte than the scaled 1500 B regime.
        jumbo_rto_rate = result.rtos / max(result.aggregate_delivered, 1)
        scaled_rto_rate = scaled.rtos / max(scaled.aggregate_delivered, 1)
        assert jumbo_rto_rate > scaled_rto_rate * 3
