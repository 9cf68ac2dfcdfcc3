"""End-to-end RDCN integration: the paper's qualitative orderings at
reduced scale, plus fault injection.

These are the claims a reproduction must preserve (Figures 2, 7-10):

* TDTCP out-throughputs CUBIC/DCTCP under bandwidth+latency variation;
* MPTCP (tdm_schd) is the worst performer;
* under bandwidth-only variation the single-path variants are much
  closer to TDTCP;
* TDTCP suffers fewer spurious retransmissions than CUBIC;
* reTCP-dyn is the only competitive alternative and needs the larger
  VOQ to do it.
"""

import pytest

from repro.experiments import ExperimentConfig, run_experiment
from repro.experiments.figures import bw_only_rdcn, latency_only_rdcn
from repro.net.packet import TDNNotification
from repro.rdcn.config import RDCNConfig

WEEKS = 24
WARMUP = 8
FLOWS = 4


_RESULTS = {}


def run(variant, rdcn=None, **kwargs):
    cfg = ExperimentConfig(
        variant=variant,
        rdcn=rdcn if rdcn is not None else RDCNConfig(),
        n_flows=kwargs.pop("n_flows", FLOWS),
        weeks=kwargs.pop("weeks", WEEKS),
        warmup_weeks=kwargs.pop("warmup_weeks", WARMUP),
        **kwargs,
    )
    # Runs are seeded and the tests only read the result, so a config
    # several figures share (fig 7/11 tdtcp, fig 8 tdtcp, fig 9 cubic)
    # simulates once.
    key = cfg.cache_key()
    if key not in _RESULTS:
        _RESULTS[key] = run_experiment(cfg)
    return _RESULTS[key]


@pytest.fixture(scope="module")
def bw_latency_results():
    return {v: run(v) for v in ("cubic", "dctcp", "tdtcp", "mptcp", "retcpdyn")}


class TestFigure7Orderings:
    def test_tdtcp_beats_cubic(self, bw_latency_results):
        tdtcp = bw_latency_results["tdtcp"].steady_state_throughput_gbps()
        cubic = bw_latency_results["cubic"].steady_state_throughput_gbps()
        assert tdtcp > cubic * 1.10

    def test_tdtcp_beats_dctcp(self, bw_latency_results):
        tdtcp = bw_latency_results["tdtcp"].steady_state_throughput_gbps()
        dctcp = bw_latency_results["dctcp"].steady_state_throughput_gbps()
        assert tdtcp > dctcp * 1.10

    def test_mptcp_is_worst(self, bw_latency_results):
        mptcp = bw_latency_results["mptcp"].steady_state_throughput_gbps()
        for other in ("cubic", "dctcp", "tdtcp", "retcpdyn"):
            assert mptcp < bw_latency_results[other].steady_state_throughput_gbps()

    def test_retcpdyn_competitive_with_tdtcp(self, bw_latency_results):
        tdtcp = bw_latency_results["tdtcp"].steady_state_throughput_gbps()
        retcpdyn = bw_latency_results["retcpdyn"].steady_state_throughput_gbps()
        assert retcpdyn > tdtcp * 0.6
        assert retcpdyn > bw_latency_results["cubic"].steady_state_throughput_gbps()

    def test_all_beat_nothing(self, bw_latency_results):
        # Sanity: every variant moves serious data.
        for result in bw_latency_results.values():
            assert result.steady_state_throughput_gbps() > 3.0

    def test_retcpdyn_uses_enlarged_voq(self, bw_latency_results):
        assert bw_latency_results["retcpdyn"].voq_max > 96
        assert bw_latency_results["cubic"].voq_max <= 96


class TestFigure10Reordering:
    def test_tdtcp_fewer_spurious_than_cubic(self, bw_latency_results):
        tdtcp = bw_latency_results["tdtcp"]
        cubic = bw_latency_results["cubic"]
        # Normalize per delivered byte to be fair.
        tdtcp_rate = tdtcp.spurious_retransmissions / max(tdtcp.aggregate_delivered, 1)
        cubic_rate = cubic.spurious_retransmissions / max(cubic.aggregate_delivered, 1)
        assert tdtcp_rate < cubic_rate

    def test_some_clean_optical_days_for_tdtcp(self, bw_latency_results):
        days = bw_latency_results["tdtcp"].retx_marks_per_day
        assert any(count == 0 for count in days)


class TestFigure8BandwidthOnly:
    def test_single_path_adapts_to_bandwidth_only(self):
        rdcn = bw_only_rdcn()
        tdtcp = run("tdtcp", rdcn).steady_state_throughput_gbps()
        cubic = run("cubic", rdcn).steady_state_throughput_gbps()
        # Figure 8: CUBIC adapts to pure bandwidth variation — clearly
        # above packet-only — and captures a solid share of TDTCP's
        # throughput (see the fig8 benchmark docstring for the
        # documented deviation on the parity magnitude).
        assert cubic > rdcn.packet_rate_bps / 1e9 * 1.1
        assert cubic > tdtcp * 0.55

    def test_mptcp_still_struggles(self):
        rdcn = bw_only_rdcn()
        mptcp = run("mptcp", rdcn).steady_state_throughput_gbps()
        tdtcp = run("tdtcp", rdcn).steady_state_throughput_gbps()
        assert mptcp < tdtcp


class TestFigure9LatencyOnly:
    def test_variants_bunch_together(self):
        rdcn = latency_only_rdcn(100.0)
        cubic = run("cubic", rdcn, n_flows=4).steady_state_throughput_gbps()
        tdtcp = run("tdtcp", rdcn, n_flows=4).steady_state_throughput_gbps()
        # Figure 9: TDTCP and CUBIC perform almost identically.
        assert abs(tdtcp - cubic) / cubic < 0.35

    def test_throughput_near_line_rate(self):
        rdcn = latency_only_rdcn(100.0)
        cubic = run("cubic", rdcn, n_flows=4).steady_state_throughput_gbps()
        assert cubic > 40.0  # out of ~90+ achievable


class TestFigure11Notification:
    def test_optimizations_help_tdtcp(self):
        opt = run("tdtcp").steady_state_throughput_gbps()
        unopt = run("tdtcp-unopt").steady_state_throughput_gbps()
        # Paper: +12.7% from the three optimizations combined.
        assert opt > unopt

    def test_unoptimized_notification_latency_higher(self):
        opt = run("tdtcp", weeks=8, warmup_weeks=2)
        unopt = run("tdtcp-unopt", weeks=8, warmup_weeks=2)
        mean = lambda xs: sum(xs) / len(xs)
        assert mean(unopt.notification_latencies) > mean(opt.notification_latencies)


class TestFaultInjection:
    def test_random_fabric_loss_survived(self):
        """1% random loss on the fabric: throughput degrades but every
        variant keeps moving data and never wedges."""
        from repro.rdcn.topology import build_two_rack_testbed
        from repro.tcp.sockets import create_connection_pair
        from repro.core.tdtcp import TDTCPConnection
        from repro.sim.rng import SeededRandom

        cfg = RDCNConfig(n_hosts_per_rack=2)
        tb = build_two_rack_testbed(cfg)
        rng = SeededRandom(5)
        for uplink in tb.uplinks.values():
            original = uplink.deliver

            def lossy(pkt, orig=original):
                if rng.chance(0.01):
                    pkt.dropped = True
                    return
                orig(pkt)

            uplink.deliver = lossy
        client, server = create_connection_pair(
            tb.sim, tb.host(0, 0), tb.host(1, 0),
            connection_cls=TDTCPConnection, tdn_count=2,
        )
        client.start_bulk()
        tb.start()
        tb.sim.run(until=cfg.week_ns * 15)
        assert server.stats.bytes_delivered > 500_000
        assert client.stats.retransmissions > 0

    def test_lost_notifications_tolerated(self):
        """Dropping every second TDN notification delays state switches
        but must not break the connection."""
        from repro.rdcn.topology import build_two_rack_testbed
        from repro.tcp.sockets import create_connection_pair
        from repro.core.tdtcp import TDTCPConnection

        cfg = RDCNConfig(n_hosts_per_rack=2)
        tb = build_two_rack_testbed(cfg)
        client, server = create_connection_pair(
            tb.sim, tb.host(0, 0), tb.host(1, 0),
            connection_cls=TDTCPConnection, tdn_count=2,
        )
        # Client drops every other notification.
        counter = {"n": 0}
        real_handler = client._on_tdn_notification

        def flaky(notification):
            counter["n"] += 1
            if counter["n"] % 2 == 0:
                return
            real_handler(notification)

        client.host._tdn_listeners[-1] = flaky
        client.start_bulk()
        tb.start()
        tb.sim.run(until=cfg.week_ns * 10)
        assert server.stats.bytes_delivered > 500_000

    def test_runtime_schedule_change(self):
        """A third TDN appearing mid-connection initializes fresh state
        (§4.2 runtime schedule changes)."""
        from repro.rdcn.topology import build_two_rack_testbed
        from repro.tcp.sockets import create_connection_pair
        from repro.core.tdtcp import TDTCPConnection

        cfg = RDCNConfig(n_hosts_per_rack=2)
        tb = build_two_rack_testbed(cfg)
        client, server = create_connection_pair(
            tb.sim, tb.host(0, 0), tb.host(1, 0),
            connection_cls=TDTCPConnection, tdn_count=2,
        )
        client.start_bulk()
        tb.start()
        tb.sim.run(until=cfg.week_ns * 2)
        client.host.deliver(TDNNotification("tor0", "r0h0", tdn_id=2))
        tb.sim.run(until=cfg.week_ns * 2 + 1000)
        assert len(client.paths) == 3
        assert client.tdn_state.current_index == 2
        # Return to the scheduled pattern and keep transferring.
        tb.sim.run(until=cfg.week_ns * 4)
        assert server.stats.bytes_delivered > 100_000
