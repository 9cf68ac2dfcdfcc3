"""Incast (many-to-one) and flow churn."""

import pytest

from repro.apps.bulk import BulkReceiver, BulkSender
from repro.apps.incast import IncastCoordinator, run_incast
from repro.core.tdtcp import TDTCPConnection
from repro.obs.sketch import quantile
from repro.rdcn.topology import build_two_rack_testbed
from repro.tcp.connection import TCPConnection
from repro.tcp.sockets import create_connection_pair
from repro.units import msec, usec

from tests.helpers import assert_invariants, small_rdcn


class TestIncast:
    def test_rounds_complete_barrier_style(self):
        tb = build_two_rack_testbed(small_rdcn(n_hosts=4))
        coordinator = run_incast(tb, n_workers=4, duration_ns=tb.config.week_ns * 15)
        done = coordinator.stats.completed
        assert len(done) >= 3
        # Rounds are sequential: each starts after the previous finished.
        for earlier, later in zip(done, done[1:]):
            assert later.start_ns >= earlier.completed_ns

    def test_round_times_positive_and_sane(self):
        tb = build_two_rack_testbed(small_rdcn(n_hosts=4))
        coordinator = run_incast(tb, n_workers=4, duration_ns=tb.config.week_ns * 15)
        times = coordinator.stats.round_times_us()
        assert times
        # 4 x 30 KB over a >=10 Gbps bottleneck: at least ~96 us, and
        # bounded by a few weeks even with transition losses.
        assert min(times) > 50
        assert quantile(times, 0.5) < 3 * tb.config.week_ns / 1000

    def test_goodput_positive(self):
        tb = build_two_rack_testbed(small_rdcn(n_hosts=4))
        coordinator = run_incast(tb, n_workers=4, duration_ns=tb.config.week_ns * 15)
        done = coordinator.stats.completed
        bytes_moved = len(done) * len(coordinator.senders) * coordinator.block_bytes
        span_ns = done[-1].completed_ns - done[0].start_ns
        assert bytes_moved * 8 / span_ns > 0.5  # Gbps

    def test_tdtcp_survives_incast(self):
        """Per-TDN state must not break under N-to-1 convergence."""
        tb = build_two_rack_testbed(small_rdcn(n_hosts=6))
        coordinator = run_incast(
            tb, n_workers=6, duration_ns=tb.config.week_ns * 20,
            connection_cls=TDTCPConnection, tdn_count=2,
        )
        assert len(coordinator.stats.completed) >= 3
        for sender in coordinator.senders:
            assert_invariants(sender)

    def test_wider_fanin_slows_rounds(self):
        """More workers per round -> longer rounds (the incast squeeze
        on the shared aggregator link)."""
        def median_round(n_workers):
            tb = build_two_rack_testbed(small_rdcn(n_hosts=8))
            coordinator = run_incast(
                tb, n_workers=n_workers, duration_ns=tb.config.week_ns * 20
            )
            return quantile(coordinator.stats.round_times_us(), 0.5)

        assert median_round(8) > median_round(2)


class TestFlowChurn:
    def test_remaining_flow_absorbs_released_bandwidth(self):
        """§5.1 starts all flows together; real fabrics churn. When one
        of two flows finishes, the survivor's rate must grow."""
        tb = build_two_rack_testbed(small_rdcn(n_hosts=2))
        flows = []
        for index in range(2):
            client, server = create_connection_pair(
                tb.sim, tb.host(0, index), tb.host(1, index)
            )
            receiver = BulkReceiver(server)
            sender = BulkSender(client)
            flows.append((client, server, sender, receiver))
        tb.start()
        week = tb.config.week_ns
        tb.sim.run(until=week * 12)
        # Flow 1 departs; give the survivor a few weeks to grow into
        # the freed share (CUBIC converges slowly at microsecond RTTs).
        departing = flows[1][0]
        departing.send_buffer.unlimited = False
        departing.close()
        survivor_before = flows[0][3].delivered_bytes
        tb.sim.run(until=week * 18)
        mid = flows[0][3].delivered_bytes
        tb.sim.run(until=week * 30)
        after = flows[0][3].delivered_bytes
        rate_shared = survivor_before / 12
        rate_alone = (after - mid) / 12
        assert rate_alone > rate_shared * 1.25

    def test_late_joining_flow_gets_share(self):
        tb = build_two_rack_testbed(small_rdcn(n_hosts=2))
        client0, server0 = create_connection_pair(tb.sim, tb.host(0, 0), tb.host(1, 0))
        BulkReceiver(server0)
        BulkSender(client0)
        tb.start()
        week = tb.config.week_ns
        tb.sim.run(until=week * 10)
        # Second flow joins late.
        client1, server1 = create_connection_pair(tb.sim, tb.host(0, 1), tb.host(1, 1))
        late_receiver = BulkReceiver(server1)
        BulkSender(client1)
        tb.sim.run(until=week * 30)
        early_bytes = server0.stats.bytes_delivered
        late_bytes = late_receiver.delivered_bytes
        assert late_bytes > 0
        # The latecomer converges toward a meaningful share.
        assert late_bytes > early_bytes * 0.1
