"""MPTCP: tdm scheduler, DSS sequencing, gating, reinjection."""

import pytest

from repro.mptcp.connection import MPTCPConnection, create_mptcp_pair
from repro.mptcp.scheduler import TdmScheduler
from repro.net.packet import TDNNotification
from repro.sim import Simulator
from repro.tcp.config import TCPConfig
from repro.units import msec, usec

from tests.helpers import two_hosts


class TestTdmScheduler:
    def test_steers_by_active_tdn(self):
        sched = TdmScheduler(2)
        assert sched.allows(0)
        assert not sched.allows(1)
        sched.set_active_tdn(1)
        assert sched.allows(1)
        assert not sched.allows(0)

    def test_single_subflow_always_allowed(self):
        sched = TdmScheduler(1)
        sched.set_active_tdn(1)
        assert sched.allows(0)

    def test_invalid(self):
        with pytest.raises(ValueError):
            TdmScheduler(0)


class TestEstablishment:
    def test_subflows_establish(self):
        sim, a, b, _ab, _ba = two_hosts()
        client, server = create_mptcp_pair(sim, a, b)
        sim.run(until=msec(5))
        assert client.established
        assert server.established

    def test_distinct_ports(self):
        sim, a, b, _ab, _ba = two_hosts()
        client, server = create_mptcp_pair(sim, a, b)
        ports = {(sf.local_port, sf.remote_port) for sf in client.subflows}
        assert len(ports) == 2


class TestDataTransfer:
    def test_bulk_on_subflow0(self):
        sim, a, b, _ab, _ba = two_hosts()
        client, server = create_mptcp_pair(sim, a, b)
        client.start_bulk()
        sim.run(until=msec(10))
        assert server.stats.bytes_delivered > 1_000_000
        # TDN 0 active the whole time: only subflow 0 carried data.
        assert client.subflows[1].snd_nxt == 1  # just the SYN

    def test_fixed_write(self):
        sim, a, b, _ab, _ba = two_hosts()
        client, server = create_mptcp_pair(sim, a, b)
        client.write(90_000)
        sim.run(until=msec(10))
        assert server.stats.bytes_delivered == 90_000
        assert server.data_rcv.rcv_nxt == 90_000

    def test_dss_ack_frees_window(self):
        sim, a, b, _ab, _ba = two_hosts()
        client, server = create_mptcp_pair(sim, a, b)
        client.start_bulk()
        sim.run(until=msec(10))
        assert client.dss_una > 0
        assert len(client.chunks) < 200

    def test_delivery_callback(self):
        sim, a, b, _ab, _ba = two_hosts()
        client, server = create_mptcp_pair(sim, a, b)
        seen = []
        server.on_delivered = lambda t, rcv: seen.append(rcv)
        client.write(30_000)
        sim.run(until=msec(10))
        assert seen[-1] == 30_000
        assert seen == sorted(seen)

    def test_switching_uses_both_subflows(self):
        sim, a, b, _ab, _ba = two_hosts()
        client, server = create_mptcp_pair(sim, a, b)
        client.start_bulk()
        sim.run(until=msec(3))
        client.set_active_tdn(1)
        server.set_active_tdn(1)
        sim.run(until=msec(8))
        assert client.subflows[1].stats.segments_sent > 0
        assert server.stats.bytes_delivered > 0


class TestGating:
    def test_inactive_subflow_does_not_send_data(self):
        sim, a, b, ab, _ba = two_hosts()
        subflow_ids = []
        original = ab.deliver
        ab.deliver = lambda p: (
            subflow_ids.append(p.subflow_id) if p.payload_len else None,
            original(p),
        )
        client, server = create_mptcp_pair(sim, a, b)
        client.start_bulk()
        sim.run(until=msec(5))
        assert set(subflow_ids) <= {0}

    def test_receiver_acks_suppressed_on_inactive_subflow(self):
        """Data arriving for a gated subflow is not ACKed until the
        subflow's TDN returns (§2.2's stuck ACKs)."""
        sim, a, b, _ab, ba = two_hosts()
        acks = []
        original = ba.deliver
        ba.deliver = lambda p: (
            acks.append((sim.now, p.subflow_id)) if p.is_ack and not p.payload_len else None,
            original(p),
        )
        client, server = create_mptcp_pair(sim, a, b)
        client.start_bulk()
        sim.run(until=msec(2))
        # Sender switches to subflow 1 but the receiver does NOT (its
        # notification is delayed): subflow-1 ACKs are suppressed.
        # (The single handshake-completing ACK from before is exempt.)
        client.set_active_tdn(1)
        acks.clear()
        sim.run(until=msec(2) + usec(500))
        sf1_acks = [t for t, sf in acks if sf == 1]
        assert sf1_acks == []
        # Receiver learns of the switch: the pent-up ACK goes out.
        server.set_active_tdn(1)
        sim.run(until=msec(4))
        sf1_acks = [t for t, sf in acks if sf == 1]
        assert sf1_acks

    def test_gated_rto_collapses_subflow(self):
        """A subflow RTO during its blocked period behaves like vanilla
        TCP: window collapse plus connection-level reinjection of the
        data that never made it (§2.2)."""
        sim, a, b, ab, _ba = two_hosts()
        client, server = create_mptcp_pair(sim, a, b)
        client.start_bulk()
        sim.run(until=msec(2))
        client.set_active_tdn(1)
        server.set_active_tdn(1)
        sim.run(until=msec(3))
        # Drop subflow-1 data from now on (the tail lost at the night
        # gate), then switch back to the packet TDN.
        original = ab.deliver

        def gate(pkt):
            if pkt.payload_len and pkt.subflow_id == 1:
                pkt.dropped = True
                return
            original(pkt)

        ab.deliver = gate
        sim.run(until=msec(3) + usec(50))
        client.set_active_tdn(0)
        server.set_active_tdn(0)
        sim.run(until=msec(12))
        assert client.subflows[1].gated_rtos >= 1
        assert client.subflows[1].paths[0].cc.cwnd <= 2
        assert client.stats.reinjections >= 1
        # The data stream survived the loss via the other subflow.
        assert server.data_rcv.ooo_bytes == 0

    def test_reinjection_makes_progress(self):
        """Data stuck on the gated subflow is reinjected on the active
        one and the data-level stream keeps advancing."""
        sim, a, b, _ab, _ba = two_hosts()
        client, server = create_mptcp_pair(sim, a, b)
        client.start_bulk()
        sim.run(until=msec(2))
        client.set_active_tdn(1)
        server.set_active_tdn(1)
        sim.run(until=msec(3))
        client.set_active_tdn(0)
        server.set_active_tdn(0)
        delivered_at_switch = server.stats.bytes_delivered
        sim.run(until=msec(12))
        assert server.stats.bytes_delivered > delivered_at_switch
        assert client.stats.reinjected_bytes > 0


class TestNotificationIntegration:
    def test_parent_follows_notifications(self):
        sim, a, b, _ab, _ba = two_hosts()
        client, _server = create_mptcp_pair(sim, a, b)
        sim.run(until=msec(1))
        a.deliver(TDNNotification("tor", a.address, tdn_id=1))
        sim.run(until=msec(1) + usec(10))
        assert client.scheduler.active_tdn == 1

    def test_snapshot(self):
        sim, a, b, _ab, _ba = two_hosts()
        client, _server = create_mptcp_pair(sim, a, b)
        sim.run(until=msec(1))
        snap = client.snapshot()
        assert snap["active_tdn"] == 0
        assert len(snap["subflows"]) == 2
