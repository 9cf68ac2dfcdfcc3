"""Topology builder: wiring, RTT calibration, schedule gating."""

import pytest

from repro.net.packet import Packet
from repro.rdcn.config import NotifierConfig, RDCNConfig
from repro.rdcn.topology import build_two_rack_testbed
from repro.sim import Simulator
from repro.units import gbps, usec


def build(n_hosts=2, **kwargs):
    cfg = RDCNConfig(n_hosts_per_rack=n_hosts, **kwargs)
    return build_two_rack_testbed(cfg)


class TestConstruction:
    def test_host_counts(self):
        tb = build(n_hosts=3)
        assert len(tb.hosts[0]) == 3
        assert len(tb.hosts[1]) == 3
        assert tb.host(0, 2).address == "r0h2"

    def test_uplinks_per_direction(self):
        tb = build()
        assert set(tb.uplinks) == {0, 1}
        assert tb.uplinks[0] is not tb.uplinks[1]

    def test_ecn_queues_when_requested(self):
        """Nobody has to request them: every VOQ marks at the config's
        K, carved or pool-backed."""
        for policy in ("static", "dynamic-threshold"):
            cfg = RDCNConfig(n_hosts_per_rack=2, ecn_threshold=7, buffer_policy=policy)
            tb = build_two_rack_testbed(cfg)
            assert [up.queue.mark_threshold for up in tb.uplinks.values()] == [7, 7]

    def test_plain_queues_by_default(self):
        tb = build()
        assert tb.pools == {}
        assert all(up.queue.pool is None for up in tb.uplinks.values())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RDCNConfig(n_hosts_per_rack=0)
        with pytest.raises(ValueError):
            RDCNConfig(schedule_pattern=())
        with pytest.raises(ValueError):
            RDCNConfig(voq_capacity=0)
        with pytest.raises(ValueError):
            NotifierConfig(night_policy="bogus")

    def test_derived_properties(self):
        cfg = RDCNConfig()
        assert cfg.n_tdns == 2
        assert cfg.week_ns == 7 * (cfg.day_ns + cfg.night_ns)
        assert cfg.tdn_rate_bps(0) == cfg.packet_rate_bps
        assert cfg.tdn_rate_bps(1) == cfg.optical_rate_bps


class TestDataPath:
    def _one_packet_rtt(self, tb, tdn):
        """Send one packet r0h0 -> r1h0 and an immediate 'ack' back;
        returns (data_arrival, ack_arrival)."""
        sim = tb.sim
        for uplink in tb.uplinks.values():
            uplink.set_active(tdn)
        src = tb.host(0, 0)
        dst = tb.host(1, 0)
        times = {}

        def on_data(pkt):
            times["data"] = sim.now
            dst.send(Packet(dst.address, src.address, 64))

        def on_ack(pkt):
            times["ack"] = sim.now

        # Bypass TCP: watch raw deliveries.
        dst.deliver = lambda p: on_data(p)
        src.deliver = lambda p: on_ack(p)
        src.send(Packet(src.address, dst.address, 1500))
        sim.run(until=usec(1000))
        return times

    def test_packet_rtt_near_100us(self):
        tb = build()
        times = self._one_packet_rtt(tb, tdn=0)
        assert times["ack"] == pytest.approx(usec(100), rel=0.15)

    def test_optical_rtt_near_40us(self):
        tb = build()
        times = self._one_packet_rtt(tb, tdn=1)
        assert times["ack"] == pytest.approx(usec(40), rel=0.2)

    def test_cross_rack_delivery_through_schedule(self):
        tb = build()
        got = []
        tb.host(1, 0).subscribe_tdn_changes(lambda n: None)
        original = tb.host(1, 0).deliver

        def spy(pkt):
            got.append(pkt)
            original(pkt)

        tb.host(1, 0).deliver = spy
        tb.start()
        tb.host(0, 0).send(Packet("r0h0", "r1h0", 1500))
        tb.sim.run(until=usec(300))
        data = [p for p in got if p.size == 1500]
        assert len(data) == 1
        assert data[0].network_id == 0  # first day is a packet day

    def test_rack_local_traffic_stays_local(self):
        tb = build(n_hosts=2)
        tb.start()
        got = []
        original = tb.host(0, 1).deliver
        tb.host(0, 1).deliver = lambda p: (got.append(p), original(p))
        tb.host(0, 0).send(Packet("r0h0", "r0h1", 1500))
        tb.sim.run(until=usec(50))
        data = [p for p in got if p.size == 1500]
        assert len(data) == 1
        assert data[0].network_id is None  # never crossed the fabric

    def test_schedule_gates_fabric(self):
        tb = build()
        tb.start()
        # Advance into the first night and inject a packet: it must
        # wait for the next day.
        night_start = tb.config.day_ns
        tb.sim.run(until=night_start + usec(1))
        got = []
        original = tb.host(1, 0).deliver
        tb.host(1, 0).deliver = lambda p: (
            got.append(tb.sim.now) if p.size == 1500 else None,
            original(p),
        )
        tb.host(0, 0).send(Packet("r0h0", "r1h0", 1500))
        tb.sim.run(until=night_start + usec(5))
        assert got == []  # still night
        tb.sim.run(until=night_start + tb.config.night_ns + usec(60))
        assert len(got) == 1
