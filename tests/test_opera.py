"""OCS-only rotor fabric (RotorNet/Opera-style) with two-hop routing."""

import pytest

from repro.core.tdtcp import TDTCPConnection
from repro.net.packet import MAX_TDN_ID, Packet, TDNNotification
from repro.rdcn.opera import OperaConfig, build_opera_testbed
from repro.tcp.config import TCPConfig
from repro.tcp.connection import TCPConnection
from repro.tcp.sockets import create_connection_pair
from repro.units import msec, throughput_gbps, usec


class TestConfig:
    def test_defaults(self):
        cfg = OperaConfig()
        assert cfg.n_slots == 3
        assert cfg.cycle_ns == 3 * (cfg.slot_ns + cfg.night_ns)

    def test_validation(self):
        with pytest.raises(ValueError):
            OperaConfig(n_racks=5)
        with pytest.raises(ValueError):
            OperaConfig(n_hosts_per_rack=0)


class TestFabricMechanics:
    def test_direct_delivery_during_matching_slot(self):
        cfg = OperaConfig(n_racks=4)
        tb = build_opera_testbed(cfg)
        got = []
        original = tb.host(1, 0).deliver
        tb.host(1, 0).deliver = lambda p: (
            got.append(tb.sim.now) if p.size == 1500 else None, original(p))
        tb.start()
        # Find the slot connecting racks 0 and 1 and inject there.
        slot = next(
            i for i, m in enumerate(tb.matchings) if (0, 1) in m
        )
        inject_at = slot * (cfg.slot_ns + cfg.night_ns) + usec(1)
        tb.sim.at(inject_at, lambda: tb.host(0, 0).send(Packet("r0h0", "r1h0", 1500)))
        tb.sim.run(until=inject_at + usec(50))
        assert len(got) == 1
        # Direct: one fabric hop.
        assert got[0] - inject_at < usec(20)

    def test_two_hop_relays_when_not_matched(self):
        cfg = OperaConfig(n_racks=4, two_hop=True)
        tb = build_opera_testbed(cfg)
        got = []
        original = tb.host(1, 0).deliver
        tb.host(1, 0).deliver = lambda p: (
            got.append(tb.sim.now) if p.size == 1500 else None, original(p))
        tb.start()
        # Inject during a slot where 0 and 1 are NOT matched.
        slot = next(
            i for i, m in enumerate(tb.matchings) if (0, 1) not in m
        )
        inject_at = slot * (cfg.slot_ns + cfg.night_ns) + usec(1)
        tb.sim.at(inject_at, lambda: tb.host(0, 0).send(Packet("r0h0", "r1h0", 1500)))
        tb.sim.run(until=inject_at + cfg.cycle_ns * 2)
        assert len(got) == 1
        transit_total = sum(t.transit_tx for t in tb.tors.values())
        assert transit_total >= 1  # it took the indirect path

    def test_without_two_hop_waits_for_direct_slot(self):
        cfg = OperaConfig(n_racks=4, two_hop=False)
        tb = build_opera_testbed(cfg)
        got = []
        original = tb.host(1, 0).deliver
        tb.host(1, 0).deliver = lambda p: (
            got.append(tb.sim.now) if p.size == 1500 else None, original(p))
        tb.start()
        slot = next(i for i, m in enumerate(tb.matchings) if (0, 1) not in m)
        direct_slot = next(i for i, m in enumerate(tb.matchings) if (0, 1) in m)
        inject_at = slot * (cfg.slot_ns + cfg.night_ns) + usec(1)
        tb.sim.at(inject_at, lambda: tb.host(0, 0).send(Packet("r0h0", "r1h0", 1500)))
        tb.sim.run(until=cfg.cycle_ns * 2)
        assert len(got) == 1
        direct_start = direct_slot * (cfg.slot_ns + cfg.night_ns)
        # Delivered only once the direct slot came around.
        assert got[0] >= min(
            t for t in (direct_start, direct_start + cfg.cycle_ns) if t > inject_at
        )

    def test_relay_happens_at_most_once(self):
        cfg = OperaConfig(n_racks=6, two_hop=True)
        tb = build_opera_testbed(cfg)
        tb.start()
        pkt = Packet("r0h0", "r3h0", 1500)
        tb.host(0, 0).send(pkt)
        tb.sim.run(until=cfg.cycle_ns * 3)
        # The packet arrived and was relayed at most one time.
        relays = sum(t.relayed_rx for t in tb.tors.values())
        assert relays <= 1

    def test_matchings_rotate(self):
        cfg = OperaConfig(n_racks=4)
        tb = build_opera_testbed(cfg)
        partners = []
        tb.start()
        for slot in range(cfg.n_slots):
            tb.sim.run(until=slot * (cfg.slot_ns + cfg.night_ns) + usec(1))
            partners.append(tb.tors[0].partner)
        assert sorted(partners) == [1, 2, 3]

    def test_night_gates_everything(self):
        cfg = OperaConfig(n_racks=4)
        tb = build_opera_testbed(cfg)
        tb.start()
        tb.sim.run(until=cfg.slot_ns + usec(1))  # inside the first night
        assert all(t.partner is None for t in tb.tors.values())


class TestTransportOnOpera:
    def _run_transport(self, connection_cls, cycles=30, **kwargs):
        cfg = OperaConfig(n_racks=4)
        tb = build_opera_testbed(cfg)
        tcp = TCPConfig(
            mss=cfg.mss,
            min_rto_ns=usec(5_000),
            rwnd_packets=256,
            send_buffer_packets=256,
        )
        client, server = create_connection_pair(
            tb.sim, tb.host(0, 0), tb.host(1, 0),
            cc_name="cubic", config=tcp,
            connection_cls=connection_cls, **kwargs,
        )
        client.start_bulk()
        tb.start()
        tb.sim.run(until=cfg.cycle_ns * cycles)
        return tb, client, server

    def test_tcp_makes_progress(self):
        tb, client, server = self._run_transport(TCPConnection)
        assert server.stats.bytes_delivered > 500_000

    def test_tdtcp_tracks_one_state_per_matching(self):
        tb, client, server = self._run_transport(
            TDTCPConnection, tdn_count=3
        )
        assert server.stats.bytes_delivered > 500_000
        assert client.negotiated_tdns == 3
        assert client.tdn_state.switches > 10
        # The direct slot's RTT model is the fastest of the sampled ones
        # (other slots pay the store-and-forward penalty).
        sampled = {
            p.tdn_id: p.rtt.srtt_ns for p in client.paths if p.rtt.srtt_ns
        }
        direct_slot = next(
            i for i, m in enumerate(tb.matchings) if (0, 1) in m
        )
        assert direct_slot in sampled
        assert sampled[direct_slot] == min(sampled.values())


class TestNotifierContract:
    """The rotor fabric announces through the two-rack testbed's
    ``TDNNotifier`` on its ``ScheduleDriver``, so it inherits their
    contract: sequence numbers and the freshness filter, the §5.4
    latency samples, the tracepoints, skew absorption and the rule that
    a host nobody listens on costs no packet."""

    def test_notify_seq_increases_and_a_replay_is_stale(self):
        cfg = OperaConfig(n_racks=4)
        tb = build_opera_testbed(cfg)
        host = tb.host(2, 1)
        seen = []
        host.subscribe_tdn_changes(seen.append)
        tb.start()
        tb.sim.run(until=cfg.cycle_ns * 2 - 1)
        assert [n.tdn_id for n in seen] == [0, 1, 2, 0, 1, 2]
        seqs = [n.notify_seq for n in seen]
        assert all(a < b for a, b in zip(seqs, seqs[1:]))
        host.deliver(seen[0])
        assert host.stale_notifications == 1 and len(seen) == 6
        # An id beyond the protocol ceiling is dropped, as the comment in
        # OperaConfig.__post_init__ says.
        unknown = TDNNotification("opera-tor2", host.address, MAX_TDN_ID + 1, tb.sim.now)
        unknown.notify_seq = seqs[-1] + 1_000
        host.deliver(unknown)
        assert host.stale_notifications == 2 and len(seen) == 6

    def test_one_latency_sample_per_slot_and_host(self):
        cfg = OperaConfig(n_racks=4, n_hosts_per_rack=3)
        tb = build_opera_testbed(cfg)
        tb.start()
        tb.sim.run(until=cfg.cycle_ns * 2 - 1)
        samples = tb.notifier.delivery_latency_samples
        assert len(samples) == 2 * cfg.n_slots * 4 * 3
        assert min(samples) >= tb.notifier.config.control_delay_ns
        # The slot index is the driver's current TDN; a night has none.
        assert tb.driver.current_tdn is None
        tb.sim.run(until=cfg.cycle_ns * 2 + cfg.slot_ns + cfg.night_ns + usec(1))
        assert tb.driver.current_tdn == 1

    def test_tracepoints_fire_on_the_rotor_fabric(self):
        from repro.obs.telemetry import ObsConfig, Telemetry
        from repro.sim.simulator import Simulator

        sim = Simulator()
        fired = {}
        telemetry = Telemetry(ObsConfig()).attach(sim)
        telemetry.subscribe("*", lambda _t, name, _f: fired.update({name: fired.get(name, 0) + 1}))
        cfg = OperaConfig(n_racks=4)
        tb = build_opera_testbed(cfg, sim)
        tb.start()
        sim.run(until=cfg.cycle_ns - 1)
        assert fired["rdcn:day_night"] == 2 * cfg.n_slots  # a day and a night per slot
        assert fired["notifier:deliver"] == cfg.n_slots * 4 * cfg.n_hosts_per_rack

    @staticmethod
    def _counted_run(monkeypatch, with_flow):
        """Three cycles of the 8 x 2 fabric; the destinations of every
        ``TDNNotification`` built and of every one ``Host.deliver`` saw
        (the shape of ``TestRackAnnouncement._counted_run``)."""
        import repro.rdcn.notifier as notifier_module
        from repro.net.node import Host
        from repro.net.packet import TDNNotification
        from tests.helpers import bulk_pair

        built, delivered = [], []

        def counting(src, dst, tdn_id, created_ns=0):
            built.append(dst)
            return TDNNotification(src, dst, tdn_id, created_ns)

        deliver = Host.deliver

        def counting_deliver(host, packet):
            if isinstance(packet, TDNNotification):
                delivered.append(host.address)
            deliver(host, packet)

        monkeypatch.setattr(notifier_module, "TDNNotification", counting)
        monkeypatch.setattr(Host, "deliver", counting_deliver)
        cfg = OperaConfig(n_racks=8, n_hosts_per_rack=2)
        tb = build_opera_testbed(cfg)
        if with_flow:
            bulk_pair(
                tb.sim, tb.host(0, 0), tb.host(1, 0),
                connection_cls=TDTCPConnection, tdn_count=cfg.n_slots,
            )
        tb.start()
        tb.sim.run(until=cfg.cycle_ns * 3 - 1)
        return tb, built, delivered

    def test_idle_hosts_cost_no_packet(self, monkeypatch):
        tb, built, delivered = self._counted_run(monkeypatch, with_flow=False)
        assert built == [] and delivered == []
        announcements = 3 * 7
        assert tb.notifier.notifications_sent == announcements * 16
        assert len(tb.notifier.delivery_latency_samples) == announcements * 16
        hosts = [host for rack in tb.hosts.values() for host in rack]
        assert {host.rx_packets for host in hosts} == {announcements}
        assert {host.stale_notifications for host in hosts} == {0}

    def test_only_a_listening_host_gets_a_packet(self, monkeypatch):
        tb, built, delivered = self._counted_run(monkeypatch, with_flow=True)
        assert delivered == []
        assert set(built) == {"r0h0", "r1h0"} and len(built) == 2 * 3 * 7

    def test_boundary_skew_is_absorbed(self):
        cfg = OperaConfig(n_racks=4)
        tb = build_opera_testbed(cfg)
        # Slot 2's start arrives after slot 3's: applying it would roll
        # the fabric back to a matching whose circuits are gone.
        late = cfg.slot_ns + cfg.night_ns + usec(50)
        tb.driver.boundary_jitter = (
            lambda phase, index, _nominal: late if (phase, index) == ("day", 2) else 0
        )
        applied = []
        tb.driver.on_day_start(
            lambda slot, index: applied.append((index, slot, tb.tors[0].partner))
        )
        tb.start()
        tb.sim.run(until=cfg.cycle_ns * 2 - 1)
        assert tb.driver.out_of_order_boundaries == 1
        assert [index for index, _slot, _partner in applied] == [0, 1, 3, 4, 5]
        partner_of_rack0 = [
            next(b if a == 0 else a for a, b in matching if 0 in (a, b))
            for matching in tb.matchings
        ]
        assert all(partner == partner_of_rack0[slot] for _i, slot, partner in applied)

    @pytest.mark.parametrize("case,sha256", [
        (("opera", 1, 2, 600, 0.4),
         "bc3933d4d2d436f43da42ac36751eb7f4186f0370e8605a26ae3dc8bd5345e9f"),
        (("opera", 4, 2, 800, 0.5),
         "41c6673af8d171178a76cf062e13483430c87fc271cc3b3c7e90200a856a01ef"),
    ], ids=["seed1", "seed4"])
    def test_old_timing_gives_the_pre_change_goldens(self, monkeypatch, case, sha256):
        """The swap itself changed nothing: with the notifier given the
        timing ``_notify_hosts`` had (no generation cost, no host read
        cost, 1 us of control network, slot starts only) the engine
        reports what it reported before the swap — the hashes
        ``tests/test_release.py::ENGINE_GOLDENS`` held until then. Those
        were recorded with the free-running pace grid, so it runs under
        ``grid_pacing()``."""
        from tests.helpers import engine_fingerprint, grid_pacing, opera_notifier_cost

        opera_notifier_cost(
            monkeypatch, generation_cached_p50_ns=0, generation_cached_tail_ns=0,
            pull_read_cost_ns=0, control_delay_ns=usec(1),
        )
        with grid_pacing():
            assert engine_fingerprint(*case)["sha256"] == sha256
