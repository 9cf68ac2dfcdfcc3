"""Demand-aware matching on the OCS fabric (§6, Helios/ProjecToR
class): "In demand-aware RDCNs, a controller collects real-time traffic
demand information and calculates a schedule that serves the current
demand. [...] TDTCP is applicable in either case; all that is required
is that ToRs notify the senders of the upcoming TDN."
"""

import pytest

from repro.core.tdtcp import TDTCPConnection
from repro.net.packet import Packet
from repro.rdcn.opera import OperaConfig, build_opera_testbed
from repro.tcp.config import TCPConfig
from repro.tcp.sockets import create_connection_pair
from repro.units import throughput_gbps, usec


def demand_aware_config(**kwargs):
    kwargs.setdefault("matching_policy", "demand-aware")
    kwargs.setdefault("n_racks", 4)
    return OperaConfig(**kwargs)


class TestDemandAwareMatching:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            OperaConfig(matching_policy="oracle")

    def test_busiest_pair_served_first(self):
        cfg = demand_aware_config()
        tb = build_opera_testbed(cfg)
        # Load the 0<->1 VOQs heavily before the first slot.
        for _ in range(20):
            tb.tors[0].voqs[1].push(Packet("r0h0", "r1h0", 1500), 0)
        tb.start()
        tb.sim.run(until=usec(1))
        assert (0, 1) in tb.chosen_matchings[0]

    def test_no_starvation_under_skewed_demand(self):
        """The aging bonus guarantees every pair is served eventually
        even when one pair dominates the demand."""
        cfg = demand_aware_config()
        tb = build_opera_testbed(cfg)

        # Persistent heavy demand 0 -> 1.
        def refill():
            for _ in range(5):
                tb.tors[0].voqs[1].push(Packet("r0h0", "r1h0", 1500), tb.sim.now)
            tb.sim.schedule(cfg.slot_ns, refill)

        refill()
        tb.start()
        tb.sim.run(until=cfg.cycle_ns * 8)
        served = set()
        for matching in tb.chosen_matchings:
            served.update(matching)
        n = cfg.n_racks
        all_pairs = {(a, b) for a in range(n) for b in range(a + 1, n)}
        assert served == all_pairs

    def test_matchings_are_valid(self):
        cfg = demand_aware_config(n_racks=6)
        tb = build_opera_testbed(cfg)
        tb.start()
        tb.sim.run(until=cfg.cycle_ns * 4)
        for matching in tb.chosen_matchings:
            racks = [r for pair in matching for r in pair]
            assert len(racks) == len(set(racks))  # each rack at most once


class TestTDTCPOnDemandAware:
    def test_tdtcp_works_with_partner_id_tdns(self):
        cfg = demand_aware_config()
        tb = build_opera_testbed(cfg)
        tcp = TCPConfig(
            mss=cfg.mss, min_rto_ns=usec(5_000),
            rwnd_packets=256, send_buffer_packets=256,
        )
        client, server = create_connection_pair(
            tb.sim, tb.host(0, 0), tb.host(1, 0),
            cc_name="cubic", config=tcp,
            connection_cls=TDTCPConnection,
            tdn_count=cfg.n_racks,  # TDN id = partner rack id
        )
        client.start_bulk()
        tb.start()
        tb.sim.run(until=cfg.cycle_ns * 30)
        assert server.stats.bytes_delivered > 500_000
        assert client.tdn_state.switches > 5
        # Some partner-id TDNs accumulated their own models.
        assert any(p.rtt.srtt_ns is not None for p in client.paths)
        # The flow's pair received direct slots.
        assert any((0, 1) in m for m in tb.chosen_matchings)

    def test_demand_aware_at_least_matches_rotor(self):
        """With one bulk flow, the demand-aware fabric serves the flow
        at least as well as the oblivious rotor. (The margin is modest:
        a window-limited TCP flow's VOQ looks shallow at slot
        boundaries, so backlog-driven scheduling under-estimates its
        demand — a real scheduler/transport interplay.)"""
        def run(policy):
            cfg = demand_aware_config(matching_policy=policy)
            tb = build_opera_testbed(cfg)
            tcp = TCPConfig(
                mss=cfg.mss, min_rto_ns=usec(5_000),
                rwnd_packets=256, send_buffer_packets=256,
            )
            client, server = create_connection_pair(
                tb.sim, tb.host(0, 0), tb.host(1, 0),
                cc_name="cubic", config=tcp,
                connection_cls=TDTCPConnection, tdn_count=cfg.n_racks,
            )
            client.start_bulk()
            tb.start()
            tb.sim.run(until=cfg.cycle_ns * 30)
            return throughput_gbps(server.stats.bytes_delivered, tb.sim.now)

        aware = run("demand-aware")
        oblivious = run("rotor")
        assert aware > oblivious * 0.9


class TestAnnouncedPartner:
    @pytest.mark.parametrize("generation_ns", [None, 0], ids=["default-cost", "zero-generation"])
    def test_every_host_hears_its_racks_current_partner(self, monkeypatch, generation_ns):
        """The TDN id a rack's hosts hear is the partner its ToR has as
        it emits — not what the notifier could see at the day boundary,
        where it runs before the fabric has chosen the slot's matching."""
        if generation_ns is not None:
            from tests.helpers import opera_notifier_cost

            opera_notifier_cost(
                monkeypatch, generation_cached_p50_ns=generation_ns,
                generation_cached_tail_ns=generation_ns,
            )
        cfg = demand_aware_config(n_racks=6)
        tb = build_opera_testbed(cfg)
        heard = []
        for rack, hosts in tb.hosts.items():
            for host in hosts:
                host.subscribe_tdn_changes(
                    lambda n, rack=rack: heard.append((rack, n.tdn_id, tb.tors[rack].partner))
                )

        def refill():  # skewed demand, so the matchings are not a fixed cycle
            for _ in range(5):
                tb.tors[0].voqs[3].push(Packet("r0h0", "r3h0", 1500), tb.sim.now)
            tb.sim.schedule(cfg.slot_ns, refill)

        refill()
        tb.start()
        tb.sim.run(until=cfg.cycle_ns * 3 - 1)
        slots = 3 * cfg.n_slots
        assert len(tb.chosen_matchings) == slots
        assert len(heard) == slots * cfg.n_racks * cfg.n_hosts_per_rack
        assert all(tdn == partner and partner is not None for _rack, tdn, partner in heard)
        assert len({tdn for rack, tdn, _p in heard if rack == 0}) > 2

    def test_a_rack_that_went_dark_announces_nothing(self):
        """Skew can end a slot before its ToRs have built their ICMPs;
        there is then no partner to announce, and nothing is."""
        cfg = demand_aware_config()
        tb = build_opera_testbed(cfg)
        tb.driver.boundary_jitter = (
            lambda phase, index, _nominal: cfg.slot_ns if (phase, index) == ("day", 1) else 0
        )
        tb.start()
        tb.sim.run(until=cfg.cycle_ns - 1)
        hosts = cfg.n_racks * cfg.n_hosts_per_rack
        assert len(tb.chosen_matchings) == cfg.n_slots
        assert len(tb.notifier.delivery_latency_samples) == (cfg.n_slots - 1) * hosts
