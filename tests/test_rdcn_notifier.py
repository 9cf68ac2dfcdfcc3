"""Notifier: day/night announcements and the §5.4 cost model."""

import pytest

from repro.experiments import ExperimentConfig, VARIANTS
from repro.experiments.config import WorkloadConfig
from repro.obs.sketch import quantile
from repro.rdcn.config import NotifierConfig, RDCNConfig
from repro.rdcn.notifier import TDNNotifier, sample_generation_delay_ns
from repro.rdcn.schedule import ScheduleDriver, TDNSchedule
from repro.rdcn.topology import build_two_rack_testbed
from repro.sim import SeededRandom, Simulator
from repro.units import gbps, usec

from tests.helpers import notification_fingerprint, notifier_fingerprint, run_keeping_testbed


class TestGenerationDelaySampling:
    def test_quantiles_match_configuration(self):
        rng = SeededRandom(3)
        samples = [sample_generation_delay_ns(rng, 250, 2750) for _ in range(20_000)]
        assert quantile(samples, 0.5) == pytest.approx(250, rel=0.15)
        assert quantile(samples, 0.99) == pytest.approx(2750, rel=0.2)

    def test_degenerate_tail(self):
        rng = SeededRandom(3)
        assert sample_generation_delay_ns(rng, 100, 100) == 100
        assert sample_generation_delay_ns(rng, 100, 50) == 100

    def test_caching_ratio_near_paper(self):
        """Cached vs uncached generation: ~8x at p50, ~2.7x at p99."""
        cfg = NotifierConfig()
        rng = SeededRandom(11)
        cached = [
            sample_generation_delay_ns(
                rng, cfg.generation_cached_p50_ns, cfg.generation_cached_tail_ns
            )
            for _ in range(20_000)
        ]
        uncached = [
            sample_generation_delay_ns(
                rng, cfg.generation_uncached_p50_ns, cfg.generation_uncached_tail_ns
            )
            for _ in range(20_000)
        ]
        p50_ratio = quantile(uncached, 0.5) / quantile(cached, 0.5)
        p99_ratio = quantile(uncached, 0.99) / quantile(cached, 0.99)
        assert 6.0 < p50_ratio < 10.0     # paper: 8x
        assert 1.8 < p99_ratio < 3.8      # paper: 2.7x


    @pytest.mark.parametrize("cfg", [NotifierConfig(), NotifierConfig.unoptimized()])
    def test_notifier_draws_the_module_function_sequence(self, cfg):
        # The notifier works its (shift, rate) pair out once; every
        # sample must still be the integer the module function returns.
        sim = Simulator()
        driver = ScheduleDriver(sim, TDNSchedule.uniform((0, 1), usec(10), usec(2)))
        notifier = TDNNotifier(sim, driver, cfg, SeededRandom(9))
        reference_rng = SeededRandom(9).fork("notifier").fork("generation")
        if cfg.packet_caching:
            p50, tail = cfg.generation_cached_p50_ns, cfg.generation_cached_tail_ns
        else:
            p50, tail = cfg.generation_uncached_p50_ns, cfg.generation_uncached_tail_ns
        assert [notifier.generation_delay_ns() for _ in range(500)] == [
            sample_generation_delay_ns(reference_rng, p50, tail) for _ in range(500)
        ]


class TestPushPullModel:
    def test_pull_cost_constant(self):
        sim = Simulator()
        driver = ScheduleDriver(sim, TDNSchedule.uniform((0, 1), usec(10), usec(2)))
        notifier = TDNNotifier(sim, driver, NotifierConfig(pull_model=True), SeededRandom(1))
        costs = [notifier.host_processing_delay_ns(i) for i in range(8)]
        assert len(set(costs)) == 1

    def test_push_cost_grows_with_flow_index(self):
        sim = Simulator()
        driver = ScheduleDriver(sim, TDNSchedule.uniform((0, 1), usec(10), usec(2)))
        notifier = TDNNotifier(sim, driver, NotifierConfig(pull_model=False), SeededRandom(1))
        costs = [notifier.host_processing_delay_ns(i) for i in range(8)]
        assert costs == sorted(costs)
        assert costs[-1] > costs[0]

    def test_push_pull_ratio_orders_of_magnitude(self):
        """§5.4: pull reduces total update time by ~3 orders of magnitude."""
        cfg_push = NotifierConfig(pull_model=False)
        cfg_pull = NotifierConfig(pull_model=True)
        sim = Simulator()
        driver = ScheduleDriver(sim, TDNSchedule.uniform((0, 1), usec(10), usec(2)))
        push = TDNNotifier(sim, driver, cfg_push, SeededRandom(1))
        sim2 = Simulator()
        driver2 = ScheduleDriver(sim2, TDNSchedule.uniform((0, 1), usec(10), usec(2)))
        pull = TDNNotifier(sim2, driver2, cfg_pull, SeededRandom(1))
        n_flows = 16
        push_total = sum(push.host_processing_delay_ns(i) for i in range(n_flows))
        pull_total = sum(pull.host_processing_delay_ns(i) for i in range(n_flows))
        assert push_total / pull_total > 500


class TestNotificationDelivery:
    @pytest.mark.parametrize("policy, night_callbacks", [("none", 0), ("slowdown", 1)])
    def test_hand_built_notifier_reads_its_configs_night_policy(self, policy, night_callbacks):
        sim = Simulator()
        driver = ScheduleDriver(sim, TDNSchedule.uniform((0, 1), usec(10), usec(2)))
        TDNNotifier(sim, driver, NotifierConfig(night_policy=policy), SeededRandom(1))
        assert len(driver._night_start_fns) == night_callbacks

    def _run_testbed(self, notifier_cfg, weeks=2):
        cfg = RDCNConfig(
            n_hosts_per_rack=2,
            host_link_rate_bps=gbps(25),
            notifier=notifier_cfg,
        )
        testbed = build_two_rack_testbed(cfg)
        seen = []
        for rack in (0, 1):
            for host in testbed.hosts[rack]:
                host.subscribe_tdn_changes(
                    lambda n, h=host: seen.append((testbed.sim.now, h.address, n.tdn_id))
                )
        testbed.start()
        testbed.sim.run(until=cfg.week_ns * weeks)
        return testbed, seen

    def test_all_hosts_notified_each_day(self):
        testbed, seen = self._run_testbed(NotifierConfig(night_policy="none"))
        # 7 days/week x 2 weeks x 4 hosts.
        assert len(seen) == 7 * 2 * 4

    def test_notification_carries_active_tdn(self):
        testbed, seen = self._run_testbed(NotifierConfig(night_policy="none"))
        tdns = {t for _, _, t in seen}
        assert tdns == {0, 1}

    def test_slowdown_policy_warns_before_slow_day(self):
        testbed, seen = self._run_testbed(NotifierConfig(night_policy="slowdown"))
        cfg = testbed.config
        # The optical->packet transition (night start at 1380 us into
        # the week) must produce an early TDN-0 warning.
        night_start = 6 * (cfg.day_ns + cfg.night_ns) + cfg.day_ns
        warned = [
            t for (t, _h, tdn) in seen
            if tdn == 0 and night_start <= t % cfg.week_ns < night_start + cfg.night_ns
        ]
        assert warned

    def test_slowdown_policy_no_warning_before_fast_day(self):
        testbed, seen = self._run_testbed(NotifierConfig(night_policy="slowdown"))
        cfg = testbed.config
        # The packet->optical night (before day index 6) gets no early
        # TDN-1 announcement.
        night_start = 5 * (cfg.day_ns + cfg.night_ns) + cfg.day_ns
        early = [
            t for (t, _h, tdn) in seen
            if tdn == 1 and night_start <= t % cfg.week_ns < night_start + cfg.night_ns
        ]
        assert early == []

    def test_dedicated_network_latency_fixed(self):
        testbed, _seen = self._run_testbed(NotifierConfig(dedicated_network=True, night_policy="none"))
        samples = testbed.notifier.delivery_latency_samples
        assert samples
        # control delay + generation (sub-3 us) + pull read.
        assert max(samples) < usec(20)

    def test_shared_network_latency_higher_under_load(self):
        dedicated, _ = self._run_testbed(NotifierConfig(dedicated_network=True, night_policy="none"))
        shared, _ = self._run_testbed(NotifierConfig(dedicated_network=False, night_policy="none"))
        ded = dedicated.notifier.delivery_latency_samples
        sha = shared.notifier.delivery_latency_samples
        # Without data traffic the shared path is only slightly slower;
        # it must never be faster on average than the dedicated one.
        assert sum(sha) / len(sha) >= sum(ded) / len(ded) * 0.5


class TestNotificationFanout:
    """The dedicated-network and host-processing legs go through
    ``Simulator.schedule_fanout``: one heap event per rack and leg, and
    nothing any host or listener can observe changes."""

    @staticmethod
    def _idle_events(n_hosts):
        cfg = RDCNConfig(n_hosts_per_rack=n_hosts)
        testbed = build_two_rack_testbed(cfg)
        testbed.start()
        testbed.sim.run(until=cfg.week_ns * 2)
        # 7 day starts + 1 slowdown warning a week, 2 weeks, 2 racks.
        assert len(testbed.notifier.delivery_latency_samples) == 8 * 2 * 2 * n_hosts
        return testbed.sim.processed_events

    def test_idle_events_per_tdn_change_independent_of_rack_size(self):
        assert self._idle_events(2) == self._idle_events(16)

    # Goldens recorded at the commit before the fan-out primitive, when
    # every leg was its own ``sim.schedule`` event.
    def test_default_config_matches_per_host_event_golden(self):
        fingerprint, _calls = notification_fingerprint(NotifierConfig())
        assert fingerprint == {
            "calls": 192,
            "calls_sha": "731e7e31de346c35",
            "latencies": 192,
            "latencies_sha": "0e6e1ae2a1502aa9",
            "latency_sum": 267824,
            "stale": [0, 0, 0, 0, 0, 0, 0, 0],
        }

    def test_unoptimized_config_matches_per_host_event_golden(self):
        # Push model (a different processing delay per host), shared
        # data network (through the downlinks), uncached generation.
        fingerprint, _calls = notification_fingerprint(NotifierConfig.unoptimized())
        assert fingerprint == {
            "calls": 188,
            "calls_sha": "6cdc468b1e2211d0",
            "latencies": 188,
            "latencies_sha": "16c46ae38e5a89f7",
            "latency_sum": 2128559,
            "stale": [0, 0, 0, 0, 0, 0, 0, 0],
        }


class TestRackAnnouncement:
    """On the control network the rack is the unit of an announcement: a
    host is asked whether the notification is fresh without a packet,
    and gets one only if somebody besides the notifier's own recorder
    listens at its processing instant."""

    def test_listeners_are_read_at_the_processing_instant(self):
        # Push model: host i of a rack processes i + 1 per-flow costs
        # after the rack's arrival instant, so host 0's listener runs
        # inside the window in which hosts 2 and 3 have accepted the
        # notification and not yet processed it.
        notifier = NotifierConfig(pull_model=False)
        cfg = RDCNConfig(n_hosts_per_rack=4, notifier=notifier)
        testbed = build_two_rack_testbed(cfg)
        sim = testbed.sim
        h0, _h1, h2, h3 = testbed.hosts[0]
        late, gone, first = [], [], []

        def leaving(n):
            gone.append((sim.now, n.notify_seq))

        def in_the_window(n):
            if not first:
                first.append((sim.now, n.notify_seq, n.tdn_id, n.generated_ns))
                h3.subscribe_tdn_changes(
                    lambda n: late.append((sim.now, n.notify_seq, n.tdn_id, n.generated_ns))
                )
                h2.unsubscribe_tdn_changes(leaving)

        h0.subscribe_tdn_changes(in_the_window)
        h2.subscribe_tdn_changes(leaving)
        testbed.start()
        sim.run(until=cfg.week_ns)
        cost = notifier.push_per_flow_cost_ns
        (t0, seq0, tdn, generated) = first[0]
        # Host 3 had nobody but the recorder at arrival; its listener
        # still sees this very notification, three costs after host 0.
        assert late[0] == (t0 + 3 * cost, seq0 + 3, tdn, generated)
        # Host 2's listener left before its processing instant.
        assert gone == []
        assert len(late) == 8  # and every later announcement of the week

    @staticmethod
    def _counted_run(monkeypatch, with_flow):
        """Four weeks of a 2 x 16-host fabric; returns the testbed, the
        destinations of every ``TDNNotification`` the notifier built and
        how many ``Host.deliver`` calls carried one."""
        import repro.rdcn.notifier as notifier_module
        from repro.core.tdtcp import TDTCPConnection
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
        cfg = RDCNConfig(n_hosts_per_rack=16)
        testbed = build_two_rack_testbed(cfg)
        if with_flow:
            bulk_pair(
                testbed.sim, testbed.hosts[0][0], testbed.hosts[1][0],
                connection_cls=TDTCPConnection, tdn_count=cfg.n_tdns,
            )
        testbed.start()
        testbed.sim.run(until=cfg.week_ns * 4)
        return testbed, built, delivered

    def test_a_host_nobody_listens_on_costs_no_packet(self, monkeypatch):
        testbed, built, delivered = self._counted_run(monkeypatch, with_flow=False)
        assert built == [] and delivered == []
        # 7 day starts + 1 slowdown warning a week, 4 weeks, 2 racks.
        assert len(testbed.notifier.delivery_latency_samples) == 8 * 4 * 2 * 16
        assert testbed.notifier.notifications_sent == 8 * 4 * 2 * 16
        hosts = testbed.hosts[0] + testbed.hosts[1]
        assert {host.rx_packets for host in hosts} == {32}
        assert {host.stale_notifications for host in hosts} == {0}
        # The count of the commit before, which built 1,024 packets.
        assert testbed.sim.processed_events == 247

    def test_packets_are_built_for_listening_hosts_only(self, monkeypatch):
        testbed, built, delivered = self._counted_run(monkeypatch, with_flow=True)
        assert sorted(set(built)) == ["r0h0", "r1h0"]
        assert len(built) == 2 * 8 * 4
        assert delivered == []
        assert len(testbed.notifier.delivery_latency_samples) == 8 * 4 * 2 * 16
        # 49,919 before the receiver stopped ticking a pace grid it never
        # sends on after every switch.
        assert testbed.sim.processed_events == 49_848


class TestEventFreeAnnouncement:
    """A run whose connection class never listens to TDN changes
    announces without events: the same outcome, samples and host
    ingress as the per-host path, in fewer events."""

    def test_listening_is_declared_by_the_connection_class(self):
        listening = {name for name, spec in VARIANTS.items() if spec.listens_to_tdn_changes()}
        assert listening == {"mptcp", "tdtcp", "tdtcp-unopt"}

    @pytest.mark.parametrize("case", ["engine", "bulk"])
    def test_equals_the_per_host_path(self, case, monkeypatch):
        if case == "engine":
            config = ExperimentConfig(
                variant="cubic", weeks=3, warmup_weeks=1, seed=1,
                workload=WorkloadConfig(kind="empirical", load=0.4, max_flows=200),
            )
        else:
            # Push model: host i processes i + 1 per-flow costs after its
            # rack's arrival, so the slowdown warning 20 us before the
            # horizon has arrived everywhere and is processed by only
            # some hosts when the run ends.
            config = ExperimentConfig(
                variant="cubic", n_flows=2, weeks=3, warmup_weeks=1, seed=1,
                rdcn=RDCNConfig(n_hosts_per_rack=16, notifier=NotifierConfig(pull_model=False)),
            )
        result, testbed = run_keeping_testbed(config, monkeypatch)
        reference, per_host = run_keeping_testbed(config, monkeypatch, per_host=True)
        assert testbed.notifier.event_free and not per_host.notifier.event_free
        assert result.outcome_digest() == reference.outcome_digest()
        fingerprint = notifier_fingerprint(testbed)
        assert fingerprint == notifier_fingerprint(per_host)
        assert testbed.notifier.notifications_sent == per_host.notifier.notifications_sent
        assert testbed.sim.processed_events < per_host.sim.processed_events
        if case == "bulk":
            # The horizon cut between arrivals and their processing.
            assert sum(fingerprint["rx_packets"]) > fingerprint["latencies"]

    def test_a_listener_is_refused_while_no_event_would_call_it(self):
        testbed = build_two_rack_testbed(RDCNConfig(n_hosts_per_rack=2))
        host = testbed.hosts[0][0]
        testbed.notifier.announce_without_events(testbed.config.week_ns)
        with pytest.raises(RuntimeError, match="listens_to_tdn_changes"):
            host.subscribe_tdn_changes(lambda notification: None)
        # An armed fault hook puts every announcement on the per-host
        # path, where listeners are called.
        testbed.notifier.fault_hook = lambda host, notification: [0]
        host.subscribe_tdn_changes(lambda notification: None)
        # A host that already has a listener cannot be armed.
        with pytest.raises(RuntimeError, match="listener"):
            testbed.notifier.announce_without_events(testbed.config.week_ns)
