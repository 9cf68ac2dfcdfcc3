"""Notifier: day/night announcements and the §5.4 cost model."""

import pytest

from repro.metrics.cdf import quantile
from repro.rdcn.config import NotifierConfig, RDCNConfig
from repro.rdcn.notifier import TDNNotifier, sample_generation_delay_ns
from repro.rdcn.schedule import ScheduleDriver, TDNSchedule
from repro.rdcn.topology import build_two_rack_testbed
from repro.sim import SeededRandom, Simulator
from repro.units import gbps, usec

from tests.helpers import notification_fingerprint


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
