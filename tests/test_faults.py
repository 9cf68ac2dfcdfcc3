"""Fault-injection subsystem: plans, injectors, graceful degradation,
invariant auditing, watchdog, and crash capture."""

import json
import pathlib
import re

import pytest

from repro.core.tdtcp import TDTCPConnection
from repro.experiments import ExperimentConfig, run_experiment
from repro.experiments.cli import main as cli_main
from repro.experiments.executor import ExperimentExecutor
from repro.experiments.runner import ExperimentResult
from repro.faults import (
    FaultInjector,
    FaultPlan,
    FaultPlanError,
    FaultSpec,
    InvariantAuditor,
    InvariantViolation,
    WatchdogExceeded,
    run_with_watchdog,
    write_repro_bundle,
)
from repro.net.packet import MAX_TDN_ID, TDNNotification
from repro.net.queues import DropTailQueue
from repro.obs.telemetry import ObsConfig, Telemetry
from repro.sim.rng import SeededRandom
from repro.sim.simulator import Simulator
from repro.tcp.connection import CLOSED, TCPConnection
from repro.tcp.sockets import create_connection_pair
from repro.units import msec, usec

from repro.rdcn.config import NotifierConfig
from repro.rdcn.notifier import PULL_READ_COST_NS

from tests.helpers import assert_invariants, bulk_pair, notification_fingerprint, small_rdcn, two_hosts


def plan_of(*specs) -> FaultPlan:
    return FaultPlan(specs=[FaultSpec(**spec) for spec in specs], name="test")


def mini_config(seed=3, **kwargs) -> ExperimentConfig:
    return ExperimentConfig(
        variant="tdtcp",
        rdcn=small_rdcn(n_hosts=2, seed=seed),
        n_flows=2,
        weeks=6,
        warmup_weeks=1,
        seed=seed,
        collect_voq=False,
        **kwargs,
    )


class TestFaultPlan:
    def test_json_round_trip(self):
        plan = plan_of(
            {"kind": "link_flap", "target": "r0h0-up", "at_ns": 1000,
             "period_ns": 5000, "count": 3, "params": {"down_ns": 200}},
            {"kind": "notifier_drop", "params": {"rate": 0.5}},
            {"kind": "queue_squeeze", "target": "voq-*", "at_ns": 10,
             "until_ns": 20, "params": {"capacity": 4}},
        )
        assert FaultPlan.from_json(json.dumps(plan.to_dict())) == plan

    def test_save_load(self, tmp_path):
        plan = plan_of({"kind": "packet_loss", "params": {"rate": 0.1}})
        path = tmp_path / "p.json"
        path.write_text(json.dumps(plan.to_dict(), indent=2))
        assert FaultPlan.load(path) == plan
        # The file is plain JSON a human can edit.
        assert json.loads(pathlib.Path(path).read_text())["specs"][0]["kind"] == "packet_loss"

    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown fault kind"):
            FaultSpec(kind="cosmic_rays")

    def test_bad_window_rejected(self):
        with pytest.raises(FaultPlanError, match="until_ns"):
            FaultSpec(kind="link_flap", at_ns=100, until_ns=100)

    def test_repetition_needs_period(self):
        with pytest.raises(FaultPlanError, match="period_ns"):
            FaultSpec(kind="link_flap", count=2)

    def test_unknown_param_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown params"):
            FaultSpec(kind="packet_loss", params={"probability": 0.1})

    def test_rate_range_checked(self):
        with pytest.raises(FaultPlanError, match="rate"):
            FaultSpec(kind="packet_loss", params={"rate": 1.5})

    def test_unknown_spec_field_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown fault spec fields"):
            FaultSpec.from_dict({"kind": "packet_loss", "when": 5})

    def test_shipped_plans_parse(self):
        for name in ("day_one_storm", "lossy_fabric", "control_plane_chaos"):
            plan = FaultPlan.load(f"examples/fault_plans/{name}.json")
            assert len(plan) >= 3


class TestNetInjectors:
    def run_with_plan(self, plan, duration_ms=20, seed=11):
        sim, a, b, ab, ba = two_hosts()
        injector = FaultInjector(sim, plan, SeededRandom(seed))
        injector.arm(links={"ab": ab, "ba": ba})
        client, server = bulk_pair(sim, a, b)
        sim.run(until=msec(duration_ms))
        return sim, client, server, injector, ab

    def test_link_flap_drops_then_recovers(self):
        plan = plan_of({"kind": "link_flap", "target": "ab", "at_ns": msec(2),
                        "params": {"down_ns": usec(500)}})
        sim, client, server, injector, ab = self.run_with_plan(plan)
        assert ab.fault_drops > 0
        assert injector.effects["link_flap"] >= 2  # down + up markers
        # The connection survives the outage and keeps delivering after.
        assert server.stats.bytes_delivered > 500_000
        assert_invariants(client)

    def test_total_loss_window_then_progress(self):
        plan = plan_of({"kind": "packet_loss", "target": "ab", "at_ns": 0,
                        "until_ns": msec(2), "params": {"rate": 1.0}})
        sim, client, server, injector, _ab = self.run_with_plan(plan)
        assert injector.effects["packet_loss"] > 0
        assert server.stats.bytes_delivered > 0  # recovered after the window
        assert_invariants(client)

    def test_burst_loss_and_jitter_survivable(self):
        plan = plan_of(
            {"kind": "burst_loss", "target": "*",
             "params": {"p_enter": 0.02, "p_exit": 0.3, "loss_bad": 0.5}},
            {"kind": "delay_jitter", "target": "*",
             "params": {"rate": 0.05, "max_jitter_ns": usec(30)}},
        )
        sim, client, server, injector, _ab = self.run_with_plan(plan)
        assert injector.effects.get("burst_loss", 0) + injector.effects.get("delay_jitter", 0) > 0
        assert server.stats.bytes_delivered > 0
        assert_invariants(client)
        assert_invariants(server)

    def test_queue_squeeze_restores_capacity(self):
        sim = Simulator()
        queue = DropTailQueue(capacity=64, name="voq-test")
        plan = plan_of({"kind": "queue_squeeze", "target": "voq-*",
                        "at_ns": 1000, "until_ns": 2000, "params": {"capacity": 4}})
        FaultInjector(sim, plan, SeededRandom(1)).arm(queues={"voq-test": queue})
        sim.run(until=1500)
        assert queue.capacity == 4
        sim.run(until=3000)
        assert queue.capacity == 64

    def test_unmatched_target_reported(self):
        sim = Simulator()
        plan = plan_of({"kind": "packet_loss", "target": "nope-*",
                        "params": {"rate": 0.5}})
        injector = FaultInjector(sim, plan, SeededRandom(1)).arm(links={})
        assert any("matched nothing" in note for note in injector.unmatched)

    def test_arming_twice_rejected(self):
        sim = Simulator()
        injector = FaultInjector(sim, plan_of(), SeededRandom(1)).arm()
        with pytest.raises(RuntimeError):
            injector.arm()


class TestArmTestbedOnTheRotorFabric:
    """``arm_testbed`` arms the fabric it is handed: at the parent it
    read ``testbed.uplinks`` / ``.notifier`` / ``.driver`` and raised
    ``AttributeError`` on an ``OperaTestbed``."""

    @staticmethod
    def chaos_run(seed=1):
        from repro.core.tdtcp import TDTCPConnection
        from repro.rdcn.opera import OperaConfig, build_opera_testbed

        cfg = OperaConfig(n_racks=4, seed=seed)
        testbed = build_opera_testbed(cfg)
        plan = FaultPlan.load("examples/fault_plans/control_plane_chaos.json")
        injector = FaultInjector(testbed.sim, plan, testbed.rng).arm_testbed(testbed)
        client, server = bulk_pair(
            testbed.sim, testbed.host(0, 0), testbed.host(1, 0),
            connection_cls=TDTCPConnection, tdn_count=cfg.n_slots,
        )
        testbed.start()
        testbed.sim.run(until=cfg.cycle_ns * 30)
        stale = sum(h.stale_notifications for rack in testbed.hosts.values() for h in rack)
        return injector.report(), stale, client.tdn_state.switches, server.stats.bytes_delivered

    def test_control_plane_chaos_reaches_the_rotor_fabric(self):
        report, stale, switches, delivered = self.chaos_run()
        effects = report["effects"]
        for kind in ("notifier_delay", "notifier_duplicate", "app_pause", "rcv_buffer_pressure"):
            assert effects[kind] > 0, kind
        # Every duplicate shares its original's notify_seq and arrives
        # later: the hosts' freshness filter rejects exactly those.
        assert stale == effects["notifier_duplicate"]
        assert switches > 50 and delivered > 1_000_000
        # There is no RackUplink to stall on this fabric, and it says so.
        assert report["unmatched"] == ["rotor_stall: target 'uplink-*' matched nothing"]
        assert self.chaos_run() == (report, stale, switches, delivered)

    def test_links_queues_and_the_slot_clock_are_armed(self):
        from repro.rdcn.opera import OperaConfig, build_opera_testbed

        cfg = OperaConfig(n_racks=4)
        testbed = build_opera_testbed(cfg)
        plan = plan_of(
            {"kind": "queue_squeeze", "target": "opera-tor0-voq*", "at_ns": usec(100),
             "until_ns": usec(300), "params": {"capacity": 4}},
            {"kind": "packet_loss", "target": "r0h0-up", "params": {"rate": 0.05}},
            {"kind": "link_flap", "target": "r1h0-down", "at_ns": usec(500),
             "params": {"down_ns": usec(100)}},
            {"kind": "schedule_skew", "params": {"max_skew_ns": usec(5)}},
        )
        injector = FaultInjector(testbed.sim, plan, testbed.rng).arm_testbed(testbed)
        _client, server = bulk_pair(testbed.sim, testbed.host(0, 0), testbed.host(1, 0))
        testbed.start()
        testbed.sim.run(until=usec(200))
        voqs = testbed.tors[0].voqs
        assert {voq.capacity for voq in voqs.values()} == {4}
        testbed.sim.run(until=cfg.cycle_ns * 10)
        assert {voq.capacity for voq in voqs.values()} == {cfg.voq_capacity}
        assert injector.unmatched == []
        for kind in ("queue_squeeze", "packet_loss", "link_flap", "schedule_skew"):
            assert injector.effects[kind] > 0, kind
        assert server.stats.bytes_delivered > 0


class TestStaleNotificationHandling:
    """Satellite regression tests: stale/duplicate/unknown TDN signals
    are ignored-and-counted, never applied and never raised."""

    def notify(self, tdn_id, seq):
        notification = TDNNotification("tor", "r0h0", tdn_id)
        notification.notify_seq = seq
        return notification

    def test_host_rejects_stale_seq(self):
        sim, a, _b, _ab, _ba = two_hosts()
        seen = []
        a.subscribe_tdn_changes(lambda n: seen.append(n.tdn_id))
        a.deliver(self.notify(1, seq=5))
        a.deliver(self.notify(0, seq=3))  # stale: lower seq
        a.deliver(self.notify(1, seq=5))  # duplicate: same seq
        assert seen == [1]
        assert a.stale_notifications == 2

    def test_host_rejects_unknown_tdn_id(self):
        sim, a, _b, _ab, _ba = two_hosts()
        a.max_tdn_id = MAX_TDN_ID
        seen = []
        a.subscribe_tdn_changes(lambda n: seen.append(n.tdn_id))
        a.deliver(self.notify(MAX_TDN_ID + 1, seq=1))
        a.deliver(self.notify(-2, seq=2))
        assert seen == []
        assert a.stale_notifications == 2

    def test_unsequenced_notifications_still_accepted(self):
        # Hand-built notifications (tests, runtime schedule changes)
        # carry no notify_seq and must keep working.
        sim, a, _b, _ab, _ba = two_hosts()
        seen = []
        a.subscribe_tdn_changes(lambda n: seen.append(n.tdn_id))
        a.deliver(TDNNotification("tor", a.address, 1))
        a.deliver(TDNNotification("tor", a.address, 0))
        assert seen == [1, 0]
        assert a.stale_notifications == 0

    def test_connection_rejects_stale_and_unknown(self):
        from repro.core.tdtcp import TDTCPConnection

        sim, a, b, _ab, _ba = two_hosts()
        client, _server = bulk_pair(
            sim, a, b, connection_cls=TDTCPConnection, tdn_count=2
        )
        sim.run(until=msec(1))
        client._on_tdn_notification(self.notify(1, seq=7))
        assert client.tdn_state.current_index == 1
        client._on_tdn_notification(self.notify(0, seq=6))  # stale
        assert client.tdn_state.current_index == 1
        client._on_tdn_notification(self.notify(MAX_TDN_ID + 1, seq=8))
        assert client.tdn_state.current_index == 1
        assert client.stale_notifications == 2

    def test_stale_counter_reaches_metrics(self):
        sim = Simulator()
        telemetry = Telemetry(ObsConfig()).attach(sim)
        telemetry.enable_metrics_bridge()
        sim2, a, _b, _ab, _ba = two_hosts(sim=sim)
        a.deliver(self.notify(1, seq=5))
        a.deliver(self.notify(0, seq=3))
        family = telemetry.metrics.snapshot()["tdn_notification_stale"]
        assert family["labelnames"] == ["where", "reason"]
        assert family["series"] == [{"labels": ["host", "stale_seq"], "value": 1}]


class TestNotificationFanoutUnderFaults:
    """Goldens recorded at the commit before ``schedule_fanout``, when
    every notification leg was its own event: faults that give hosts
    different delivery times, and a host gate holding a batch's leg,
    must leave every listener call and latency sample where it was."""

    def test_delay_duplicate_drop_storm_matches_golden(self):
        storm = plan_of(
            {"kind": "notifier_delay", "params": {"rate": 0.5, "max_delay_ns": usec(30)}},
            {"kind": "notifier_duplicate", "params": {"rate": 0.3, "dup_delay_ns": usec(5)}},
            {"kind": "notifier_drop", "params": {"rate": 0.2}},
        )
        fingerprint, _calls = notification_fingerprint(NotifierConfig(), plan=storm)
        assert fingerprint == {
            "calls": 156,
            "calls_sha": "fa592947ab04f3c9",
            "latencies": 156,
            "latencies_sha": "b6923f9551a0824b",
            "latency_sum": 1320263,
            "stale": [5, 6, 8, 5, 3, 8, 3, 5],
        }

    def test_app_pause_holds_an_in_flight_leg_and_releases_in_arrival_order(self):
        # Undisturbed, r0h1's notification generated at 200000 leaves
        # the ToR at 200244 and arrives at 201244: the pause begins
        # while its batch is in flight and outlasts the next TDN change.
        at_ns, until_ns = 200_800, 405_000
        pause = plan_of(
            {"kind": "app_pause", "target": "r0h1", "at_ns": at_ns, "until_ns": until_ns}
        )
        fingerprint, calls = notification_fingerprint(NotifierConfig(), plan=pause)
        paused = [call for call in calls if call[1] == "r0h1"]
        released = [call for call in paused if at_ns <= call[0] <= until_ns + usec(1)]
        pull_read_ns = PULL_READ_COST_NS
        assert [(t, seq, generated) for t, _h, _tdn, seq, generated in released] == [
            (until_ns + pull_read_ns, 9, 200_000),
            (until_ns + pull_read_ns, 21, 400_000),
        ]
        others = [call for call in calls if call[1] == "r0h2" and at_ns <= call[0] <= until_ns]
        assert [call[0] for call in others] == [201_246, 402_288]
        assert fingerprint == {
            "calls": 192,
            "calls_sha": "19970a4f630b296b",
            "latencies": 192,
            "latencies_sha": "8538923ad05af13b",
            "latency_sum": 474294,
            "stale": [0, 0, 0, 0, 0, 0, 0, 0],
        }


class TestPlainHostNotificationGoldens:
    """Hosts nobody but the notifier listens on, which the goldens above
    never have (their helper subscribes on every host). Recorded at the
    commit before the rack became the unit of an announcement, when
    every host of every rack was sent its own packet: per listening
    set, notifier config and fault plan, the recording listeners' calls,
    the latency samples, and per host the stale count, ``rx_packets``
    and the last accepted ``notify_seq``."""

    LISTEN_ON = {"nobody": (), "r0h0+r0h2": ("r0h0", "r0h2")}
    CONFIGS = {
        "default": NotifierConfig(),
        # Control network + push: one processing delay per host.
        "push": NotifierConfig(pull_model=False),
        "unoptimized": NotifierConfig().unoptimized(),
    }
    PLANS = {
        "none": lambda: None,
        "pause": lambda: plan_of(
            {"kind": "app_pause", "target": "r0h1", "at_ns": 200_800, "until_ns": 405_000}
        ),
        "storm": lambda: plan_of(
            {"kind": "notifier_delay", "params": {"rate": 0.5, "max_delay_ns": usec(30)}},
            {"kind": "notifier_duplicate", "params": {"rate": 0.3, "dup_delay_ns": usec(5)}},
            {"kind": "notifier_drop", "params": {"rate": 0.2}},
        ),
    }
    # (calls, calls_sha, latencies, latency_sum, latencies_sha,
    #  stale, rx_packets, last_seq)
    GOLDENS = {
        ("nobody", "default", "none"): (0, "4f53cda18c2baa0c", 192, 267824, "0e6e1ae2a1502aa9",
            [0, 0, 0, 0, 0, 0, 0, 0],
            [24, 24, 24, 24, 24, 24, 24, 24],
            [184, 185, 186, 187, 188, 189, 190, 191]),
        ("nobody", "default", "pause"): (0, "4f53cda18c2baa0c", 192, 474294, "8538923ad05af13b",
            [0, 0, 0, 0, 0, 0, 0, 0],
            [24, 24, 24, 24, 24, 24, 24, 24],
            [184, 185, 186, 187, 188, 189, 190, 191]),
        ("nobody", "default", "storm"): (0, "4f53cda18c2baa0c", 156, 1320263, "b6923f9551a0824b",
            [5, 6, 8, 5, 3, 8, 3, 5],
            [24, 25, 27, 24, 20, 31, 23, 25],
            [184, 185, 186, 187, 180, 189, 190, 191]),
        ("nobody", "push", "none"): (0, "4f53cda18c2baa0c", 192, 1227440, "a1bdc61739285115",
            [0, 0, 0, 0, 0, 0, 0, 0],
            [24, 24, 24, 24, 24, 24, 24, 24],
            [184, 185, 186, 187, 188, 189, 190, 191]),
        ("nobody", "push", "pause"): (0, "4f53cda18c2baa0c", 192, 1433910, "b0cac41557ada8f2",
            [0, 0, 0, 0, 0, 0, 0, 0],
            [24, 24, 24, 24, 24, 24, 24, 24],
            [184, 185, 186, 187, 188, 189, 190, 191]),
        ("nobody", "push", "storm"): (0, "4f53cda18c2baa0c", 156, 2105951, "34d84a9abc321007",
            [5, 6, 8, 5, 3, 8, 3, 5],
            [24, 25, 27, 24, 20, 31, 23, 25],
            [184, 185, 186, 187, 180, 189, 190, 191]),
        ("nobody", "unoptimized", "none"): (0, "4f53cda18c2baa0c", 192, 1570316, "522e0d37478bb118",
            [0, 0, 0, 0, 0, 0, 0, 0],
            [24, 24, 24, 24, 24, 24, 24, 24],
            [184, 185, 186, 187, 188, 189, 190, 191]),
        ("nobody", "unoptimized", "pause"): (0, "4f53cda18c2baa0c", 192, 1772571, "6e044e46b0fbd65b",
            [0, 0, 0, 0, 0, 0, 0, 0],
            [24, 24, 24, 24, 24, 24, 24, 24],
            [184, 185, 186, 187, 188, 189, 190, 191]),
        ("nobody", "unoptimized", "storm"): (0, "4f53cda18c2baa0c", 156, 2385399, "e7506847404af541",
            [5, 7, 8, 5, 3, 7, 3, 5],
            [24, 26, 27, 25, 20, 30, 23, 24],
            [184, 185, 186, 187, 180, 189, 190, 191]),
        ("r0h0+r0h2", "default", "none"): (48, "821232c71ca6f642", 192, 267824, "0e6e1ae2a1502aa9",
            [0, 0, 0, 0, 0, 0, 0, 0],
            [1079, 24, 1076, 24, 1101, 24, 1098, 24],
            [184, 185, 186, 187, 188, 189, 190, 191]),
        ("r0h0+r0h2", "default", "pause"): (48, "821232c71ca6f642", 192, 474294, "8538923ad05af13b",
            [0, 0, 0, 0, 0, 0, 0, 0],
            [1079, 24, 1076, 24, 1101, 24, 1098, 24],
            [184, 185, 186, 187, 188, 189, 190, 191]),
        ("r0h0+r0h2", "default", "storm"): (38, "6fa7fadf9d036775", 156, 1320263, "b6923f9551a0824b",
            [5, 6, 8, 5, 3, 8, 3, 5],
            [1087, 25, 1071, 24, 1105, 31, 1089, 25],
            [184, 185, 186, 187, 180, 189, 190, 191]),
        ("r0h0+r0h2", "push", "none"): (48, "12b0aae0f3dd5b06", 192, 1227440, "a1bdc61739285115",
            [0, 0, 0, 0, 0, 0, 0, 0],
            [1075, 24, 1078, 24, 1097, 24, 1100, 24],
            [184, 185, 186, 187, 188, 189, 190, 191]),
        ("r0h0+r0h2", "push", "pause"): (48, "12b0aae0f3dd5b06", 192, 1433910, "b0cac41557ada8f2",
            [0, 0, 0, 0, 0, 0, 0, 0],
            [1075, 24, 1078, 24, 1097, 24, 1100, 24],
            [184, 185, 186, 187, 188, 189, 190, 191]),
        ("r0h0+r0h2", "push", "storm"): (38, "626a229cf28dffa4", 156, 2105951, "34d84a9abc321007",
            [5, 6, 8, 5, 3, 8, 3, 5],
            [1082, 25, 1074, 24, 1100, 31, 1092, 25],
            [184, 185, 186, 187, 180, 189, 190, 191]),
        ("r0h0+r0h2", "unoptimized", "none"): (46, "f43f03073641f3fd", 188, 1721659, "4cb6fb7b5894486b",
            [0, 0, 0, 0, 0, 0, 0, 0],
            [1075, 24, 1073, 24, 1097, 24, 1095, 24],
            [176, 185, 178, 187, 180, 189, 182, 191]),
        ("r0h0+r0h2", "unoptimized", "pause"): (46, "f43f03073641f3fd", 188, 1923391, "8b12b0436518e2dd",
            [0, 0, 0, 0, 0, 0, 0, 0],
            [1075, 24, 1073, 24, 1097, 24, 1095, 24],
            [176, 185, 178, 187, 180, 189, 182, 191]),
        ("r0h0+r0h2", "unoptimized", "storm"): (36, "0f57fc793cf2c56a", 153, 2484460, "fd7b6e0d46714480",
            [5, 7, 7, 5, 3, 7, 3, 5],
            [1074, 26, 1076, 25, 1093, 30, 1096, 24],
            [176, 185, 178, 187, 180, 189, 190, 191]),
    }

    @pytest.mark.parametrize(
        "listen,config,plan", list(GOLDENS), ids=["/".join(key) for key in GOLDENS]
    )
    def test_matches_per_host_packet_golden(self, listen, config, plan):
        fingerprint, _calls = notification_fingerprint(
            self.CONFIGS[config], plan=self.PLANS[plan](), listen_on=self.LISTEN_ON[listen]
        )
        keys = ("calls", "calls_sha", "latencies", "latency_sum", "latencies_sha",
                "stale", "rx_packets", "last_seq")
        assert fingerprint == dict(zip(keys, self.GOLDENS[listen, config, plan]))


class TestInvariantAuditor:
    def watched_pair(self, mode="warn"):
        sim, a, b, _ab, _ba = two_hosts()
        client, server = bulk_pair(sim, a, b)
        auditor = InvariantAuditor(sim, mode=mode)
        auditor.interval_ns = usec(100)
        auditor.watch_endpoint(client)
        auditor.watch_endpoint(server)
        return sim, client, auditor

    def test_clean_run(self):
        sim, client, auditor = self.watched_pair()
        auditor.start()
        sim.run(until=msec(10))
        auditor.audit()
        assert not auditor.violations
        assert auditor.checks_run > 50

    def test_warn_mode_records_corrupted_accounting(self):
        sim, client, auditor = self.watched_pair(mode="warn")
        sim.run(until=msec(2))
        client.paths[0].packets_out += 5  # corrupt the fast-path counter
        violations = auditor.audit()
        assert any(v["check"] == "pipe_accounting" for v in violations)
        assert auditor.violations

    def test_fail_mode_raises(self):
        sim, client, auditor = self.watched_pair(mode="fail")
        sim.run(until=msec(2))
        client.paths[0].cc.cwnd = 0
        with pytest.raises(InvariantViolation, match="cwnd_floor"):
            auditor.audit()
        # One recount: the asserting reading finds what the auditor finds.
        with pytest.raises(AssertionError, match="cwnd_floor"):
            assert_invariants(client)

    def test_sequence_order_checked(self):
        sim, client, auditor = self.watched_pair()
        sim.run(until=msec(2))
        client.snd_una = client.snd_nxt + 10
        violations = auditor.audit()
        assert any(v["check"] == "sequence_order" for v in violations)

    @pytest.mark.parametrize("connection_cls,timer,finish", [
        (TCPConnection, "delack_timer", "fin"),
        (TDTCPConnection, "_pace_timer", "release"),
    ])
    def test_a_timer_armed_on_a_finished_connection(self, connection_cls, timer, finish):
        sim, a, b, _ab, _ba = two_hosts()
        client, _server = create_connection_pair(sim, a, b, connection_cls=connection_cls)
        client.write(15_000)
        client.close()
        sim.run(until=usec(60) if finish == "release" else msec(1))
        if finish == "release":
            client.release()
        else:
            assert client.state == CLOSED
        auditor = InvariantAuditor(sim)
        auditor.watch_endpoint(client)
        assert auditor.audit() == []
        getattr(client, timer).start(usec(10))  # nothing may wake it now
        assert [v["check"] for v in auditor.audit()] == ["finished_timer"]
        with pytest.raises(AssertionError, match="finished_timer"):
            assert_invariants(client)

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            InvariantAuditor(Simulator(), mode="panic")


class TestWatchdog:
    def spinning_sim(self):
        sim = Simulator()

        def spin():
            sim.schedule(10, spin)

        sim.schedule(10, spin)
        return sim

    def test_event_budget_aborts(self):
        sim = self.spinning_sim()
        with pytest.raises(WatchdogExceeded, match="event budget"):
            run_with_watchdog(sim, max_events=500)

    def test_wall_budget_aborts(self):
        sim = self.spinning_sim()
        with pytest.raises(WatchdogExceeded, match="wall-clock"):
            run_with_watchdog(sim, max_wall_s=0.0)

    def test_completes_under_budget(self):
        sim = Simulator()
        ticks = []
        for t in range(10):
            sim.at(t * 100, ticks.append, t)
        processed = run_with_watchdog(sim, until=10_000, max_events=10_000)
        assert processed >= 10
        assert len(ticks) == 10
        assert sim.now == 10_000  # drained runs still advance to the horizon

    def test_no_budgets_is_plain_run(self):
        sim = Simulator()
        sim.at(50, lambda: None)
        assert run_with_watchdog(sim, until=100) == 1


class TestCrashCapture:
    def test_bundle_contents(self, tmp_path):
        plan = plan_of({"kind": "notifier_drop", "params": {"rate": 0.5}})
        try:
            raise RuntimeError("boom")
        except RuntimeError as error:
            path = write_repro_bundle(
                tmp_path, config=mini_config(), error=error,
                fault_plan=plan, seed=3, label="tdtcp",
            )
        bundle = pathlib.Path(path)
        assert bundle.name == "bundle_tdtcp_seed3"
        manifest = json.loads((bundle / "MANIFEST.json").read_text())
        assert manifest["error_type"] == "RuntimeError"
        assert manifest["replay"].endswith(f"cli rerun {bundle}")
        assert FaultPlan.load(bundle / "fault_plan.json") == plan
        assert json.loads((bundle / "config.json").read_text())["seed"] == 3
        assert "boom" in (bundle / "error.txt").read_text()

    def test_collision_gets_fresh_directory(self, tmp_path):
        first = write_repro_bundle(tmp_path, seed=1, label="x")
        second = write_repro_bundle(tmp_path, seed=1, label="x")
        assert first != second and pathlib.Path(second).exists()


class TestRunnerIntegration:
    def test_faulted_run_returns_reports(self, tmp_path):
        plan = plan_of(
            {"kind": "notifier_drop", "params": {"rate": 0.5}},
            {"kind": "schedule_skew", "params": {"max_skew_ns": 5000}},
        )
        config = mini_config(fault_plan=plan, audit="fail",
                             bundle_dir=str(tmp_path))
        result = run_experiment(config)
        assert result.ok
        assert result.fault_report["total_effects"] > 0
        assert result.audit_report["violation_count"] == 0
        assert result.aggregate_delivered > 0
        assert not list(tmp_path.iterdir())  # no bundle on success

    def test_watchdog_failure_becomes_structured_result(self, tmp_path):
        plan = plan_of({"kind": "notifier_drop", "params": {"rate": 0.5}})
        config = mini_config(fault_plan=plan, audit="warn",
                             watchdog_max_events=300,
                             bundle_dir=str(tmp_path))
        result = run_experiment(config)
        assert not result.ok
        assert result.failure.error_type == "WatchdogExceeded"
        assert result.failure.seed == config.seed
        bundle = pathlib.Path(result.failure.bundle_path)
        assert bundle.is_dir()
        assert FaultPlan.load(bundle / "fault_plan.json") == plan
        assert "WatchdogExceeded" in result.failure.render()

    def test_zero_rate_plan_is_behavior_neutral(self):
        """Arming faults must not perturb the workload: a plan whose
        every stochastic knob is zero reproduces the fault-free run."""
        baseline = run_experiment(mini_config())
        nulls = plan_of(
            {"kind": "packet_loss", "params": {"rate": 0.0}},
            {"kind": "delay_jitter", "params": {"rate": 0.0}},
            {"kind": "notifier_drop", "params": {"rate": 0.0}},
            {"kind": "notifier_duplicate", "params": {"rate": 0.0}},
            {"kind": "schedule_skew", "params": {"max_skew_ns": 0}},
        )
        faulted = run_experiment(mini_config(fault_plan=nulls))
        assert faulted.aggregate_delivered == baseline.aggregate_delivered
        assert faulted.flow_delivered == baseline.flow_delivered
        assert faulted.retransmissions == baseline.retransmissions
        assert faulted.fault_report["total_effects"] == 0


class TestChaosCLI:
    def test_clean_chaos_run_exits_zero(self, tmp_path, capsys):
        code = cli_main([
            "chaos", "--weeks", "6", "--warmup", "1", "--flows", "2",
            "--fault-plan", "examples/fault_plans/day_one_storm.json",
            "--audit", "fail", "--bundle-dir", str(tmp_path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 violations" in out
        assert "delivered:" in out

    def test_failed_run_exits_nonzero_with_bundle_path(self, tmp_path, capsys):
        code = cli_main([
            "chaos", "--weeks", "6", "--warmup", "1", "--flows", "2",
            "--fault-plan", "examples/fault_plans/day_one_storm.json",
            "--watchdog-events", "300", "--bundle-dir", str(tmp_path),
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert "run FAILED: WatchdogExceeded" in captured.err
        assert "repro bundle:" in captured.err
        assert any(tmp_path.iterdir())

    def test_a_bundle_reruns_its_own_failure(self, tmp_path, capsys):
        def failed_line(argv):
            assert cli_main(argv) == 1
            [line] = [line for line in capsys.readouterr().err.splitlines()
                      if line.startswith("run FAILED:")]
            return re.sub(r"[\d.]+s wall", "Xs wall", line)

        first = failed_line([
            "chaos", "--variant", "cubic", "--weeks", "6", "--warmup", "2", "--flows", "2",
            "--watchdog-events", "300", "--bundle-dir", str(tmp_path),
        ])
        assert "event budget exceeded after 301 events" in first
        [bundle] = tmp_path.iterdir()
        replay = json.loads((bundle / "MANIFEST.json").read_text())["replay"]
        assert replay.endswith(f"cli rerun {bundle}")
        assert failed_line(["rerun", str(bundle)]) == first

    def test_a_fault_plan_bundle_reruns_the_bundled_config(self, tmp_path, monkeypatch):
        config = mini_config(fault_plan=plan_of({"kind": "notifier_drop", "params": {"rate": 0.5}}))
        bundle = write_repro_bundle(tmp_path, config=config, fault_plan=config.fault_plan,
                                    seed=config.seed, label="tdtcp")
        ran = []

        def record(self, configs, labels=None):
            ran.extend(configs)
            return [ExperimentResult(config=c, duration_ns=c.duration_ns) for c in configs]

        monkeypatch.setattr(ExperimentExecutor, "run_batch", record)
        assert cli_main(["rerun", bundle]) == 0
        assert [c.cache_key() for c in ran] == [config.cache_key()]
        assert ran[0].fault_plan == config.fault_plan

    def test_rerun_takes_no_run_flags(self, tmp_path, capsys):
        assert cli_main(["rerun", str(tmp_path), "--weeks", "3"]) == 2
        assert "--weeks" in capsys.readouterr().err
