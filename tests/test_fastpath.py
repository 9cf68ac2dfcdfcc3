"""Tiered-fidelity fluid fast path (repro.sim.fastpath).

Cross-fidelity agreement on the figure-7 bulk workload, loss-episode
behavior, forced-packet fallbacks (fault plans, unsupported variants,
background load), per-mode determinism, and the closed-form unit
pieces the integrator builds on (schedule segmentation, fluid cwnd
growth).
"""

import pytest

from repro.experiments.config import ExperimentConfig, WorkloadConfig
from repro.experiments.runner import run_experiment
from repro.faults.plan import FaultPlan, FaultSpec
from repro.rdcn.schedule import TDNSchedule
from repro.sim.fastpath import FLUID_VARIANTS, fidelity_report
from repro.tcp.cc.base import INFINITE_SSTHRESH, make_congestion_control
from repro.units import usec


class FakeClock:
    def __init__(self):
        self.t = 0

    def now_ns(self) -> int:
        return self.t


def bulk_config(variant: str, fidelity: str, **kwargs) -> ExperimentConfig:
    """A small figure-7-style bulk run (the fast path's home turf)."""
    defaults = dict(
        variant=variant, n_flows=4, weeks=10, warmup_weeks=2, seed=1,
        collect_voq=False, collect_sequence=False, fidelity=fidelity,
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


def run_pair(variant: str, **kwargs):
    """(packet result, tiered result) for the same seeded config."""
    packet = run_experiment(bulk_config(variant, "packet", **kwargs))
    tiered = run_experiment(bulk_config(variant, "tiered", **kwargs))
    assert packet.failure is None and tiered.failure is None
    return packet, tiered


class TestCrossFidelityAgreement:
    # Pinned empirically: the fluid model has no retransmission waste or
    # ramp-up stalls, so tiered delivers slightly more than packet on
    # the same horizon (measured 1.21x tdtcp / 1.36x cubic / 1.24x reno
    # at this scale). A ratio below 1.0 or above 1.5 means the model
    # broke, not that the tolerance drifted.
    LOW, HIGH = 1.0, 1.5

    @pytest.mark.parametrize("variant", ("tdtcp", "cubic", "reno"))
    def test_bulk_delivered_within_tolerance(self, variant):
        packet, tiered = run_pair(variant)
        ratio = tiered.aggregate_delivered / packet.aggregate_delivered
        assert self.LOW <= ratio <= self.HIGH, (
            f"{variant}: tiered/packet delivered ratio {ratio:.3f} "
            f"outside [{self.LOW}, {self.HIGH}]"
        )
        report = tiered.fidelity_report
        assert report["mode"] == "tiered"
        assert report["forced_packet"] is False
        assert report["fluid_spans"] >= 1
        assert report["fluid_time_ns"] > 0
        # Packet runs carry no fidelity report at all.
        assert packet.fidelity_report is None

    def test_loss_episodes_in_both_modes(self):
        """The bulk workload overflows the VOQ in packet mode; the fluid
        model must register the same pressure as virtual loss cuts (with
        cwnd actually reduced), not sail through loss-free."""
        packet, tiered = run_pair("cubic")
        assert packet.retransmissions > 0  # packet mode really saw loss
        assert tiered.fidelity_report["virtual_losses"] > 0
        ratio = tiered.aggregate_delivered / packet.aggregate_delivered
        assert self.LOW <= ratio <= self.HIGH

    def test_fluid_spans_counted_on_simulator(self):
        tiered = run_experiment(bulk_config("tdtcp", "tiered"))
        report = tiered.fidelity_report
        assert report["exit_reasons"]  # every span records why it ended
        assert sum(report["exit_reasons"].values()) == report["fluid_spans"]


class TestForcedPacket:
    def test_fault_plan_forces_packet(self):
        plan = FaultPlan(
            specs=(FaultSpec(kind="link_flap", target="r0h0-up",
                             at_ns=usec(500), period_ns=usec(800), count=2,
                             params={"down_ns": usec(50)}),),
            name="fastpath-test",
        )
        result = run_experiment(bulk_config("tdtcp", "tiered", fault_plan=plan))
        assert result.failure is None
        report = result.fidelity_report
        assert report["mode"] == "packet"
        assert report["forced_packet"] is True
        assert "fault_plan" in report["forced_reasons"]
        assert report["fluid_spans"] == 0

    @pytest.mark.parametrize("variant", ("dctcp", "mptcp"))
    def test_unsupported_variant_forces_packet(self, variant):
        result = run_experiment(bulk_config(variant, "tiered"))
        assert result.failure is None
        report = result.fidelity_report
        assert report["mode"] == "packet"
        assert f"variant:{variant}" in report["forced_reasons"]
        assert variant not in FLUID_VARIANTS

    def test_background_load_forces_packet(self):
        result = run_experiment(
            bulk_config("tdtcp", "tiered", background_load=0.1)
        )
        assert result.failure is None
        assert "background_load" in result.fidelity_report["forced_reasons"]

    def test_forced_run_byte_identical_to_packet_run(self):
        """A tiered run that falls back must produce exactly the packet
        result — same flows, same bytes, same retransmissions — because
        the fast path never constructs at all."""
        tiered = run_experiment(bulk_config("dctcp", "tiered"))
        packet = run_experiment(bulk_config("dctcp", "packet"))
        assert tiered.flow_delivered == packet.flow_delivered
        assert tiered.aggregate_delivered == packet.aggregate_delivered
        assert tiered.retransmissions == packet.retransmissions
        assert tiered.rtos == packet.rtos

    def test_forced_report_shape_matches_live_report(self):
        live = run_experiment(bulk_config("tdtcp", "tiered")).fidelity_report
        forced = fidelity_report(["fault_plan"], None)
        assert set(forced) == set(live)


class TestDeterminism:
    @pytest.mark.parametrize("fidelity", ("packet", "tiered"))
    def test_same_seed_same_result(self, fidelity):
        a = run_experiment(bulk_config("tdtcp", fidelity))
        b = run_experiment(bulk_config("tdtcp", fidelity))
        assert a.flow_delivered == b.flow_delivered
        assert a.aggregate_delivered == b.aggregate_delivered
        assert a.retransmissions == b.retransmissions
        assert a.fidelity_report == b.fidelity_report

    def test_tiered_cubic_engine_run_matches_golden(self):
        """The shape of a ``tiered_elephants`` cubic leg — an engine run
        on which no host ever has a transport listener, so every TDN
        announcement is the notifier's alone. Recorded at the commit
        before announcements went to the rack; the digest covers every
        notification latency in order and the notify-latency sketches.
        Re-pinned when the record traded its (here empty) raw
        sequence/VOQ series for the folded-week keys, and when twenty
        config fields left (nineteen became constants, the dead
        ``workload.record_cap`` went): the parent's outcome with those
        keys dropped from its config echo hashes to the new value."""
        config = ExperimentConfig(
            variant="cubic", weeks=8, warmup_weeks=2, seed=1, collect_voq=False,
            collect_sequence=False, fidelity="tiered",
            workload=WorkloadConfig(kind="empirical", cdf="web-search", load=0.4),
        )
        result = run_experiment(config)
        assert result.fidelity_report["fluid_spans"] == 2
        assert len(result.notification_latencies) == 8 * 8 * 2 * 8
        assert result.outcome_digest() == (
            "43b18ff3824e7b19fd2c0e0d552567bc2a437e624e797fd3b94cf170200414f4"
        )

    def test_packet_mode_untouched_by_fidelity_field(self):
        """fidelity="packet" runs take the exact pre-fastpath code path:
        no report, no fluid counters on the simulator."""
        result = run_experiment(bulk_config("cubic", "packet"))
        assert result.fidelity_report is None


class TestScheduleSegments:
    def test_segment_at_day_and_night(self):
        schedule = TDNSchedule.uniform((0, 0, 1), day_ns=1000, night_ns=100)
        assert schedule.segment_at(0) == (0, 1000, 0)
        assert schedule.segment_at(999) == (0, 1000, 0)
        assert schedule.segment_at(1000) == (1000, 1100, None)
        assert schedule.segment_at(1100) == (1100, 2100, 0)
        assert schedule.segment_at(2250) == (2200, 3200, 1)

    def test_segment_at_wraps_weeks(self):
        schedule = TDNSchedule.uniform((0, 1), day_ns=1000, night_ns=100)
        week = schedule.week_ns
        start, end, tdn = schedule.segment_at(3 * week + 1150)
        assert (start, end, tdn) == (3 * week + 1100, 3 * week + 2100, 1)

    def test_segment_at_rejects_negative(self):
        schedule = TDNSchedule.uniform((0,), day_ns=10, night_ns=1)
        with pytest.raises(ValueError):
            schedule.segment_at(-1)


class TestFluidAdvance:
    def test_reno_slow_start_doubles_per_rtt(self):
        cc = make_congestion_control("reno", FakeClock(), initial_cwnd=2.0)
        cc.ssthresh = INFINITE_SSTHRESH
        cc.fluid_advance(0, 3 * 1000, 1000)  # three RTTs
        assert cc.cwnd == pytest.approx(16.0)

    def test_reno_slow_start_hands_off_at_ssthresh(self):
        cc = make_congestion_control("reno", FakeClock(), initial_cwnd=8.0)
        cc.ssthresh = 16.0
        # One RTT reaches ssthresh exactly; the next two add 1 MSS each.
        cc.fluid_advance(0, 3 * 1000, 1000)
        assert cc.cwnd == pytest.approx(18.0)

    def test_cubic_growth_monotone_and_reno_floored(self):
        cc = make_congestion_control("cubic", FakeClock(), initial_cwnd=10.0)
        cc.ssthresh = 10.0  # force congestion avoidance
        before = cc.cwnd
        cc.fluid_advance(0, 10 * 100_000, 100_000)
        mid = cc.cwnd
        cc.fluid_advance(10 * 100_000, 10 * 100_000, 100_000)
        assert before < mid <= cc.cwnd

    def test_zero_interval_is_noop(self):
        cc = make_congestion_control("cubic", FakeClock(), initial_cwnd=7.0)
        cc.fluid_advance(0, 0, 1000)
        cc.fluid_advance(0, 1000, 0)
        assert cc.cwnd == 7.0
