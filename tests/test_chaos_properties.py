"""Property-based chaos tests: random impairments must never corrupt
the stack's accounting or wedge a connection."""

import hashlib
import pathlib
import tempfile
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.bulk import BulkReceiver
from repro.core.tdtcp import TDTCPConnection
from repro.faults import FaultInjector, FaultPlan, FaultSpec, InvariantAuditor
from repro.net.packet import TDNNotification
from repro.obs.telemetry import ObsConfig
from repro.rdcn.topology import build_two_rack_testbed
from repro.sim.rng import SeededRandom
from repro.tcp.config import TCPConfig
from repro.tcp.connection import TCPConnection
from repro.tcp.sockets import create_connection_pair
from repro.units import msec, usec

from tests.helpers import assert_invariants, small_rdcn, two_hosts


def chaos_run(
    connection_cls,
    loss_rate: float,
    delay_rate: float,
    switch_times_us,
    seed: int,
    duration_ms: int = 12,
    **kwargs,
):
    """A transfer through a link that randomly drops and delays, with
    TDN switches injected at the given times."""
    sim, a, b, ab, ba = two_hosts(one_way_ns=usec(20))
    rng = SeededRandom(seed)

    def impair(original):
        def deliver(pkt):
            if pkt.payload_len and rng.chance(loss_rate):
                pkt.dropped = True
                return
            if rng.chance(delay_rate):
                sim.schedule(rng.randint(1_000, 80_000), original, pkt)
                return
            original(pkt)

        return deliver

    ab.deliver = impair(ab.deliver)
    ba.deliver = impair(ba.deliver)
    client, server = create_connection_pair(
        sim, a, b, connection_cls=connection_cls,
        config=TCPConfig(min_rto_ns=usec(1_000)), **kwargs,
    )
    client.start_bulk()
    tdn = 0
    for t_us in switch_times_us:
        tdn = 1 - tdn
        sim.at(usec(t_us), a.deliver, TDNNotification("tor", a.address, tdn))
        sim.at(usec(t_us), b.deliver, TDNNotification("tor", b.address, tdn))
    sim.run(until=msec(duration_ms))
    return sim, client, server


switch_strategy = st.lists(
    st.integers(100, 10_000), min_size=0, max_size=8, unique=True
).map(sorted)


class TestChaosTCP:
    @given(
        loss=st.floats(0.0, 0.05),
        delay=st.floats(0.0, 0.05),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_plain_tcp_invariants_and_progress(self, loss, delay, seed):
        sim, client, server = chaos_run(TCPConnection, loss, delay, [], seed)
        assert_invariants(client)
        assert_invariants(server)
        assert server.stats.bytes_delivered > 0
        assert client.snd_una > 1  # made forward progress

    @given(
        loss=st.floats(0.0, 0.04),
        delay=st.floats(0.0, 0.04),
        switches=switch_strategy,
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_tdtcp_invariants_under_switch_chaos(self, loss, delay, switches, seed):
        sim, client, server = chaos_run(
            TDTCPConnection, loss, delay, switches, seed, tdn_count=2
        )
        assert_invariants(client)
        assert_invariants(server)
        assert server.stats.bytes_delivered > 0

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_heavy_loss_no_wedge(self, seed):
        """10% loss: brutal, but the connection must keep crawling."""
        sim, client, server = chaos_run(TCPConnection, 0.10, 0.0, [], seed, duration_ms=30)
        assert_invariants(client)
        assert server.stats.bytes_delivered > 50_000

    def test_delivered_never_exceeds_sent(self):
        sim, client, server = chaos_run(TCPConnection, 0.02, 0.02, [], seed=7)
        assert server.stats.bytes_delivered <= client.stats.segments_sent * client.config.mss

    def test_ground_truth_spurious_subset_of_retransmissions(self):
        sim, client, server = chaos_run(TDTCPConnection, 0.02, 0.02, [500, 900], 3, tdn_count=2)
        assert client.stats.spurious_retransmissions <= client.stats.retransmissions


def faulted_testbed_run(plan: FaultPlan, seed: int, total_bytes: int = 100_000, weeks: int = 20):
    """Run two finite TDTCP flows across a two-rack testbed under a
    fault plan, with the invariant auditor watching everything."""
    rdcn = small_rdcn(n_hosts=2, seed=seed)
    testbed = build_two_rack_testbed(rdcn)
    injector = FaultInjector(testbed.sim, plan, testbed.rng)
    injector.arm_testbed(testbed)
    auditor = InvariantAuditor(testbed.sim, mode="warn")
    auditor.interval_ns = usec(100)
    receivers = []
    for index in range(2):
        client, server = create_connection_pair(
            testbed.sim,
            testbed.host(0, index),
            testbed.host(1, index),
            cc_name="cubic",
            config=TCPConfig(mss=rdcn.mss),
            connection_cls=TDTCPConnection,
            tdn_count=rdcn.n_tdns,
        )
        receivers.append(BulkReceiver(server))
        client.on_established = partial(client.write, total_bytes)
        auditor.watch_endpoint(client)
        auditor.watch_endpoint(server)
    for uplink in testbed.uplinks.values():
        auditor.watch_uplink(uplink)
    testbed.start()
    auditor.start()
    testbed.sim.run(until=weeks * rdcn.week_ns)
    auditor.audit()
    return receivers, auditor, injector


class TestFaultPlanChaos:
    """FaultPlan-driven chaos: under injected faults the auditor must
    stay clean and every finite flow must still complete."""

    @given(
        at_day=st.integers(0, 20),
        down_us=st.integers(20, 200),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=8, deadline=None)
    def test_link_flap_mid_day(self, at_day, down_us, seed):
        rdcn = small_rdcn()
        at_ns = at_day * (rdcn.day_ns + rdcn.night_ns) + rdcn.day_ns // 2
        plan = FaultPlan(specs=[FaultSpec(
            kind="link_flap", target="r0h0-up", at_ns=at_ns,
            params={"down_ns": usec(down_us)},
        )])
        receivers, auditor, _injector = faulted_testbed_run(plan, seed)
        assert auditor.clean, auditor.violations
        for receiver in receivers:
            assert receiver.delivered_bytes >= 100_000

    @given(
        rate=st.floats(0.5, 0.9),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=8, deadline=None)
    def test_heavy_notifier_loss(self, rate, seed):
        plan = FaultPlan(specs=[FaultSpec(
            kind="notifier_drop", params={"rate": rate},
        )])
        receivers, auditor, injector = faulted_testbed_run(plan, seed)
        assert auditor.clean, auditor.violations
        for receiver in receivers:
            assert receiver.delivered_bytes >= 100_000

    @given(
        max_skew_us=st.integers(1, 10),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=8, deadline=None)
    def test_schedule_skew(self, max_skew_us, seed):
        plan = FaultPlan(specs=[FaultSpec(
            kind="schedule_skew", params={"max_skew_ns": usec(max_skew_us)},
        )])
        receivers, auditor, injector = faulted_testbed_run(plan, seed)
        assert injector.effects.get("schedule_skew", 0) > 0
        assert auditor.clean, auditor.violations
        for receiver in receivers:
            assert receiver.delivered_bytes >= 100_000

    def test_same_plan_and_seed_is_byte_identical(self):
        """Determinism contract: identical seed + plan => identical
        telemetry trace, byte for byte."""
        from repro.experiments import ExperimentConfig, run_experiment

        plan = FaultPlan.load("examples/fault_plans/day_one_storm.json")
        digests = []
        with tempfile.TemporaryDirectory() as tmp:
            for replica in ("a", "b"):
                obs = ObsConfig(trace_dir=tmp, label=f"det_{replica}",
                                chrome_trace=False, csv=False)
                result = run_experiment(ExperimentConfig(
                    variant="tdtcp", rdcn=small_rdcn(n_hosts=2, seed=5),
                    n_flows=2, weeks=6, warmup_weeks=1, seed=5,
                    obs=obs, fault_plan=plan, audit="fail",
                ))
                assert result.ok, result.failure
                trace = pathlib.Path(tmp) / f"det_{replica}.jsonl"
                body = trace.read_bytes()
                # Labels differ between replicas; strip them before
                # hashing so only event content is compared.
                body = body.replace(b"det_a", b"det_X").replace(b"det_b", b"det_X")
                digests.append(hashlib.sha256(body).hexdigest())
        assert digests[0] == digests[1]
