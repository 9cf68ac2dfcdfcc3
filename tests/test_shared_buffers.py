"""Shared-memory ToR buffering: pool admission policies, pooled VOQs,
the squeeze/resize clamp composition, ECN boundary semantics, fault
interaction, and the pool-conservation audit."""

import random

import pytest

from repro.experiments import ExperimentConfig, run_experiment
from repro.experiments.sweeps import POLICY_TAGS
from repro.faults import FaultInjector, FaultPlan, FaultSpec, InvariantAuditor
from repro.net.packet import Packet
from repro.net.queues import (
    BUFFER_POLICIES,
    DropTailQueue,
    SharedBufferPool,
)
from repro.obs.outcome import outcome_digest
from repro.obs.telemetry import ObsConfig, Telemetry
from repro.rdcn.config import RDCNConfig
from repro.rdcn.fabric import NetworkPath, RackUplink
from repro.rdcn.opera import OperaConfig
from repro.rdcn.schedule import ScheduleDriver, TDNSchedule
from repro.rdcn.topology import build_two_rack_testbed
from repro.retcp.dynbuf import DynamicBufferController
from repro.sim.rng import SeededRandom
from repro.sim.simulator import Simulator
from repro.units import gbps, usec

from tests.helpers import small_rdcn


def pkt(ecn: bool = False) -> Packet:
    packet = Packet("r0h0", "r1h0", 1500)
    packet.ecn_capable = ecn
    return packet


def pooled(pool, capacity=None, name="pooled-queue", k=None) -> DropTailQueue:
    """A pool-backed queue, hard-capped at the pool total by default (as
    the fabrics build them)."""
    return DropTailQueue(
        pool.total if capacity is None else capacity, name, mark_threshold=k, pool=pool
    )


def fill(queue, n, now=0, ecn=False):
    return sum(1 for _ in range(n) if queue.push(pkt(ecn), now))


# ----------------------------------------------------------------------
# SharedBufferPool policies
# ----------------------------------------------------------------------
class TestPoolPolicies:
    def test_validation(self):
        with pytest.raises(ValueError):
            SharedBufferPool(0)
        with pytest.raises(ValueError):
            SharedBufferPool(8, policy="fair-share")
        with pytest.raises(ValueError):
            SharedBufferPool(8, alpha=0.0)
        assert set(POLICY_TAGS) == set(BUFFER_POLICIES)

    def test_complete_sharing_single_queue_uses_whole_pool(self):
        pool = SharedBufferPool(10, policy="complete-sharing")
        queue = pooled(pool, name="q0")
        assert fill(queue, 12) == 10
        assert pool.used == 10
        assert pool.free == 0
        assert pool.rejections == 2
        assert queue.drops == 2

    def test_complete_sharing_across_queues(self):
        pool = SharedBufferPool(8, policy="complete-sharing")
        a = pooled(pool, name="a")
        b = pooled(pool, name="b")
        assert fill(a, 6) == 6
        # b can only claim what a left free.
        assert fill(b, 6) == 2
        assert pool.used == 8
        assert pool.rejections == 4

    def test_dynamic_threshold_halts_at_alpha_free(self):
        # alpha=1: admit while len < free = total - len, i.e. len < total/2.
        pool = SharedBufferPool(16, policy="dynamic-threshold", alpha=1.0)
        queue = pooled(pool, name="q0")
        assert fill(queue, 16) == 8
        assert pool.rejections == 8
        # Draining frees cells, so admission resumes.
        assert queue.pop() is not None
        assert pool.used == 7
        assert queue.push(pkt(), 0)

    def test_dynamic_threshold_alpha_scales_borrowing(self):
        # alpha=4, total=20: len < 4*(20-len)  =>  len stops at 16.
        pool = SharedBufferPool(20, policy="dynamic-threshold", alpha=4.0)
        queue = pooled(pool, name="q0")
        assert fill(queue, 20) == 16

    def test_per_queue_cap_still_enforced(self):
        pool = SharedBufferPool(10, policy="complete-sharing")
        queue = pooled(pool, capacity=3, name="q0")
        assert fill(queue, 5) == 3
        # Cap-induced drops are NOT pool rejections.
        assert queue.drops == 2
        assert pool.rejections == 0

    def test_pop_releases_cells(self):
        pool = SharedBufferPool(4, policy="complete-sharing")
        queue = pooled(pool, name="q0")
        fill(queue, 4)
        while queue.pop() is not None:
            pass
        assert pool.used == 0
        assert pool.peak_used == 4

    def test_resize_total_shrink_never_evicts(self):
        pool = SharedBufferPool(8, policy="complete-sharing")
        queue = pooled(pool, name="q0")
        fill(queue, 8)
        pool.resize_total(4)
        assert len(queue) == 8          # no eviction
        assert pool.free < 0            # oversubscribed until it drains
        assert not queue.push(pkt(), 0)
        for _ in range(5):
            queue.pop()
        assert queue.push(pkt(), 0)

    def test_occupancy_and_reject_listeners(self):
        pool = SharedBufferPool(2, policy="complete-sharing")
        queue = pooled(pool, name="q0")
        used_seen, rejects = [], []
        pool.subscribe_occupancy(used_seen.append)
        pool.subscribe_reject(lambda name, length: rejects.append((name, length)))
        fill(queue, 3)
        queue.pop()
        assert used_seen == [1, 2, 1]
        assert rejects == [("q0", 2)]


# ----------------------------------------------------------------------
# ECN mark-threshold boundary (the post-enqueue > K convention)
# ----------------------------------------------------------------------
class TestECNBoundary:
    @pytest.mark.parametrize("make", [
        lambda: DropTailQueue(32, mark_threshold=4),
        lambda: pooled(SharedBufferPool(32, policy="complete-sharing"), k=4),
    ])
    def test_first_mark_is_packet_k_plus_one(self, make):
        queue = make()
        packets = [pkt(ecn=True) for _ in range(6)]
        for p in packets:
            queue.push(p, 0)
        # Post-enqueue occupancy > K marks: packets 1..K (post-enqueue
        # occupancy 1..K) stay clean, the (K+1)-th is the first marked.
        assert [p.ce for p in packets] == [False] * 4 + [True, True]
        assert queue.marks == 2

    def test_non_ecn_capable_never_marked(self):
        queue = DropTailQueue(32, mark_threshold=1)
        packets = [pkt(ecn=False) for _ in range(4)]
        for p in packets:
            queue.push(p, 0)
        assert not any(p.ce for p in packets)
        assert queue.marks == 0

    def test_pooled_marking_queue_matches_the_parents_subclass(self):
        """Two K=4 queues on one dynamic-threshold pool under a seeded
        2,000-op push/pop script: every refusal, mark, cell release and
        listener call, in order. The hash was recorded at f60acdd with
        the pooled marking subclass of the four-class matrix."""
        rng = random.Random(1)
        pool = SharedBufferPool(24, policy="dynamic-threshold", alpha=1.0)
        log = []
        pool.subscribe_occupancy(lambda used: log.append(("used", used)))
        pool.subscribe_reject(lambda name, length: log.append(("reject", name, length)))
        queues = [pooled(pool, name=f"q{i}", k=4) for i in range(2)]
        for q in queues:
            q.subscribe_length(lambda n, name=q.name: log.append(("len", name, n)))
            q.subscribe_drop(lambda p, name=q.name: log.append(("drop", name)))
        for _ in range(2000):
            q = queues[rng.randrange(2)]
            if rng.random() < 0.6:
                p = Packet("a", "b", 1)
                p.ecn_capable = rng.random() < 0.7
                log.append(("push", q.name, q.push(p, 0), p.ce, p.dropped))
            else:
                log.append(("pop", q.name, q.pop() is not None))
            log.append((len(q), q.drops, q.marks, q.enqueued, q.max_occupancy,
                        pool.used, pool.peak_used, pool.rejections))
        assert (sum(q.marks for q in queues), pool.rejections) == (492, 433)
        assert outcome_digest(log) == (
            "859e36345be52e6294529a890753fc5d14370a575c7d07adb9a9bb4f8563ec1b"
        )


# ----------------------------------------------------------------------
# squeeze x resize x unsqueeze composition (the bugfix)
# ----------------------------------------------------------------------
class TestSqueezeResizeComposition:
    def test_resize_during_squeeze_does_not_override_fault(self):
        queue = DropTailQueue(16)
        queue.squeeze(4)
        queue.resize(50)            # retcpdyn enlarges mid-fault
        assert queue.capacity == 4  # the fault stays in force
        queue.unsqueeze()
        assert queue.capacity == 50  # the controller's value, not 16

    def test_resize_below_squeeze_takes_effect(self):
        queue = DropTailQueue(16)
        queue.squeeze(4)
        queue.resize(2)
        assert queue.capacity == 2
        queue.unsqueeze()
        assert queue.capacity == 2

    def test_plain_squeeze_round_trip(self):
        queue = DropTailQueue(64)
        queue.squeeze(4)
        assert queue.capacity == 4
        queue.unsqueeze()
        assert queue.capacity == 64
        queue.unsqueeze()           # idempotent
        assert queue.capacity == 64

    def test_resqueeze_keeps_original_restore_value(self):
        queue = DropTailQueue(64)
        queue.squeeze(8)
        queue.squeeze(2)
        assert queue.capacity == 2
        queue.unsqueeze()
        assert queue.capacity == 64

    def test_dynbuf_cycle_under_active_squeeze(self):
        # The exact retcpdyn sequence the fault overlaps: lead-resize to
        # circuit size, night-resize back to normal, fault lifted last.
        queue = DropTailQueue(16)
        queue.squeeze(4)
        queue.resize(50)
        queue.resize(16)
        assert queue.capacity == 4
        queue.unsqueeze()
        assert queue.capacity == 16


# ----------------------------------------------------------------------
# Pool-backed fabrics
# ----------------------------------------------------------------------
def pooled_rdcn(policy="dynamic-threshold", alpha=1.0, total=None, **kwargs):
    cfg = small_rdcn(**kwargs)
    from dataclasses import replace

    return replace(
        cfg, buffer_policy=policy, buffer_alpha=alpha, buffer_total_capacity=total
    )


class TestPooledFabric:
    def test_static_builds_no_pools(self):
        testbed = build_two_rack_testbed(small_rdcn())
        assert testbed.pools == {}
        for uplink in testbed.uplinks.values():
            assert uplink.queue.pool is None

    def test_pooled_policies_build_pools(self):
        for policy in ("complete-sharing", "dynamic-threshold"):
            testbed = build_two_rack_testbed(pooled_rdcn(policy=policy, total=48))
            assert sorted(testbed.pools) == [0, 1]
            for rack, uplink in testbed.uplinks.items():
                queue = uplink.queue
                assert queue.pool is testbed.pools[rack]
                assert queue.pool.total == 48
                assert queue.pool.policy == policy

    def test_fabric_drain_releases_pool_cells(self):
        # The uplink serve loop inlines the dequeue; it must still give
        # the cell back to the pool.
        sim = Simulator()
        pool = SharedBufferPool(32, policy="complete-sharing")
        queue = pooled(pool, name="voq-pooled")
        paths = {0: NetworkPath(0, gbps(10), usec(5))}
        uplink = RackUplink(sim, paths, queue, lambda p: None)
        uplink.set_active(0)
        for _ in range(8):
            uplink.enqueue(pkt())
        sim.run()
        assert uplink.tx_packets == 8
        assert len(queue) == 0
        assert pool.used == 0
        assert pool.peak_used > 0

    def test_dynbuf_grows_and_shrinks_pool(self):
        sim = Simulator()
        schedule = TDNSchedule.uniform((0, 0, 1), usec(180), usec(20))
        driver = ScheduleDriver(sim, schedule)
        paths = {
            0: NetworkPath(0, gbps(10), usec(40)),
            1: NetworkPath(1, gbps(100), usec(10), is_circuit=True),
        }
        pool = SharedBufferPool(96, policy="dynamic-threshold")
        uplink = RackUplink(sim, paths, pooled(pool), lambda p: None)
        DynamicBufferController(
            sim, driver, [uplink],
            normal_capacity=96, circuit_capacity=300,
            lead_ns=usec(150), optical_tdn=1,
        )
        driver.start()
        optical_start = usec(400)
        sim.run(until=optical_start - usec(151))
        assert pool.total == 96
        sim.run(until=optical_start - usec(149))
        assert pool.total == 96 + (300 - 96)
        assert uplink.queue.capacity == pool.total
        sim.run(until=optical_start + usec(181))  # into the night
        assert pool.total == 96
        assert uplink.queue.capacity == 96


# ----------------------------------------------------------------------
# Faults against pool-backed queues
# ----------------------------------------------------------------------
class TestPooledFaults:
    def test_queue_squeeze_clamps_pooled_queue(self):
        sim = Simulator()
        pool = SharedBufferPool(64, policy="complete-sharing")
        queue = pooled(pool, name="voq-pooled")
        plan = FaultPlan(specs=[FaultSpec(
            kind="queue_squeeze", target="voq-*", at_ns=1000, until_ns=2000,
            params={"capacity": 4},
        )], name="t")
        FaultInjector(sim, plan, SeededRandom(1)).arm(queues={queue.name: queue})
        sim.run(until=1500)
        assert queue.capacity == 4
        assert fill(queue, 6) == 4       # per-queue cap binds below the pool
        assert pool.rejections == 0
        assert queue.drops == 2
        sim.run(until=3000)
        assert queue.capacity == 64
        assert pool.used == 4

    def test_pooled_run_under_fault_plan_audits_clean(self):
        # End-to-end: pooled VOQs + queue_squeeze + rcv_buffer_pressure,
        # fail-mode auditing (pool conservation included). A clean run
        # proves the pooled hot paths keep cells conserved under faults.
        plan = FaultPlan(specs=[
            FaultSpec(kind="queue_squeeze", target="voq-*",
                      at_ns=usec(300), until_ns=usec(900),
                      params={"capacity": 4}),
            FaultSpec(kind="rcv_buffer_pressure", target="r1h*",
                      at_ns=usec(200), until_ns=usec(1200),
                      params={"factor": 0.2}),
        ], name="pooled-faults")
        result = run_experiment(ExperimentConfig(
            variant="dctcp",
            rdcn=pooled_rdcn(policy="dynamic-threshold", alpha=2.0, seed=5),
            n_flows=2, weeks=6, warmup_weeks=1, seed=5,
            collect_voq=False, fault_plan=plan, audit="fail",
        ))
        assert result.ok, result.failure and result.failure.render()
        assert result.audit_report["violation_count"] == 0
        assert result.audit_report["watched_pools"] == 2
        assert result.fault_report["effects"]["queue_squeeze"] > 0
        assert result.aggregate_delivered > 0

    def test_pooled_run_is_deterministic(self):
        config = dict(
            variant="tdtcp",
            rdcn=pooled_rdcn(policy="dynamic-threshold", seed=9),
            n_flows=2, weeks=6, warmup_weeks=1, seed=9, collect_voq=False,
        )
        first = run_experiment(ExperimentConfig(**config))
        second = run_experiment(ExperimentConfig(**config))
        assert first.ok and second.ok
        assert first.aggregate_delivered == second.aggregate_delivered
        assert first.retransmissions == second.retransmissions


# ----------------------------------------------------------------------
# Pool conservation audit + telemetry
# ----------------------------------------------------------------------
class TestPoolObservability:
    def test_watch_queue_registers_pool_and_detects_drift(self):
        sim = Simulator()
        pool = SharedBufferPool(8, policy="complete-sharing")
        queue = pooled(pool, name="q0")
        auditor = InvariantAuditor(sim)
        auditor.watch_queue(queue)
        assert auditor.pools == [pool]
        fill(queue, 3)
        assert auditor.audit() == []
        pool.used += 1  # simulate a leaked acquire
        found = auditor.audit()
        assert "pool_conservation" in [v["check"] for v in found]

    def test_plain_queue_registers_no_pool(self):
        auditor = InvariantAuditor(Simulator())
        auditor.watch_queue(DropTailQueue(8))
        assert auditor.pools == []

    def test_pool_tracepoints_recorded(self, tmp_path):
        sim = Simulator()
        telemetry = Telemetry(ObsConfig(trace_dir=str(tmp_path), label="pool",
                                        chrome_trace=False, csv=False)).attach(sim)
        pool = SharedBufferPool(2, policy="complete-sharing", name="pool-r0")
        telemetry.instrument_pool(pool, sim)
        queue = pooled(pool, name="q0")
        fill(queue, 3)
        queue.pop()
        telemetry.finish()
        lines = (tmp_path / "pool.jsonl").read_text().splitlines()
        names = [line for line in lines if "pool:" in line]
        assert any("pool:occupancy" in line for line in names)
        assert any("pool:reject" in line for line in names)


# ----------------------------------------------------------------------
# Config plumbing + the Opera protocol ceiling
# ----------------------------------------------------------------------
class TestConfigPlumbing:
    def test_rdcn_round_trip_with_buffer_fields(self):
        cfg = pooled_rdcn(policy="dynamic-threshold", alpha=2.5, total=80)
        assert RDCNConfig.from_dict(cfg.to_dict()) == cfg

    def test_rdcn_validation(self):
        with pytest.raises(ValueError):
            pooled_rdcn(policy="bogus")
        with pytest.raises(ValueError):
            pooled_rdcn(alpha=-1.0)
        with pytest.raises(ValueError):
            pooled_rdcn(total=0)

    def test_tor_buffer_total_defaults_to_carving(self):
        cfg = small_rdcn()
        assert cfg.tor_buffer_total(n_voqs=3) == 3 * cfg.voq_capacity
        assert pooled_rdcn(total=80).tor_buffer_total(n_voqs=3) == 80

    def test_with_buffer_gives_every_policy_the_same_memory(self):
        base = RDCNConfig()
        static = base.with_buffer(64, "static", 0.5)
        assert (static.voq_capacity, static.buffer_total_capacity) == (64, None)
        assert (static.buffer_policy, static.buffer_alpha) == ("static", 0.5)
        pooled = base.with_buffer(64, "dynamic-threshold")
        assert (pooled.voq_capacity, pooled.buffer_total_capacity) == (64, 64)
        assert pooled.buffer_alpha == base.buffer_alpha
        # None keeps the current value: a partial override (the CLI's
        # --buffer-total alone) resizes under the policy already set.
        assert pooled.with_buffer(total=32).buffer_total_capacity == 32
        assert pooled.with_buffer(alpha=2.0).voq_capacity == 64
        assert base.with_buffer() == base

    def test_opera_rotor_ceiling(self):
        OperaConfig(n_racks=64)  # rotor TDN = slot index, ceiling 65
        with pytest.raises(ValueError, match="protocol ceiling"):
            OperaConfig(n_racks=66)

    def test_opera_demand_aware_ceiling(self):
        OperaConfig(n_racks=64, matching_policy="demand-aware")  # ceiling 64
        with pytest.raises(ValueError, match="protocol ceiling"):
            OperaConfig(n_racks=66, matching_policy="demand-aware")

    def test_opera_pool_total_default(self):
        cfg = OperaConfig(n_racks=4, buffer_policy="dynamic-threshold")
        assert cfg.tor_buffer_total == cfg.voq_capacity * 3
        cfg = OperaConfig(n_racks=4, buffer_policy="complete-sharing",
                          buffer_total_capacity=120)
        assert cfg.tor_buffer_total == 120
