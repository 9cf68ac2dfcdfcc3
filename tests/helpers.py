"""Shared fixtures/builders for the test suite."""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from dataclasses import replace
from typing import Optional, Tuple, Type

from repro.net.link import Link
from repro.net.node import Host
from repro.net.packet import TCPSegment
from repro.rdcn.config import NotifierConfig, RDCNConfig
from repro.rdcn.topology import build_two_rack_testbed
from repro.sim.simulator import Simulator
from repro.tcp.config import TCPConfig
from repro.tcp.connection import TCPConnection
from repro.tcp.sockets import create_connection_pair
from repro.units import gbps, msec, usec


def two_hosts(
    sim: Optional[Simulator] = None,
    rate_bps: float = gbps(10),
    one_way_ns: int = usec(20),
    forward_queue: Optional[int] = None,
    reverse_queue: Optional[int] = None,
) -> Tuple[Simulator, Host, Host, Link, Link]:
    """Two hosts joined by one link in each direction."""
    sim = sim or Simulator()
    a = Host(sim, "r0h0")
    b = Host(sim, "r1h0")
    ab = Link(sim, rate_bps, one_way_ns, b.deliver, queue_capacity=forward_queue, name="ab")
    ba = Link(sim, rate_bps, one_way_ns, a.deliver, queue_capacity=reverse_queue, name="ba")
    a.attach_egress(ab)
    b.attach_egress(ba)
    return sim, a, b, ab, ba


def bulk_pair(
    sim: Simulator,
    a: Host,
    b: Host,
    cc_name: str = "cubic",
    config: Optional[TCPConfig] = None,
    connection_cls: Type[TCPConnection] = TCPConnection,
    **kwargs,
) -> Tuple[TCPConnection, TCPConnection]:
    """Connected endpoints with an endless sending application."""
    client, server = create_connection_pair(
        sim, a, b, cc_name=cc_name, config=config or TCPConfig(), connection_cls=connection_cls, **kwargs
    )
    client.start_bulk()
    return client, server


def small_rdcn(
    n_hosts: int = 2,
    night_policy: str = "slowdown",
    seed: int = 7,
) -> RDCNConfig:
    """A scaled-down RDCN for fast integration tests."""
    return RDCNConfig(
        n_hosts_per_rack=n_hosts,
        host_link_rate_bps=gbps(100 / max(n_hosts, 1) / 2),
        notifier=NotifierConfig(night_policy=night_policy),
        seed=seed,
    )


def run_for(sim: Simulator, duration_ns: int) -> None:
    sim.run(until=sim.now + duration_ns)


def notification_fingerprint(notifier: NotifierConfig, plan=None) -> Tuple[dict, list]:
    """Run a 2 x 4-host testbed for three weeks with one TDTCP bulk flow
    per host pair (and ``plan``'s faults armed, if given) and summarize everything the notification path decides: which host
    listener saw which notification when (in call order), the
    notifier's latency samples, and per-host stale counts.

    Returns ``(fingerprint, calls)``; the fingerprint is small enough
    to pin as a golden, ``calls`` is the full
    ``(time, host, tdn, notify_seq, generated_ns)`` sequence behind it.
    """
    from repro.core.tdtcp import TDTCPConnection
    from repro.faults import FaultInjector

    cfg = replace(small_rdcn(n_hosts=4), notifier=notifier)
    testbed = build_two_rack_testbed(cfg)
    sim = testbed.sim
    if plan is not None:
        FaultInjector(sim, plan, testbed.rng).arm_testbed(testbed)
    calls = []
    hosts = testbed.hosts[0] + testbed.hosts[1]
    for host in hosts:
        host.subscribe_tdn_changes(
            lambda n, address=host.address: calls.append(
                (sim.now, address, n.tdn_id, n.notify_seq, n.generated_ns)
            )
        )
    for a, b in zip(testbed.hosts[0], testbed.hosts[1]):
        bulk_pair(sim, a, b, connection_cls=TDTCPConnection, tdn_count=cfg.n_tdns)
    testbed.start()
    sim.run(until=cfg.week_ns * 3)

    def sha(value) -> str:
        return hashlib.sha256(json.dumps(value).encode()).hexdigest()[:16]

    latencies = testbed.notifier.delivery_latency_samples
    fingerprint = {
        "calls": len(calls),
        "calls_sha": sha(calls),
        "latencies": len(latencies),
        "latency_sum": sum(latencies),
        "latencies_sha": sha(latencies),
        "stale": [host.stale_notifications for host in hosts],
    }
    return fingerprint, calls


# The RPC mix of the ledger's ``rpc_churn``: small messages, so flows
# finish (and are released) well inside a short horizon.
RPC_CDF = ((0.0, 2_000), (0.5, 4_000), (0.9, 16_000), (1.0, 64_000))


def tdtcp_engine(fabric: str, seed: int = 1, max_flows: Optional[int] = None, load: float = 0.4):
    """A started testbed carrying a TDTCP :class:`WorkloadEngine` on the
    RPC mix (no engine when ``max_flows == 0``): ``fabric`` is
    ``"two-rack"`` or ``"opera"`` (8 racks, 7 TDNs, all-to-all).

    Returns ``(testbed, engine, period_ns)``; the period is one week,
    resp. one rotor cycle.
    """
    from repro.apps.engine import WorkloadEngine
    from repro.core.tdtcp import TDTCPConnection
    from repro.rdcn.opera import OperaConfig, build_opera_testbed
    from repro.sim.rng import SeededRandom

    if fabric == "opera":
        cfg = OperaConfig(n_racks=8, n_hosts_per_rack=2, seed=seed)
        testbed = build_opera_testbed(cfg)
        period_ns, tdn_count, matrix = cfg.cycle_ns, cfg.n_slots, "all-to-all"
    else:
        cfg = RDCNConfig(seed=seed)
        testbed = build_two_rack_testbed(cfg)
        period_ns, tdn_count, matrix = cfg.week_ns, cfg.n_tdns, "permutation"
    engine = None
    if max_flows != 0:
        engine = WorkloadEngine(
            testbed, SeededRandom(seed), load=load, cdf=RPC_CDF, matrix=matrix,
            connection_cls=TDTCPConnection, cc_name="cubic", tdn_count=tdn_count,
            max_flows=max_flows,
        )
        engine.start()
    testbed.start()
    return testbed, engine, period_ns


def engine_fingerprint(
    fabric: str, seed: int, periods: int, max_flows: Optional[int] = None, load: float = 0.4
) -> dict:
    """Everything a :func:`tdtcp_engine` run reports about its flows
    after ``periods`` weeks/cycles: the wall-stripped summary and the
    serialized sketches, hashed, plus the counts a reader wants to see.
    """
    from repro.apps.engine import strip_wall_fields

    testbed, engine, period_ns = tdtcp_engine(fabric, seed, max_flows, load)
    horizon_ns = periods * period_ns
    testbed.sim.run(until=horizon_ns)
    stats = engine.finish()
    summary = strip_wall_fields(stats.summary(horizon_ns, engine.n_racks, engine.load))
    text = json.dumps({"summary": summary, "sketches": stats.sketches()}, sort_keys=True)
    return {
        "started": stats.started,
        "completed": stats.completed,
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
    }


@contextmanager
def unregistered_sends(drop: bool = False):
    """The ``Host.send`` oracle for zombie transmissions: yields the
    list of TCP segments sent from a flow key that is not (or no
    longer) registered at the sending host. With ``drop=True`` they are
    also discarded instead of transmitted — the reference the engine
    goldens in ``test_release.py`` were recorded with at the parent.
    """
    seen = []
    send = Host.send

    def checked_send(host: Host, packet) -> None:
        if (
            isinstance(packet, TCPSegment)
            and (packet.src, packet.sport, packet.dst, packet.dport) not in host._connections
        ):
            seen.append(packet)
            if drop:
                return
        send(host, packet)

    Host.send = checked_send
    try:
        yield seen
    finally:
        Host.send = send
