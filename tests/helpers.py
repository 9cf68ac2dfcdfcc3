"""Shared fixtures/builders for the test suite."""

from __future__ import annotations

import hashlib
import os
import pathlib
import signal
from contextlib import contextmanager
from dataclasses import replace
from typing import Optional, Tuple, Type
from unittest import mock

from repro.net.link import Link
from repro.net.node import Host
from repro.net.packet import TCPSegment
from repro.obs.outcome import outcome_digest
from repro.rdcn.config import NotifierConfig, RDCNConfig
from repro.rdcn.rotor import round_robin_matchings
from repro.rdcn.topology import build_two_rack_testbed
from repro.sim.simulator import Simulator
from repro.tcp.config import TCPConfig
from repro.tcp.connection import TCPConnection
from repro.tcp.sockets import create_connection_pair
from repro.units import gbps, msec, usec


class BoundedLink(Link):
    """A :class:`Link` whose FIFO holds at most ``capacity`` packets: a
    later arrival is dropped and flagged. The loss tests' bottleneck;
    the fabric's own bounded queues are :mod:`repro.net.queues`."""

    def __init__(self, *args, capacity: int, **kwargs):
        super().__init__(*args, **kwargs)
        self.capacity = capacity
        self.drops = 0

    def send(self, packet) -> bool:
        if not self.down and len(self) >= self.capacity:
            packet.dropped = True
            self.drops += 1
            return False
        return super().send(packet)


def _access_link(sim, rate_bps, one_way_ns, deliver, capacity, name) -> Link:
    if capacity is None:
        return Link(sim, rate_bps, one_way_ns, deliver, name=name)
    return BoundedLink(sim, rate_bps, one_way_ns, deliver, name=name, capacity=capacity)


@contextmanager
def heartbeat_every(events: int):
    """Executors in this block heartbeat every ``events`` simulated events
    (``HEARTBEAT_EVENTS`` is sized for full-length runs)."""
    from repro.experiments import executor

    with mock.patch.object(executor, "HEARTBEAT_EVENTS", events):
        yield


def two_hosts(
    sim: Optional[Simulator] = None,
    rate_bps: float = gbps(10),
    one_way_ns: int = usec(20),
    forward_queue: Optional[int] = None,
    reverse_queue: Optional[int] = None,
) -> Tuple[Simulator, Host, Host, Link, Link]:
    """Two hosts joined by one link in each direction; a ``*_queue``
    bound makes that direction a :class:`BoundedLink`."""
    sim = sim or Simulator()
    a = Host(sim, "r0h0")
    b = Host(sim, "r1h0")
    ab = _access_link(sim, rate_bps, one_way_ns, b.deliver, forward_queue, "ab")
    ba = _access_link(sim, rate_bps, one_way_ns, a.deliver, reverse_queue, "ba")
    a.attach_egress(ab)
    b.attach_egress(ba)
    return sim, a, b, ab, ba


def rotor_day_pattern(n_racks: int, rack_a: int, rack_b: int) -> list:
    """The TDN day pattern one rack pair sees over a rotor week of
    ``round_robin_matchings(n_racks)``: the optical TDN (1) in the slot
    of its matching, the packet network (0) in every other slot."""
    if rack_a == rack_b:
        raise ValueError("a rack is always connected to itself")
    key = (min(rack_a, rack_b), max(rack_a, rack_b))
    return [int(key in matching) for matching in round_robin_matchings(n_racks)]


def assert_invariants(connection: TCPConnection) -> None:
    """Raise on the first accounting invariant ``connection`` breaks
    (the raising form of ``invariant_findings``)."""
    for check, subject, detail in connection.invariant_findings():
        raise AssertionError(f"{check} @ {subject}: {detail}")


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


def notification_fingerprint(
    notifier: NotifierConfig, plan=None, listen_on=None
) -> Tuple[dict, list]:
    """Run a 2 x 4-host testbed for three weeks with one TDTCP bulk flow
    per host pair (and ``plan``'s faults armed, if given) and summarize
    everything the notification path decides: which host listener saw
    which notification when (in call order), the notifier's latency
    samples, and per-host stale counts.

    ``listen_on`` names the hosts (addresses) that get the recording
    listener; only a host pair with a listening end carries a flow, so
    every other host is one nobody but the notifier listens on. Default:
    every host. The goldens pinned before the parameter existed compare
    whole dicts, so the per-host ``rx_packets`` and last accepted
    ``notify_seq`` rows are added only when it is given.

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
    listening = {host.address for host in hosts} if listen_on is None else set(listen_on)
    for host in hosts:
        if host.address in listening:
            host.subscribe_tdn_changes(
                lambda n, address=host.address: calls.append(
                    (sim.now, address, n.tdn_id, n.notify_seq, n.generated_ns)
                )
            )
    for a, b in zip(testbed.hosts[0], testbed.hosts[1]):
        if a.address in listening or b.address in listening:
            bulk_pair(sim, a, b, connection_cls=TDTCPConnection, tdn_count=cfg.n_tdns)
    testbed.start()
    sim.run(until=cfg.week_ns * 3)

    fingerprint = {"calls": len(calls), "calls_sha": outcome_digest(calls)[:16]}
    fingerprint.update(notifier_fingerprint(testbed))
    if listen_on is None:
        del fingerprint["rx_packets"], fingerprint["last_seq"]
    return fingerprint, calls


def notifier_fingerprint(testbed) -> dict:
    """What a two-rack testbed's notifier left behind: its latency
    samples (count, sum and hash, in recorded order) and, per host, the
    stale count, the arrivals (``rx_packets``) and the last accepted
    ``notify_seq``."""
    hosts = testbed.hosts[0] + testbed.hosts[1]
    latencies = testbed.notifier.delivery_latency_samples
    return {
        "latencies": len(latencies),
        "latency_sum": sum(latencies),
        "latencies_sha": outcome_digest(latencies)[:16],
        "stale": [host.stale_notifications for host in hosts],
        "rx_packets": [host.rx_packets for host in hosts],
        "last_seq": [host._last_notify_seq for host in hosts],
    }


def run_keeping_testbed(config, monkeypatch, per_host: bool = False):
    """``run_experiment(config)`` and the two-rack testbed it built.
    ``per_host`` arms a pass-through fault hook (every notification
    once, on time: ``[0]``), which puts the notifier on its per-host
    path."""
    import repro.experiments.runner as runner

    beds = []

    def build(*args, **kwargs):
        testbed = build_two_rack_testbed(*args, **kwargs)
        if per_host:
            testbed.notifier.fault_hook = lambda host, notification: [0]
        beds.append(testbed)
        return testbed

    monkeypatch.setattr(runner, "build_two_rack_testbed", build)
    result = runner.run_experiment(config)
    assert result.failure is None
    return result, beds[0]


# The RPC mix of the ledger's ``rpc_churn``: small messages, so flows
# finish (and are released) well inside a short horizon.
RPC_CDF = ((0.0, 2_000), (0.5, 4_000), (0.9, 16_000), (1.0, 64_000))


def tdtcp_engine(
    fabric: str, seed: int = 1, max_flows: Optional[int] = None, load: float = 0.4,
    record_cap: int = 0,
):
    """A started testbed carrying a TDTCP :class:`WorkloadEngine` on the
    RPC mix (no engine when ``max_flows == 0``): ``fabric`` is
    ``"two-rack"`` or ``"opera"`` (8 racks, 7 TDNs, all-to-all).
    ``record_cap`` keeps a reservoir of that many per-flow records.

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
            max_flows=max_flows, record_cap=record_cap,
        )
        engine.start()
    testbed.start()
    return testbed, engine, period_ns


def opera_notifier_cost(monkeypatch, control_delay_ns: Optional[int] = None, **costs) -> None:
    """Notifiers built from here on use the calibrated cost constants
    named in ``costs`` (lower case: ``pull_read_cost_ns=0`` sets
    ``repro.rdcn.notifier.PULL_READ_COST_NS``), and rotor testbeds
    announce with ``control_delay_ns`` over what ``build_opera_testbed``
    asks for. Neither is an option (one value in use), so a test that
    needs another swaps the names the notifier and the builder read."""
    import repro.rdcn.notifier as notifier
    import repro.rdcn.opera as opera

    for name, value in costs.items():
        monkeypatch.setattr(notifier, name.upper(), value)
    if control_delay_ns is not None:
        monkeypatch.setattr(
            opera, "NotifierConfig",
            lambda **asked: NotifierConfig(**{**asked, "control_delay_ns": control_delay_ns}),
        )


def engine_fingerprint(
    fabric: str, seed: int, periods: int, max_flows: Optional[int] = None, load: float = 0.4
) -> dict:
    """Everything a :func:`tdtcp_engine` run reports about its flows
    after ``periods`` weeks/cycles: the ``outcome_digest`` of the summary
    and the serialized sketches, plus the counts a reader wants to see.
    """
    testbed, engine, period_ns = tdtcp_engine(fabric, seed, max_flows, load)
    horizon_ns = periods * period_ns
    testbed.sim.run(until=horizon_ns)
    stats = engine.finish()
    summary = stats.summary(horizon_ns, engine.n_racks, engine.load)
    return {
        "started": stats.started,
        "completed": stats.completed,
        "sha256": outcome_digest({"summary": summary, "sketches": stats.sketches()}),
    }


@contextmanager
def host_send_hook(hook):
    """Every ``Host.send`` goes through ``hook(send, host, packet)`` for
    the duration; ``send`` is the real method."""
    send = Host.send
    Host.send = lambda host, packet: hook(send, host, packet)
    try:
        yield
    finally:
        Host.send = send


@contextmanager
def unregistered_sends(drop: bool = False):
    """The ``Host.send`` oracle for zombie transmissions: yields the
    list of TCP segments sent from a flow key that is not (or no
    longer) registered at the sending host. With ``drop=True`` they are
    also discarded instead of transmitted — the reference the engine
    goldens in ``test_release.py`` were recorded with at the parent.
    """
    seen = []

    def checked_send(send, host: Host, packet) -> None:
        if (
            isinstance(packet, TCPSegment)
            and (packet.src, packet.sport, packet.dst, packet.dport) not in host._connections
        ):
            seen.append(packet)
            if drop:
                return
        send(host, packet)

    with host_send_hook(checked_send):
        yield seen


# ----------------------------------------------------------------------
# The determinism contract: three seeded trace workloads (one body,
# three set-ups) and the plain-heap oracle the event core is compared to
# ----------------------------------------------------------------------
# Pinned at this scale by tests/test_trace_goldens.py.
FULL_SCALE = {
    "seed": 1,
    "bulk_weeks": 10,
    "bulk_flows": 8,
    "incast_weeks": 16,
    "incast_workers": 8,
    "short_weeks": 20,
}


def bulk_workload(cfg, sim: Optional[Simulator] = None):
    """``cfg.n_flows`` bulk flows of ``cfg.variant`` on a two-rack
    testbed, as the runner builds them but with nothing collected and
    nothing started. Returns ``(testbed, workload)``."""
    from repro.apps.workload import build_workload
    from repro.experiments.variants import get_variant

    variant = get_variant(cfg.variant)
    testbed = build_two_rack_testbed(replace(cfg.rdcn, seed=cfg.seed), sim=sim)
    context = variant.prepare(testbed, cfg)
    workload = build_workload(
        testbed,
        lambda tb, src, dst, i: variant.make_flow(tb, src, dst, i, cfg, context),
        n_flows=cfg.n_flows,
    )
    return testbed, workload


def run_bulk(sim: Simulator, scale: dict) -> None:
    """Fig-7 style bulk transfer: N long-lived TDTCP flows across the
    reconfigurable fabric (the paper's headline workload)."""
    from repro.experiments.config import ExperimentConfig

    cfg = ExperimentConfig(
        variant="tdtcp",
        n_flows=scale["bulk_flows"],
        weeks=scale["bulk_weeks"],
        warmup_weeks=2,
        seed=scale["seed"],
    )
    testbed, _workload = bulk_workload(cfg, sim)
    testbed.start()
    sim.run(until=cfg.duration_ns)


def run_incast_workload(sim: Simulator, scale: dict) -> None:
    """Barrier-style N-to-1 incast on the shared VOQ."""
    from repro.apps.incast import run_incast
    from repro.core.tdtcp import TDTCPConnection

    testbed = build_two_rack_testbed(
        RDCNConfig(n_hosts_per_rack=max(scale["incast_workers"], 4), seed=scale["seed"]),
        sim=sim,
    )
    run_incast(
        testbed,
        n_workers=scale["incast_workers"],
        duration_ns=testbed.config.week_ns * scale["incast_weeks"],
        connection_cls=TDTCPConnection,
        tdn_count=2,
    )


def replay_short_flows(
    testbed,
    connection_cls: Type[TCPConnection],
    duration_ns: int,
    mean_interarrival_ns: int = usec(400),
    **conn_kwargs,
):
    """§5.1's short-flow study on a built (unstarted) testbed: replay a
    Poisson trace of 15 KB RPCs from ``r0h0`` to ``r1h0`` through the
    workload engine until ``duration_ns``. Returns the engine's
    ``CompletionStats``; its ``records`` keep every completed flow."""
    from repro.apps.engine import WorkloadEngine, poisson_trace

    trace = poisson_trace(
        testbed.rng, testbed.host(0, 0).address, testbed.host(1, 0).address,
        15_000, mean_interarrival_ns, duration_ns,
    )
    engine = WorkloadEngine(
        testbed, testbed.rng, trace=trace, connection_cls=connection_cls,
        record_cap=len(trace), **conn_kwargs,
    )
    engine.start()
    testbed.start()
    testbed.sim.run(until=duration_ns)
    return engine.finish()


def fct_values_us(stats) -> list:
    """Every completed flow's FCT (us) from a full reservoir."""
    return [record.fct_ns / 1000 for record in stats.records]


def run_shortflow_workload(sim: Simulator, scale: dict) -> None:
    """Poisson churn of 15 KB RPCs: connection setup/teardown pressure."""
    from repro.core.tdtcp import TDTCPConnection

    testbed = build_two_rack_testbed(RDCNConfig(seed=scale["seed"]), sim=sim)
    replay_short_flows(
        testbed,
        TDTCPConnection,
        testbed.config.week_ns * scale["short_weeks"],
        tdn_count=2,
    )


def traced_run(setup, scale: dict, trace_dir: pathlib.Path) -> dict:
    """Run one of the set-ups above on a fresh simulator with a
    JSONL-only telemetry recorder and hash the trace bytes.

    Returns ``events``, ``trace_lines``, ``trace_sha256`` and the
    queue's deterministic ``stats()`` counters.
    """
    from repro.obs.telemetry import ObsConfig, Telemetry

    sim = Simulator()
    telemetry = Telemetry(
        ObsConfig(trace_dir=str(trace_dir), label=setup.__name__,
                  chrome_trace=False, csv=False)
    ).attach(sim)
    setup(sim, scale)
    (jsonl_path,) = [p for p in telemetry.finish() if p.endswith(".jsonl")]
    data = pathlib.Path(jsonl_path).read_bytes()
    return {
        "events": sim.processed_events,
        "trace_lines": data.count(b"\n"),
        "trace_sha256": hashlib.sha256(data).hexdigest(),
        "queue": sim._queue.stats(),
    }


@contextmanager
def grid_pacing():
    """The oracle for the pace-what-is-sent rule: for the duration,
    ``TDTCPConnection._maybe_send`` is the free-running tick grid it
    replaced — inside the post-switch window every connection ticks once
    per pace interval, whether or not it has anything to send, and a
    pending FIN waits for the first tick after the window. A run under
    it must reproduce the goldens recorded before the rule."""
    from repro.core.tdtcp import TDTCPConnection

    def maybe_send(self) -> None:
        if self._fluid_hold:
            return
        if not self.switch_pacing or self.sim.now >= self._pace_until_ns:
            self._pace_timer.cancel()
            TCPConnection._maybe_send(self)
            return
        if self._pace_timer.armed:
            return
        if self.state in ("established", "close-wait"):
            self._try_send_one()
        self._pace_timer.start(self._pace_interval_ns())

    paced = TDTCPConnection._maybe_send
    TDTCPConnection._maybe_send = maybe_send
    try:
        yield
    finally:
        TDTCPConnection._maybe_send = paced


def kill_pooled_worker_once(
    payload: dict, every_events: Optional[int], *, seed: int, after_events: int, marker: str
):
    """A stand-in for ``repro.experiments.executor.execute_pooled``:
    bind the keywords with ``functools.partial`` and monkeypatch it in;
    spawned workers unpickle it by reference. The first worker to run
    ``seed`` SIGKILLs its own process, at once when ``after_events`` is
    0, else at its first heartbeat at or past ``after_events`` simulated
    events. It creates ``marker`` first and writes the event count it
    died at into it, so the resubmission on the rebuilt pool, and every
    other run, is plain ``execute_pooled``."""
    from repro.experiments import executor
    from repro.experiments.runner import set_worker_heartbeat

    if payload["seed"] != seed:
        return executor.execute_pooled(payload, every_events)
    try:
        os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
    except FileExistsError:
        return executor.execute_pooled(payload, every_events)

    def die(events: int) -> None:
        pathlib.Path(marker).write_text(str(events))
        os.kill(os.getpid(), signal.SIGKILL)

    if after_events <= 0:
        die(0)
    beats = []

    def beat(*fields) -> None:
        beats.append(fields)
        if fields[1] >= after_events:
            die(fields[1])

    set_worker_heartbeat(beat, min(every_events or after_events, after_events))
    try:
        return executor.execute_config_dict(payload), beats
    finally:
        set_worker_heartbeat(None)


def truncate_journal_tail(path) -> bool:
    """Tear a closed campaign journal's final record in half: what a
    SIGKILL in the middle of its ``write`` leaves. False when there is
    no record to tear. (Truncating under an open append handle would
    leave null-byte holes instead.)"""
    path = pathlib.Path(path)
    lines = path.read_text().splitlines(keepends=True)
    last = lines[-1].rstrip("\n") if lines else ""
    if len(last) < 2:
        return False
    path.write_text("".join(lines[:-1]) + last[: len(last) // 2])
    return True
