"""ECN is said once: the congestion controller asks for ECT, every
VOQ (two-rack or rotor) marks ECT packets at K, and nothing else has to
be set.

The per-variant cases are generated from the ``VARIANTS`` registry, so
a new ECN CCA is covered the day it is registered.
"""

from contextlib import contextmanager
from dataclasses import replace

import pytest

import repro.experiments.runner as runner
from repro.core.tdtcp import TDTCPConnection
from repro.experiments import ExperimentConfig, VARIANTS, run_experiment
from repro.experiments.config import WorkloadConfig
from repro.experiments.variants import engine_variants
from repro.net.packet import TCPSegment
from repro.rdcn.config import ECN_THRESHOLD, RDCNConfig
from repro.rdcn.opera import OperaConfig, build_opera_testbed
from repro.rdcn.topology import build_two_rack_testbed
from repro.tcp.config import TCPConfig

from tests.helpers import bulk_pair, bulk_workload, host_send_hook


@contextmanager
def data_segments_sent():
    """Every data segment handed to ``Host.send``."""
    seen = []

    def recording_send(send, host, packet) -> None:
        if isinstance(packet, TCPSegment) and packet.payload_len:
            seen.append(packet)
        send(host, packet)

    with host_send_hook(recording_send):
        yield seen


def bulk_leg(cfg: ExperimentConfig):
    """``(wants_ecn, rack-0 VOQ, data segments)`` of a bulk run of
    ``cfg``; ``wants_ecn`` is read off the senders' own CCAs."""
    with data_segments_sent() as sent:
        testbed, workload = bulk_workload(cfg)
        testbed.start()
        testbed.sim.run(until=cfg.duration_ns)
    wants_ecn = any(
        path.cc.wants_ecn
        for flow in workload.flows
        for conn in getattr(flow.sender, "subflows", [flow.sender])
        for path in conn.paths
    )
    return wants_ecn, testbed.uplinks[0].queue, sent


def engine_leg(cfg: ExperimentConfig, monkeypatch):
    """``(rack-0 VOQ, data segments)`` of ``run_experiment(cfg)``."""
    beds = []

    def build(*args, **kwargs):
        beds.append(build_two_rack_testbed(*args, **kwargs))
        return beds[-1]

    monkeypatch.setattr(runner, "build_two_rack_testbed", build)
    with data_segments_sent() as sent:
        result = run_experiment(cfg)
    assert result.failure is None
    return beds[0].uplinks[0].queue, sent


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_every_variant_is_ecn_driven_iff_its_cca_asks(variant, monkeypatch):
    """Fig-7 setting, bulk and engine roads: a variant whose CCA wants
    ECN sends only ECT data and the VOQ marks it; any other sends none
    and is never marked."""
    cfg = ExperimentConfig(variant=variant, n_flows=2, weeks=4, warmup_weeks=1, seed=1)
    wants_ecn, voq, segments = bulk_leg(cfg)
    legs = [(voq, segments)]
    if variant in engine_variants():
        engine_cfg = replace(
            cfg, weeks=2, workload=WorkloadConfig(load=1.0, max_flows=16)
        )
        legs.append(engine_leg(engine_cfg, monkeypatch))
    for voq, segments in legs:
        assert segments
        assert voq.mark_threshold == cfg.rdcn.ecn_threshold
        if wants_ecn:
            assert all(seg.ecn_capable for seg in segments)
            assert voq.marks > 0
        else:
            assert not any(seg.ecn_capable for seg in segments)
            assert voq.marks == 0


@pytest.mark.parametrize("cc_name", ["dctcp", "cubic"])
def test_rotor_voqs_mark_at_the_two_rack_k(cc_name):
    """ECN does not stop at the fabric boundary: one bulk pair on the
    rotor fabric is marked iff its CCA asks (at the parent the rotor
    VOQs had no K and dctcp there was loss-driven)."""
    assert RDCNConfig().ecn_threshold == ECN_THRESHOLD
    cfg = OperaConfig(n_racks=4)
    testbed = build_opera_testbed(cfg)
    with data_segments_sent() as sent:
        bulk_pair(testbed.sim, testbed.host(0, 0), testbed.host(1, 0), cc_name=cc_name)
        testbed.start()
        testbed.sim.run(until=cfg.cycle_ns * 12)
    voqs = [voq for tor in testbed.tors.values() for voq in tor.voqs.values()]
    assert sent and {voq.mark_threshold for voq in voqs} == {ECN_THRESHOLD}
    if cc_name == "dctcp":
        assert all(seg.ecn_capable for seg in sent)
        assert sum(voq.marks for voq in voqs) > 0
    else:
        assert not any(seg.ecn_capable for seg in sent)
        assert {voq.marks for voq in voqs} == {0}


def test_tdtcp_segments_are_ect_per_tdn():
    """``cc_names=["reno", "dctcp"]``: a segment is ECT iff the CCA of
    the TDN that sends it asks."""
    testbed = build_two_rack_testbed(RDCNConfig(n_hosts_per_rack=1))
    client, _server = bulk_pair(
        testbed.sim, testbed.host(0, 0), testbed.host(1, 0),
        connection_cls=TDTCPConnection, tdn_count=2, cc_names=["reno", "dctcp"],
    )
    ect_by_tdn = {0: set(), 1: set()}
    send_packet = client._send_packet

    def noting_tdn(pkt):
        if pkt.payload_len:
            ect_by_tdn[client.current_path_index].add(pkt.ecn_capable)
        send_packet(pkt)

    client._send_packet = noting_tdn
    testbed.start()
    testbed.sim.run(until=testbed.config.week_ns * 3)
    assert ect_by_tdn == {0: {False}, 1: {True}}


def test_ecn_enabled_gives_any_cca_rfc3168():
    """``TCPConfig.ecn_enabled`` is ECN for a CCA that does not ask:
    cubic's segments are ECT, the VOQ marks them and the sender halves
    on the echo; the fluid model cannot mark, so tiered is forced to
    packet up front."""
    cfg = ExperimentConfig(
        variant="cubic", tcp=TCPConfig(ecn_enabled=True),
        n_flows=2, weeks=4, warmup_weeks=1, seed=1,
    )
    with data_segments_sent() as sent:
        testbed, workload = bulk_workload(cfg)
        testbed.start()
        testbed.sim.run(until=cfg.duration_ns)
    assert all(seg.ecn_capable for seg in sent)
    assert testbed.uplinks[0].queue.marks > 0
    assert sum(flow.sender.stats.ecn_reductions for flow in workload.flows) > 0

    result = run_experiment(replace(cfg, fidelity="tiered"))
    assert result.fidelity_report["forced_reasons"] == ["ecn"]
