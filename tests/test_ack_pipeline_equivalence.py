"""ACK-pipeline equivalence: fused loop vs reference functions.

``TCPConnection._handle_ack`` does three per-ACK passes in one loop:
the RTT sample election, the RACK delivery bookkeeping and the per-path
credit tally. The unfused passes live here as the oracle
(``_take_rtt_samples``, ``_update_rack``); this test pins the fusion by
replaying every ACK of a fig-7-style TDTCP bulk run through both and
comparing the resulting RTT estimator and RACK states field by field.

Mechanics: each sender's ``_handle_ack`` is wrapped per instance. The
wrapper snapshots deep copies of the per-path RTT estimators and the
RACK state, captures the ``newly_acked`` / ``newly_sacked`` lists the
real handler computes, lets the fused pipeline run, then swaps the
pristine copies in and drives the reference functions over the same
segment lists. Both endpoints of the comparison saw identical inputs,
so any divergence is a real behavioural difference in the fusion.
"""

from __future__ import annotations

import copy

from repro.experiments import ExperimentConfig
from tests.helpers import bulk_workload


def _take_rtt_samples(conn, newly_acked, newly_sacked, pkt):
    """Reference RTT election: Karn's rule plus the TDTCP type-3 filter
    (via the connection's hook).

    A segment is sampled when it is *first* acknowledged: at SACK time
    for out-of-order deliveries, at cumulative-ACK time otherwise.
    Previously-SACKed segments covered by a later cumulative ACK are
    excluded — their delivery happened earlier and ``now - sent_ns``
    would grossly overestimate the RTT (the same exclusion the Linux
    stack applies).
    """
    sample_seg = None
    for seg in newly_acked:
        if seg.retx_count > 0:
            continue  # Karn: never sample retransmitted segments
        if seg.sacked:
            continue  # first acknowledged long ago, via SACK
        if not conn._rtt_sample_allowed(seg, pkt):
            continue  # §4.4: discard cross-TDN (type-3) samples
        if sample_seg is None or seg.end_seq > sample_seg.end_seq:
            sample_seg = seg
    for seg in newly_sacked:
        if seg.retx_count > 0:
            continue
        if not conn._rtt_sample_allowed(seg, pkt):
            continue
        if sample_seg is None or seg.end_seq > sample_seg.end_seq:
            sample_seg = seg
    if sample_seg is not None:
        sample = conn.sim.now - sample_seg.sent_ns
        conn.path_of(sample_seg).rtt.update(sample)


def _update_rack(conn, newly_acked, newly_sacked):
    """Reference RACK bookkeeping: every first-transmission delivery
    advances the most-recently-delivered mark."""
    for seg in newly_acked:
        if seg.retx_count == 0:
            conn.rack.update_on_delivered(seg.sent_ns, seg.end_seq)
    for seg in newly_sacked:
        if seg.retx_count == 0:
            conn.rack.update_on_delivered(seg.sent_ns, seg.end_seq)


def _rtt_state(estimator):
    return (
        estimator.srtt_ns,
        estimator.rttvar_ns,
        estimator.mdev_ns,
        estimator.min_rtt_ns,
        estimator.latest_rtt_ns,
        estimator.samples,
    )


def _attach_shadow(conn):
    """Wrap ``conn._handle_ack`` with the fused-vs-reference checker.

    Returns a counter dict updated live; the test asserts afterwards
    that the shadow actually exercised a meaningful number of ACKs.
    """
    orig_handle = conn._handle_ack
    orig_collect = conn._collect_cum_acked
    orig_sack = conn._apply_sack
    counters = {"acks": 0, "compared": 0, "rtt_updates": 0}

    def wrapped_handle_ack(pkt):
        captured = {}

        def collect(ack):
            segs = orig_collect(ack)
            captured["acked"] = segs
            return segs

        def apply_sack(p):
            segs = orig_sack(p)
            captured["sacked"] = segs
            return segs

        pre_rtts = [copy.deepcopy(path.rtt) for path in conn.paths]
        pre_rack = copy.deepcopy(conn.rack)
        conn._collect_cum_acked = collect
        conn._apply_sack = apply_sack
        try:
            orig_handle(pkt)
        finally:
            del conn._collect_cum_acked
            del conn._apply_sack
        counters["acks"] += 1
        acked = captured.get("acked", [])
        sacked = captured.get("sacked", [])
        if not acked and not sacked:
            return
        fused_rtts = [_rtt_state(path.rtt) for path in conn.paths]
        fused_rack = (conn.rack.xmit_ns, conn.rack.end_seq)
        # Swap the pre-ACK copies in and drive the reference pipeline
        # over the very same segment lists (segment flags read by the
        # reference functions are not mutated after _apply_sack, so the
        # replay sees what the fused loop saw).
        real_rtts = [path.rtt for path in conn.paths]
        real_rack = conn.rack
        for path, pristine in zip(conn.paths, pre_rtts):
            path.rtt = pristine
        conn.rack = pre_rack
        try:
            _take_rtt_samples(conn, acked, sacked, pkt)
            _update_rack(conn, acked, sacked)
            reference_rtts = [_rtt_state(path.rtt) for path in conn.paths]
            reference_rack = (conn.rack.xmit_ns, conn.rack.end_seq)
        finally:
            for path, real in zip(conn.paths, real_rtts):
                path.rtt = real
            conn.rack = real_rack
        assert fused_rtts == reference_rtts, (
            f"RTT divergence on ACK {pkt.ack} at t={conn.sim.now}: "
            f"fused={fused_rtts} reference={reference_rtts}"
        )
        assert fused_rack == reference_rack, (
            f"RACK divergence on ACK {pkt.ack} at t={conn.sim.now}: "
            f"fused={fused_rack} reference={reference_rack}"
        )
        counters["compared"] += 1
        if any(state[5] for state in fused_rtts):
            counters["rtt_updates"] += 1

    conn._handle_ack = wrapped_handle_ack
    return counters


class TestAckPipelineEquivalence:
    def test_fused_pipeline_matches_reference_on_bulk_run(self):
        cfg = ExperimentConfig(
            variant="tdtcp", n_flows=2, weeks=8, warmup_weeks=2, seed=11
        )
        testbed, workload = bulk_workload(cfg)
        shadows = [_attach_shadow(flow.sender) for flow in workload.flows]
        testbed.start()
        testbed.sim.run(until=cfg.duration_ns)

        total_acks = sum(s["acks"] for s in shadows)
        total_compared = sum(s["compared"] for s in shadows)
        total_sampled = sum(s["rtt_updates"] for s in shadows)
        # The run must genuinely exercise the pipeline, or the
        # assertions above are vacuous.
        assert total_acks > 500, f"only {total_acks} ACKs observed"
        assert total_compared > 500, f"only {total_compared} ACKs compared"
        assert total_sampled > 0, "no RTT samples were ever elected"
        assert sum(flow.delivered_bytes for flow in workload.flows) > 0
