"""TDTCP building blocks: per-TDN state, reordering filter, RTT rules,
options/negotiation."""

from types import SimpleNamespace

import pytest

from repro.core.reordering import suspect_cross_tdn_reordering
from repro.core.rtt import pessimistic_rto_ns
from repro.core.tdn_state import PerTDNState
from repro.core.tdtcp import TDTCPConnection
from repro.tcp.config import TCPConfig
from repro.tcp.connection import PathState
from repro.tcp.options import (
    MAX_SACK_BLOCKS,
    MAX_TDNS,
    clip_sack_blocks,
    negotiate_td_capable,
)
from repro.tcp.sockets import create_connection_pair
from repro.units import msec, usec

from tests.helpers import two_hosts


class FakeClock:
    def now_ns(self):
        return 0


def make_state(n=2):
    cfg = TCPConfig()
    return PerTDNState(lambda i: PathState(FakeClock(), "cubic", cfg, tdn_id=i), n)


def tdtcp_client(tdn_count=2):
    """A TDTCP sender over ``tdn_count`` state sets, not yet connected."""
    sim, a, b, _ab, _ba = two_hosts()
    client, _server = create_connection_pair(
        sim, a, b, connection_cls=TDTCPConnection, tdn_count=tdn_count
    )
    return client


class TestPerTDNState:
    def test_initial_count(self):
        state = make_state(3)
        assert len(state) == 3
        assert state.current_index == 0
        assert [p.tdn_id for p in state.paths] == [0, 1, 2]

    def test_switch(self):
        state = make_state(2)
        assert state.switch_to(1) is True
        assert state.paths[state.current_index].tdn_id == 1
        assert state.switches == 1

    def test_switch_noop(self):
        state = make_state(2)
        assert state.switch_to(0) is False
        assert state.switches == 0

    def test_switch_preserves_checkpoint(self):
        """§3.1: the inactive set is a snapshot, resumed unchanged."""
        state = make_state(2)
        state.paths[state.current_index].cc.cwnd = 55.0
        state.switch_to(1)
        state.paths[state.current_index].cc.cwnd = 7.0
        state.switch_to(0)
        assert state.paths[state.current_index].cc.cwnd == 55.0
        state.switch_to(1)
        assert state.paths[state.current_index].cc.cwnd == 7.0

    def test_grows_on_new_tdn(self):
        state = make_state(2)
        state.switch_to(4)
        assert len(state) == 5
        assert state.paths[state.current_index].tdn_id == 4

    def test_all_tdns_semantic(self):
        client = tdtcp_client(3)
        client.paths[0].packets_out = 2
        client.paths[2].packets_out = 5
        assert client.total_packets_out() == 7

    def test_any_tdn_semantic(self):
        client = tdtcp_client(2)
        assert not client.any_path_has_losses()
        client.paths[1].lost_out = 1
        assert client.any_path_has_losses()

    def test_specific_tdn_clamped(self):
        client = tdtcp_client(2)
        assert client.path_of(SimpleNamespace(tdn_id=1)).tdn_id == 1
        assert client.path_of(SimpleNamespace(tdn_id=9)).tdn_id == 0  # out of range -> 0

    def test_slowest_srtt(self):
        state = make_state(2)
        state.paths[0].rtt.update(usec(100))
        state.paths[1].rtt.update(usec(40))
        assert state.slowest_srtt_ns() == usec(100)

    def test_needs_at_least_one(self):
        with pytest.raises(ValueError):
            make_state(0)


class TestRelaxedReordering:
    def test_same_tdn_is_loss_candidate(self):
        assert not suspect_cross_tdn_reordering(1, 1, 100, 500)

    def test_cross_tdn_before_pointer_exempted(self):
        assert suspect_cross_tdn_reordering(0, 1, 100, 500)

    def test_cross_tdn_after_pointer_not_exempted(self):
        assert not suspect_cross_tdn_reordering(0, 1, 900, 500)

    def test_untagged_ack_never_exempts(self):
        assert not suspect_cross_tdn_reordering(0, None, 100, 500)


class TestRTTRules:
    def test_classification(self):
        """Type-1/2 samples (data and ACK on one TDN) and untagged ACKs
        are kept; type-3 (crossed) samples are discarded."""
        client = tdtcp_client(2)

        def allowed(data_tdn, ack_tdn):
            seg, pkt = SimpleNamespace(tdn_id=data_tdn), SimpleNamespace(ack_tdn=ack_tdn)
            return client._rtt_sample_allowed(seg, pkt)

        assert allowed(0, 0)
        assert allowed(1, 1)
        assert not allowed(0, 1)
        assert allowed(1, None)

    def _paths(self):
        cfg = TCPConfig()
        paths = [PathState(FakeClock(), "cubic", cfg, tdn_id=i) for i in range(2)]
        return paths

    def test_pessimistic_rto_uses_slowest(self):
        paths = self._paths()
        for _ in range(10):
            paths[0].rtt.update(usec(100))
            paths[1].rtt.update(usec(40))
        # Sending on the fast TDN still assumes the slow return path:
        # synth = 40/2 + 100/2 = 70 us (plus variance, clamped to floor).
        rto_fast = pessimistic_rto_ns(paths, 1, usec(10))
        rto_slow = pessimistic_rto_ns(paths, 0, usec(10))
        assert rto_fast >= usec(70)
        assert rto_slow >= rto_fast  # 100/2 + 100/2 = 100 us synth

    def test_pessimistic_rto_without_samples(self):
        paths = self._paths()
        assert pessimistic_rto_ns(paths, 0, msec(1)) == msec(2)

    def test_pessimistic_rto_partial_samples(self):
        paths = self._paths()
        paths[0].rtt.update(usec(100))
        rto = pessimistic_rto_ns(paths, 1, usec(10))
        assert rto >= usec(100)  # falls back to the slowest TDN


class TestTDCapableNegotiation:
    def test_agreement(self):
        assert negotiate_td_capable(2, 2) == 2

    def test_mismatch_downgrades(self):
        assert negotiate_td_capable(2, 3) is None

    def test_absence_downgrades(self):
        assert negotiate_td_capable(2, None) is None
        assert negotiate_td_capable(None, 2) is None

    def test_bounds(self):
        assert negotiate_td_capable(0, 0) is None
        assert negotiate_td_capable(MAX_TDNS + 1, MAX_TDNS + 1) is None
        assert negotiate_td_capable(MAX_TDNS, MAX_TDNS) == MAX_TDNS

    def test_sack_clipping(self):
        blocks = tuple((i, i + 1) for i in range(6))
        assert len(clip_sack_blocks(blocks)) == MAX_SACK_BLOCKS
