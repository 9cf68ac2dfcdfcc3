"""Congestion control algorithms: Reno, CUBIC, DCTCP, registry."""

import pytest

from repro.tcp.cc import (
    CubicCC,
    DCTCPCC,
    RenoCC,
    make_congestion_control,
)
from repro.units import usec


class FakeClock:
    def __init__(self):
        self.t = 0

    def now_ns(self):
        return self.t

    def advance(self, ns):
        self.t += ns


class TestRegistry:
    def test_known_names(self):
        for name, cls in (("reno", RenoCC), ("cubic", CubicCC), ("dctcp", DCTCPCC)):
            assert type(make_congestion_control(name, FakeClock())) is cls

    def test_factory(self):
        cc = make_congestion_control("cubic", FakeClock(), initial_cwnd=5)
        assert isinstance(cc, CubicCC)
        assert cc.cwnd == 5

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            make_congestion_control("bogus", FakeClock())


class TestReno:
    def test_slow_start_doubles_per_rtt(self):
        cc = RenoCC(FakeClock(), initial_cwnd=10)
        cc.on_ack(10, usec(100), 10)
        assert cc.cwnd == 20

    def test_congestion_event_halves(self):
        cc = RenoCC(FakeClock(), initial_cwnd=20)
        cc.on_congestion_event()
        assert cc.cwnd == 10
        assert cc.ssthresh == 10
        assert not cc.in_slow_start

    def test_congestion_avoidance_linear(self):
        cc = RenoCC(FakeClock(), initial_cwnd=20)
        cc.on_congestion_event()  # cwnd 10, CA mode
        start = cc.cwnd
        # One full window of ACKs grows cwnd by ~1.
        cc.on_ack(int(start), usec(100), int(start))
        assert start + 0.5 <= cc.cwnd <= start + 1.5

    def test_slow_start_stops_at_ssthresh(self):
        cc = RenoCC(FakeClock(), initial_cwnd=8)
        cc.ssthresh = 12
        cc.on_ack(8, usec(100), 8)
        assert cc.cwnd < 14  # 4 in SS, the rest CA credit

    def test_rto_collapses(self):
        cc = RenoCC(FakeClock(), initial_cwnd=40)
        cc.on_rto()
        assert cc.cwnd == 1
        assert cc.ssthresh == 20

    def test_min_cwnd_floor(self):
        cc = RenoCC(FakeClock(), initial_cwnd=2)
        cc.on_congestion_event()
        assert cc.cwnd >= cc.min_cwnd


class TestCubic:
    def test_slow_start(self):
        cc = CubicCC(FakeClock(), initial_cwnd=10)
        cc.on_ack(10, usec(100), 10)
        assert cc.cwnd == 20

    def test_reduction_factor(self):
        cc = CubicCC(FakeClock(), initial_cwnd=100)
        cc.on_congestion_event()
        assert cc.cwnd == pytest.approx(70.0)
        assert cc.w_last_max == 100

    def test_fast_convergence_lowers_wmax(self):
        cc = CubicCC(FakeClock(), initial_cwnd=100)
        cc.on_congestion_event()  # w_last_max=100
        cc.cwnd = 80              # below previous max
        cc.on_congestion_event()
        assert cc.w_max < 80 * 1.01  # reduced below the loss point

    def test_growth_after_reduction(self):
        clock = FakeClock()
        cc = CubicCC(clock, initial_cwnd=100)
        cc.on_congestion_event()
        start = cc.cwnd
        for _ in range(60):
            clock.advance(usec(100))
            cc.on_ack(int(cc.cwnd), usec(100), int(cc.cwnd))
        assert cc.cwnd > start

    def test_never_below_min(self):
        cc = CubicCC(FakeClock(), initial_cwnd=2)
        for _ in range(5):
            cc.on_congestion_event()
        assert cc.cwnd >= cc.min_cwnd

    def test_rto_resets_epoch(self):
        cc = CubicCC(FakeClock(), initial_cwnd=50)
        cc.on_ack(10, usec(100), 10)
        cc.on_rto()
        assert cc.cwnd == 1
        assert cc.epoch_start_ns is None

    def test_handoff_preserves_fractional_credit(self):
        # Regression: crossing ssthresh used to truncate the slow-start
        # growth to an integer (``acked_packets -= int(grow)``), so the
        # fractional MSS spent reaching ssthresh was spent again in the
        # cubic region. The handoff must be exact: 0.5 MSS fills the gap,
        # exactly 1.5 ACKs of credit reach the avoidance math.
        cc = CubicCC(FakeClock(), initial_cwnd=10)
        cc.ssthresh = 10.5
        cc.on_ack(2, usec(100), 10)
        friendly_gain = 3.0 * (1.0 - cc.BETA) / (1.0 + cc.BETA)
        assert cc._tcp_cwnd == pytest.approx(10.5 + friendly_gain * 1.5 / 10.5)

    def test_tcp_friendly_update_without_rtt_sample(self):
        # RFC 8312 §4.2 grows the Reno-emulation estimate on every ACK;
        # it used to be skipped whenever rtt_ns was falsy, letting the
        # cubic region detach from the TCP-friendly floor before the
        # first RTT sample landed.
        cc = CubicCC(FakeClock(), initial_cwnd=100)
        cc.on_congestion_event()  # exit slow start at cwnd == ssthresh
        cc.on_ack(10, None, 50)
        assert cc._tcp_cwnd > cc.ssthresh

    def test_snapshot_fields(self):
        cc = CubicCC(FakeClock(), initial_cwnd=10)
        snap = cc.snapshot()
        assert snap["name"] == "cubic"
        assert "w_max" in snap


class TestDCTCP:
    def test_growth_without_marks_like_reno(self):
        cc = DCTCPCC(FakeClock(), initial_cwnd=10)
        cc.on_ack(10, usec(100), 10, ece=False)
        assert cc.cwnd == 20

    def test_alpha_decays_without_marks(self):
        cc = DCTCPCC(FakeClock(), initial_cwnd=10)
        assert cc.alpha == 1.0
        for _ in range(50):
            cc.on_ack(int(cc.cwnd), usec(100), int(cc.cwnd), ece=False)
        assert cc.alpha < 0.2

    def test_full_marking_halves(self):
        cc = DCTCPCC(FakeClock(), initial_cwnd=100)
        cc.ssthresh = 50  # leave slow start
        cc.alpha = 1.0
        before = cc.cwnd
        cc.on_ack(100, usec(100), 100, ece=True)  # a full marked window
        assert cc.cwnd == pytest.approx(before * 0.5, rel=0.1)

    def test_partial_marking_gentler_than_halving(self):
        cc = DCTCPCC(FakeClock(), initial_cwnd=100)
        cc.ssthresh = 50
        cc.alpha = 0.1
        before = cc.cwnd
        # one window with marks present
        cc.on_ack(50, usec(100), 100, ece=False)
        cc.on_ack(50, usec(100), 100, ece=True)
        assert cc.cwnd > before * 0.6

    def test_loss_still_halves(self):
        cc = DCTCPCC(FakeClock(), initial_cwnd=40)
        cc.on_congestion_event()
        assert cc.cwnd == 20

    def test_alpha_in_snapshot(self):
        assert "alpha" in DCTCPCC(FakeClock()).snapshot()
