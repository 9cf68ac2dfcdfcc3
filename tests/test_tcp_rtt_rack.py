"""RTT estimation (RFC 6298) and RACK loss detection."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tcp.rack import RackState, default_reo_wnd_ns
from repro.tcp.rtt import MAX_RTO_NS, RTTEstimator
from repro.units import msec, usec


def estimator():
    return RTTEstimator(min_rto_ns=msec(1))


class TestRTTEstimator:
    def test_first_sample_initializes(self):
        est = estimator()
        est.update(usec(100))
        assert est.srtt_ns == usec(100)
        assert est.rttvar_ns == usec(50)
        assert est.min_rtt_ns == usec(100)

    def test_smoothing_moves_toward_samples(self):
        est = estimator()
        est.update(usec(100))
        for _ in range(50):
            est.update(usec(200))
        assert usec(180) < est.srtt_ns <= usec(200)

    def test_min_rtt_tracks_minimum(self):
        est = estimator()
        for sample in (100, 60, 90, 40, 80):
            est.update(usec(sample))
        assert est.min_rtt_ns == usec(40)

    def test_rto_bounds(self):
        est = estimator()
        assert est.rto_ns() == msec(2)  # initial
        est.update(usec(50))
        assert est.rto_ns() >= msec(1)  # floor
        for _ in range(20):
            est.update(msec(400))
        assert est.rto_ns() <= msec(500)  # ceiling

    def test_nonpositive_samples_ignored(self):
        est = estimator()
        est.update(0)
        est.update(-5)
        assert est.latest_rtt_ns is None
        assert est.srtt_ns is None

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            RTTEstimator(0)
        with pytest.raises(ValueError):
            RTTEstimator(MAX_RTO_NS + 1)

    @given(st.lists(st.integers(1, 10_000_000), min_size=1, max_size=100))
    @settings(max_examples=100)
    def test_srtt_stays_within_sample_envelope(self, samples):
        est = estimator()
        for s in samples:
            est.update(s)
        assert min(samples) <= est.srtt_ns <= max(samples)

    @given(st.lists(st.integers(1, 10_000_000), min_size=1, max_size=100))
    @settings(max_examples=100)
    def test_rto_always_within_bounds(self, samples):
        est = estimator()
        for s in samples:
            est.update(s)
            assert msec(1) <= est.rto_ns() <= msec(500)


class Seg:
    def __init__(self, sent_ns):
        self.sent_ns = sent_ns


class TestRackState:
    def test_update_keeps_most_recent(self):
        rack = RackState()
        rack.update_on_delivered(100, 10)
        rack.update_on_delivered(50, 20)  # older transmission: ignored
        assert rack.xmit_ns == 100
        rack.update_on_delivered(200, 5)
        assert rack.xmit_ns == 200

    def test_tie_broken_by_end_seq(self):
        rack = RackState()
        rack.update_on_delivered(100, 10)
        rack.update_on_delivered(100, 30)
        assert rack.end_seq == 30

    def test_detect_nothing_before_delivery(self):
        rack = RackState()
        lost, deadline = rack.detect([Seg(0)], lambda s: 1000)
        assert lost == [] and deadline is None

    def test_detect_marks_overdue(self):
        rack = RackState()
        rack.update_on_delivered(10_000, 100)
        old = Seg(1_000)    # sent long before the delivered segment
        fresh = Seg(9_900)  # within the reorder window
        lost, deadline = rack.detect([old, fresh], lambda s: 500)
        assert lost == [old]
        assert deadline == 9_900 + 500

    def test_detect_ignores_later_sends(self):
        rack = RackState()
        rack.update_on_delivered(10_000, 100)
        later = Seg(20_000)  # sent after the delivered one: ineligible
        lost, deadline = rack.detect([later], lambda s: 1)
        assert lost == []
        assert deadline is None

    def test_timer_path_uses_as_of(self):
        rack = RackState()
        rack.update_on_delivered(10_000, 100)
        seg = Seg(9_900)
        lost, _ = rack.detect([seg], lambda s: 500)
        assert lost == []
        lost, _ = rack.detect([seg], lambda s: 500, as_of_ns=10_500)
        assert lost == [seg]

    def test_per_segment_window(self):
        rack = RackState()
        rack.update_on_delivered(10_000, 100)
        near = Seg(9_000)
        far = Seg(9_000)
        # 'near' gets a tight window, 'far' a wide (cross-TDN) one.
        lost, _ = rack.detect([near, far], lambda s: 100 if s is near else 100_000)
        assert lost == [near]


class TestReorderWindow:
    def test_default_quarter_min_rtt(self):
        assert default_reo_wnd_ns(usec(100)) == usec(25)

    def test_floor_without_min_rtt(self):
        assert default_reo_wnd_ns(None) == 1_000

    def test_floor_with_tiny_rtt(self):
        assert default_reo_wnd_ns(100) == 1_000
