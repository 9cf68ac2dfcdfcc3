"""Unit-helper tests."""

import pytest

from repro import units


def test_time_constants_scale():
    assert units.usec(1) == 1_000
    assert units.msec(1) == 1_000_000
    assert units.SEC == 1_000_000_000


def test_time_helpers_round_fractions():
    assert units.usec(1.5) == 1_500
    assert units.usec(0.0006) == 1  # rounds, does not truncate


def test_bandwidth_helpers():
    assert units.gbps(10) == 10e9


def test_serialization_delay_basic():
    # 1500 bytes at 10 Gbps = 1.2 us.
    assert units.serialization_delay_ns(1500, units.gbps(10)) == 1200


def test_serialization_delay_minimum_one_ns():
    assert units.serialization_delay_ns(1, units.gbps(1000)) >= 1


def test_serialization_delay_zero_size():
    assert units.serialization_delay_ns(0, units.gbps(10)) == 0


def test_serialization_delay_rejects_bad_rate():
    with pytest.raises(ValueError):
        units.serialization_delay_ns(1500, 0)


def test_to_usec_and_sec():
    assert units.to_usec(1_500) == 1.5


def test_throughput_gbps():
    # 125 MB in 100 ms = 10 Gbps.
    assert units.throughput_gbps(125_000_000, units.msec(100)) == pytest.approx(10.0)


def test_throughput_gbps_zero_duration():
    assert units.throughput_gbps(1000, 0) == 0.0
