"""ss-style connection introspection."""

import pytest

from repro.core.tdtcp import TDTCPConnection
from repro.tcp.introspect import _format_bytes, describe_connection
from repro.tcp.sockets import create_connection_pair
from repro.units import msec

from tests.helpers import bulk_pair, two_hosts


class TestFormatBytes:
    def test_small_units(self):
        assert _format_bytes(512) == "512B"
        assert _format_bytes(30_000) == "29.3KB"
        assert _format_bytes(5 * 1024**3) == "5.0GB"

    def test_terabytes_not_mislabeled_as_gb(self):
        # Regression: >= 1 TB used to fall out of the loop with the
        # value already divided down but still labeled GB.
        assert _format_bytes(1024**4) == "1.0TB"
        assert _format_bytes(3 * 1024**4 + 1024**3) == "3.0TB"
        assert _format_bytes(2048 * 1024**4) == "2048.0TB"


class TestDescribe:
    def test_plain_tcp_fields(self):
        sim, a, b, _ab, _ba = two_hosts()
        client, server = bulk_pair(sim, a, b)
        sim.run(until=msec(5))
        text = describe_connection(client)
        assert "established" in text
        assert f"{a.address}:{client.local_port}" in text
        assert "cwnd:" in text
        assert "bytes_acked:" in text
        assert "tdn:" not in text  # single path: no TDN labels

    def test_tdtcp_shows_per_tdn_lines(self):
        sim, a, b, _ab, _ba = two_hosts()
        client, server = create_connection_pair(
            sim, a, b, connection_cls=TDTCPConnection, tdn_count=2
        )
        client.start_bulk()
        sim.run(until=msec(5))
        text = describe_connection(client)
        assert "tdn:0" in text and "tdn:1" in text
        assert "current_tdn:0" in text
        assert "switches:" in text

    def test_receiver_side_counts(self):
        sim, a, b, _ab, _ba = two_hosts()
        client, server = create_connection_pair(sim, a, b)
        client.write(30_000)
        sim.run(until=msec(5))
        text = describe_connection(server)
        assert "bytes_received:29.3KB" in text

    def test_per_path_telemetry_fields(self):
        sim, a, b, _ab, _ba = two_hosts()
        client, server = bulk_pair(sim, a, b)
        sim.run(until=msec(5))
        text = describe_connection(client)
        # ACKs have flowed, so the path carries a delivery-rate EWMA and
        # a last-cwnd-update stamp.
        assert "delivery_rate:" in text
        assert "last_cwnd_update:" in text
        path = client.current_path
        assert path.delivery_rate_bps > 0
        assert path.last_cwnd_update_ns is not None
        assert path.last_cwnd_update_ns <= sim.now

    def test_last_retransmit_only_after_retransmission(self):
        sim, a, b, _ab, _ba = two_hosts()
        client, server = bulk_pair(sim, a, b)
        sim.run(until=msec(5))
        text = describe_connection(client)
        if client.stats.retransmissions == 0:
            assert "last_retransmit:" not in text

