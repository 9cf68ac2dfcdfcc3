"""Send/receive buffers: reassembly, SACK blocks, windows."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tcp.buffers import ReceiveBuffer, SendBuffer


class TestSendBuffer:
    def test_write_and_available(self):
        sb = SendBuffer()
        sb.write(1000)
        assert sb.available_beyond(0) == 1000
        assert sb.available_beyond(400) == 600
        assert sb.available_beyond(1000) == 0
        assert sb.available_beyond(2000) == 0

    def test_unlimited(self):
        sb = SendBuffer()
        sb.unlimited = True
        assert sb.available_beyond(10 ** 12) > 0

    def test_negative_write_rejected(self):
        with pytest.raises(ValueError):
            SendBuffer().write(-1)


class TestReceiveBufferInOrder:
    def test_in_order_delivery(self):
        rb = ReceiveBuffer()
        assert rb.receive(0, 100) == 100
        assert rb.rcv_nxt == 100
        assert rb.receive(100, 250) == 150
        assert rb.rcv_nxt == 250
        assert rb.sack_blocks() == ()

    def test_duplicate_ignored(self):
        rb = ReceiveBuffer()
        rb.receive(0, 100)
        assert rb.receive(0, 100) == 0
        assert rb.duplicate_bytes == 100

    def test_partial_overlap_clipped(self):
        rb = ReceiveBuffer()
        rb.receive(0, 100)
        assert rb.receive(50, 150) == 50
        assert rb.rcv_nxt == 150


class TestReceiveBufferOutOfOrder:
    def test_hole_then_fill(self):
        rb = ReceiveBuffer()
        assert rb.receive(100, 200) == 0
        assert rb.rcv_nxt == 0
        assert rb.ooo_bytes == 100
        assert rb.receive(0, 100) == 200
        assert rb.rcv_nxt == 200
        assert rb.ooo_bytes == 0

    def test_sack_blocks_most_recent_first(self):
        rb = ReceiveBuffer()
        rb.receive(100, 200)
        rb.receive(300, 400)
        blocks = rb.sack_blocks()
        assert blocks[0] == (300, 400)  # most recent arrival first
        assert (100, 200) in blocks

    def test_sack_block_limit(self):
        rb = ReceiveBuffer()
        for i in range(5):
            rb.receive(100 + i * 200, 200 + i * 200)
        assert len(rb.sack_blocks()) == 3

    def test_sack_blocks_merge(self):
        rb = ReceiveBuffer()
        rb.receive(100, 200)
        rb.receive(200, 300)
        assert rb.sack_blocks() == ((100, 300),)

    def test_invalid_segment(self):
        with pytest.raises(ValueError):
            ReceiveBuffer().receive(10, 5)

    def test_total_delivered(self):
        rb = ReceiveBuffer()
        rb.receive(100, 200)
        rb.receive(0, 100)
        assert rb.total_delivered == 200


segments_strategy = st.permutations(list(range(20)))


class TestReceiveBufferProperties:
    @given(segments_strategy)
    @settings(max_examples=150)
    def test_any_arrival_order_delivers_everything(self, order):
        """20 MSS-100 segments in any order: all bytes exactly once."""
        rb = ReceiveBuffer()
        delivered = 0
        for index in order:
            delivered += rb.receive(index * 100, (index + 1) * 100)
        assert delivered == 2000
        assert rb.rcv_nxt == 2000
        assert rb.ooo_bytes == 0

    @given(segments_strategy)
    @settings(max_examples=100)
    def test_rcv_nxt_monotone(self, order):
        rb = ReceiveBuffer()
        last = 0
        for index in order:
            rb.receive(index * 100, (index + 1) * 100)
            assert rb.rcv_nxt >= last
            last = rb.rcv_nxt

    @given(segments_strategy, st.integers(0, 19))
    @settings(max_examples=100)
    def test_duplicates_never_double_deliver(self, order, dup_index):
        rb = ReceiveBuffer()
        delivered = 0
        for index in order:
            delivered += rb.receive(index * 100, (index + 1) * 100)
            delivered += rb.receive(dup_index * 100, (dup_index + 1) * 100)
        assert delivered == 2000

    @given(segments_strategy)
    @settings(max_examples=100)
    def test_sack_blocks_describe_ooo_data(self, order):
        rb = ReceiveBuffer()
        for index in order[:10]:
            rb.receive(index * 100, (index + 1) * 100)
            for start, end in rb.sack_blocks():
                assert start >= rb.rcv_nxt
                assert start < end
