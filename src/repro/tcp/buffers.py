"""Sender and receiver buffers.

:class:`SendBuffer` tracks how many application bytes are available to
transmit past ``snd_una`` (bulk applications can declare an unlimited
backlog). :class:`ReceiveBuffer` reassembles out-of-order data, advances
``rcv_nxt``, and produces SACK blocks (most recently received first, as
RFC 2018 requires).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.tcp.options import MAX_SACK_BLOCKS
from repro.tcp.ranges import RangeSet


class SendBuffer:
    """Application bytes queued for transmission.

    ``written`` is the absolute stream offset up to which the app has
    produced data. Once ``unlimited`` is set (``start_bulk``) there is
    always more data (long-lived flows of §5.1); a byte cap still applies
    through ``capacity_bytes`` relative to the unacknowledged base,
    modelling a finite socket send buffer.
    """

    def __init__(self, capacity_bytes: Optional[int] = None):
        self.capacity_bytes = capacity_bytes
        self.unlimited = False
        self.written = 0

    def write(self, nbytes: int) -> None:
        if nbytes < 0:
            raise ValueError("cannot write a negative byte count")
        self.written += nbytes

    def available_beyond(self, offset: int) -> int:
        """Bytes ready to send past stream offset ``offset``."""
        if self.unlimited:
            return 2 ** 62
        return max(0, self.written - offset)


class ReceiveBuffer:
    """Receiver-side reassembly.

    ``receive()`` returns the number of bytes newly delivered in order
    (rcv_nxt advance). Out-of-order ranges are retained and surfaced as
    SACK blocks; block 1 is always the range containing the most
    recently arrived segment.
    """

    def __init__(self, initial_rcv_nxt: int = 0):
        self.rcv_nxt = initial_rcv_nxt
        self._ooo = RangeSet()
        # Most-recent-first list of representative points into OOO
        # ranges, used to order SACK blocks.
        self._recent: List[Tuple[int, int]] = []
        self.total_delivered = 0
        self.duplicate_bytes = 0

    @property
    def ooo_bytes(self) -> int:
        """Bytes held out of order (consumes receive window)."""
        return self._ooo.coverage()

    def receive(self, seq: int, end_seq: int) -> int:
        """Accept ``[seq, end_seq)``; returns newly in-order bytes."""
        if seq > end_seq:
            raise ValueError(f"invalid segment range [{seq}, {end_seq})")
        rcv_nxt = self.rcv_nxt
        if end_seq <= rcv_nxt:
            self.duplicate_bytes += end_seq - seq
            return 0
        if seq <= rcv_nxt and not self._ooo._starts:
            # Fast path: in-order data with nothing parked out of order
            # (the overwhelmingly common case for bulk flows). The
            # general path below would add [rcv_nxt, end_seq) to the
            # RangeSet and immediately remove it again — state-identical
            # to doing neither. Only the recent-block list and delivery
            # counters advance.
            recent = self._recent
            if recent:
                self._recent = recent = [
                    (s, e) for (s, e) in recent if not (rcv_nxt <= s < end_seq)
                ]
            recent.insert(0, (rcv_nxt, end_seq))
            del recent[8:]
            delivered = end_seq - rcv_nxt
            self.rcv_nxt = end_seq
            self.total_delivered += delivered
            return delivered
        clipped_seq = max(seq, self.rcv_nxt)
        if clipped_seq < seq or self._ooo.covers(clipped_seq, end_seq):
            self.duplicate_bytes += min(end_seq, max(seq, self.rcv_nxt)) - seq
        merged = self._ooo.add(clipped_seq, end_seq)
        self._note_recent(merged)
        delivered = 0
        if merged[0] <= self.rcv_nxt:
            new_rcv_nxt = merged[1]
            delivered = new_rcv_nxt - self.rcv_nxt
            self.rcv_nxt = new_rcv_nxt
            self._ooo.remove_below(self.rcv_nxt)
        self.total_delivered += delivered
        return delivered

    def _note_recent(self, merged: Tuple[int, int]) -> None:
        # Keep a short most-recent-first list of distinct ranges (by any
        # point inside them; ranges shift as they merge, so store the
        # merged range's start as representative and dedupe lazily).
        self._recent = [(s, e) for (s, e) in self._recent if not (merged[0] <= s < merged[1])]
        self._recent.insert(0, merged)
        del self._recent[8:]

    def sack_blocks(self) -> Tuple[Tuple[int, int], ...]:
        """Up to :data:`MAX_SACK_BLOCKS` SACK blocks, most recent first."""
        if not self._ooo:
            return ()
        live = self._ooo.ranges()
        blocks: List[Tuple[int, int]] = []
        seen = set()
        for s, _e in self._recent:
            # Find the live range containing this representative point.
            for r_start, r_end in live:
                if r_start <= s < r_end and (r_start, r_end) not in seen:
                    blocks.append((r_start, r_end))
                    seen.add((r_start, r_end))
                    break
            if len(blocks) >= MAX_SACK_BLOCKS:
                break
        # Fill with any remaining ranges (oldest) if short.
        if len(blocks) < MAX_SACK_BLOCKS:
            for r in live:
                if r not in seen:
                    blocks.append(r)
                    seen.add(r)
                    if len(blocks) >= MAX_SACK_BLOCKS:
                        break
        return tuple(blocks)
