"""RACK-TLP loss detection (RFC 8985).

RACK declares a segment lost when a segment sent *after* it has already
been delivered (cumulatively ACKed or SACKed) and more than a reorder
window has elapsed relative to the delivered segment's transmission
time. Segments inside the reorder window are re-checked when the
reorder timer fires. TLP (tail loss probe) retransmits the last
outstanding segment after a probe timeout to elicit feedback for tail
drops — the mechanism §3.4 relies on to recover true cross-TDN tail
losses that the relaxed heuristic exempted.

The connection owns the timers; this module holds the pure state and
decision logic so it can be unit-tested in isolation.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Tuple

#: RACK reorder window as a fraction of min RTT (RFC 8985), and its floor.
REO_WND_FRAC = 0.25
REO_WND_FLOOR_NS = 1_000
#: The tail loss probe fires this many srtts after the last transmission
#: (the initial RTO before the first sample).
TLP_SRTT_MULTIPLIER = 2


class RackState:
    """Most-recently-delivered transmission state."""

    def __init__(self) -> None:
        # Transmission time and end sequence of the most recently *sent*
        # segment known to be delivered.
        self.xmit_ns: Optional[int] = None
        self.end_seq: int = 0

    def update_on_delivered(self, sent_ns: int, end_seq: int) -> None:
        """Record a newly delivered (ACKed/SACKed) segment."""
        if self.xmit_ns is None or sent_ns > self.xmit_ns or (
            sent_ns == self.xmit_ns and end_seq > self.end_seq
        ):
            self.xmit_ns = sent_ns
            self.end_seq = end_seq

    def detect(
        self,
        candidates: Iterable,
        reo_wnd_for: Callable[[object], int],
        as_of_ns: Optional[int] = None,
    ) -> Tuple[List[object], Optional[int]]:
        """Split outstanding segments into (lost_now, next_deadline).

        ``candidates`` are segment states with ``sent_ns`` attributes
        that are neither ACKed, SACKed, nor already marked lost.
        ``reo_wnd_for(seg)`` gives the reorder window to apply to each
        segment (TDTCP uses a wider window for cross-TDN segments).

        A segment is lost when its ``sent_ns + reo_wnd`` deadline is at
        or before the comparison point — the delivered transmission time
        on the ACK path, or ``as_of_ns`` when the reorder timer re-runs
        detection after waiting out the window (RFC 8985 step 5).

        Returns segments lost now, plus the earliest deadline among the
        remaining candidates (for arming the reorder timer), or None
        when no candidates remain.
        """
        if self.xmit_ns is None:
            return [], None
        compare_point = self.xmit_ns if as_of_ns is None else max(self.xmit_ns, as_of_ns)
        lost: List[object] = []
        next_deadline: Optional[int] = None
        for seg in candidates:
            if seg.sent_ns > self.xmit_ns:
                # Nothing sent after this segment has been delivered:
                # no reordering evidence against it (RACK-ineligible).
                continue
            deadline = seg.sent_ns + reo_wnd_for(seg)
            if deadline <= compare_point:
                lost.append(seg)
            else:
                if next_deadline is None or deadline < next_deadline:
                    next_deadline = deadline
        return lost, next_deadline


def default_reo_wnd_ns(min_rtt_ns: Optional[int]) -> int:
    """RFC 8985's reorder window: min_rtt / 4 (with a small floor)."""
    if min_rtt_ns is None:
        return REO_WND_FLOOR_NS
    return max(int(min_rtt_ns * REO_WND_FRAC), REO_WND_FLOOR_NS)
