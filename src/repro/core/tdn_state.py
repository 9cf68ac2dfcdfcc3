"""Per-TDN state management (§3.1, §4.3).

:class:`PerTDNState` owns the array of :class:`PathState` duplicates —
one per TDN — and implements the switch ("swap in the set tracking the
new TDN"). The connection answers the four semantic classes of §4.3
over these sets: *current TDN* is :attr:`current`; *all TDNs*, *any
TDN* and *specific TDN* are
:meth:`repro.tcp.connection.TCPConnection.total_packets_out`,
``any_path_has_losses`` and ``path_of``.

The state itself lives in :class:`repro.tcp.connection.PathState`; this
class adds TDN bookkeeping: growth on newly observed TDNs (runtime
schedule changes, §4.2) and switch counting.
"""

from __future__ import annotations

from typing import Callable, List

from repro.tcp.connection import PathState


class PerTDNState:
    """The duplicated state sets of a TDTCP connection."""

    def __init__(self, make_path: Callable[[int], PathState], initial_count: int):
        if initial_count < 1:
            raise ValueError("need at least one TDN")
        self._make_path = make_path
        self.paths: List[PathState] = [make_path(i) for i in range(initial_count)]
        self.current_index = 0
        self.switches = 0

    def ensure_tdn(self, tdn_id: int) -> None:
        """Initialize state sets for TDNs observed for the first time
        (runtime schedule change support, §4.2)."""
        while len(self.paths) <= tdn_id:
            self.paths.append(self._make_path(len(self.paths)))

    def switch_to(self, tdn_id: int) -> bool:
        """Swap the active state set. Returns True when it changed.

        The swap is O(1) — the 'pull model' of §5.4: nothing is copied,
        the index simply moves to the set that already holds a snapshot
        of the new TDN from when it was last active.
        """
        self.ensure_tdn(tdn_id)
        if tdn_id == self.current_index:
            return False
        self.current_index = tdn_id
        self.switches += 1
        return True

    def slowest_srtt_ns(self) -> int:
        """Largest smoothed RTT across TDNs with samples (0 if none)."""
        return max((p.rtt.srtt_ns or 0 for p in self.paths), default=0)
