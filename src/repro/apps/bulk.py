"""Bulk-transfer applications (the paper's flowgrind workload).

A :class:`BulkSender` pours an endless stream into a connection as soon
as it is established (the long-lived flows of §5.1). A
:class:`BulkReceiver` counts delivered bytes.
"""

from __future__ import annotations

from typing import Callable, Optional


class BulkSender:
    """Drives a sending endpoint (TCPConnection or MPTCPConnection)."""

    def __init__(self, connection):
        self.connection = connection
        self.started = False
        # TCPConnection exposes on_established; MPTCPConnection
        # establishes subflows independently, so we start eagerly and
        # let the connection buffer the backlog.
        if hasattr(connection, "on_established") and connection.on_established is None:
            connection.on_established = self.start
        else:
            self.start()

    def start(self) -> None:
        if self.started:
            return
        self.started = True
        self.connection.start_bulk()

class BulkReceiver:
    """Counts delivered bytes, then passes each delivery on to the
    connection's previous ``on_delivered`` callback."""

    def __init__(self, connection):
        self.connection = connection
        self.delivered_bytes = 0
        self._chain: Optional[Callable[[int, int], None]] = connection.on_delivered
        connection.on_delivered = self._on_delivered

    def _on_delivered(self, time_ns: int, rcv_nxt: int) -> None:
        self.delivered_bytes = rcv_nxt
        if self._chain is not None:
            self._chain(time_ns, rcv_nxt)
