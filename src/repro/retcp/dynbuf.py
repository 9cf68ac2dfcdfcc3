"""The reTCP dynamic buffer controller (``retcpdyn``, §5.2).

"The ToR enlarges its VOQ size to 50 packets at 150 microseconds ahead
of the TDN change, and notifies reTCP to ramp up its congestion window.
Thus, reTCP is able to pre-fill the VOQ and starts bursting at high
bandwidth immediately after the TDN switch."

The controller subscribes to schedule lead events: ahead of each
optical day it resizes every registered VOQ and calls ``ramp_up()`` on
every registered sender; when the optical day ends it restores the VOQ
size and calls ``ramp_down()``.
"""

from __future__ import annotations

from typing import List

from repro.rdcn.fabric import RackUplink
from repro.rdcn.schedule import ScheduleDriver
from repro.retcp.retcp import ReTCPConnection
from repro.sim.simulator import Simulator
from repro.units import usec

#: The circuit day's VOQ capacity: 300 segments of 1500 B, the paper's
#: 50 jumbo frames.
CIRCUIT_VOQ_CAPACITY = 300
#: How far ahead of each optical day the VOQ grows and senders ramp.
LEAD_NS = usec(150)
#: The schedule's optical (circuit) TDN.
OPTICAL_TDN = 1


class DynamicBufferController:
    """Schedules VOQ resizing and sender ramping around circuit days."""

    def __init__(
        self,
        sim: Simulator,
        driver: ScheduleDriver,
        uplinks: List[RackUplink],
        normal_capacity: int,
    ):
        self.sim = sim
        self.uplinks = list(uplinks)
        self.normal_capacity = normal_capacity
        self.connections: List[ReTCPConnection] = []
        self._last_tdn: int = 0
        self.resizes = 0
        # Shared-buffer fabrics: the managed VOQs draw from per-ToR
        # pools, so the pre-circuit enlargement must grow the *pool*
        # (resize_total also lifts each member queue's hard cap) — a
        # per-queue resize alone would leave the pool the binding
        # constraint and the pre-fill impossible. One entry per
        # distinct pool: (pool, number of managed queues it backs).
        pools: dict = {}
        for uplink in self.uplinks:
            queue = uplink.queue
            if queue.pool is not None:
                entry = pools.setdefault(id(queue.pool), [queue.pool, 0])
                entry[1] += 1
        self._pools = [tuple(entry) for entry in pools.values()]
        driver.on_day_lead(LEAD_NS, self._before_circuit, tdn_id=OPTICAL_TDN)
        driver.on_day_start(self._day_started)
        driver.on_night_start(self._night_started)

    def register(self, connection: ReTCPConnection) -> None:
        """Manage a sender: disables its in-band mark reaction (the
        controller's explicit signals are strictly earlier)."""
        connection.react_to_marks = False
        self.connections.append(connection)

    # ------------------------------------------------------------------
    # Schedule hooks
    # ------------------------------------------------------------------
    def _before_circuit(self, tdn_id: int, day_index: int) -> None:
        delta = CIRCUIT_VOQ_CAPACITY - self.normal_capacity
        for pool, n_queues in self._pools:
            pool.resize_total(pool.total + delta * n_queues)
        for uplink in self.uplinks:
            if uplink.queue.pool is None:
                uplink.queue.resize(CIRCUIT_VOQ_CAPACITY)
        self.resizes += 1
        for connection in self.connections:
            connection.ramp_up()

    def _day_started(self, tdn_id: int, day_index: int) -> None:
        self._last_tdn = tdn_id

    def _night_started(self, day_index: int) -> None:
        if self._last_tdn != OPTICAL_TDN:
            return
        # The circuit day just ended: shrink the VOQ and ramp down.
        delta = CIRCUIT_VOQ_CAPACITY - self.normal_capacity
        for pool, n_queues in self._pools:
            pool.resize_total(pool.total - delta * n_queues)
        for uplink in self.uplinks:
            if uplink.queue.pool is None:
                uplink.queue.resize(self.normal_capacity)
        for connection in self.connections:
            connection.ramp_down()
