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


class DynamicBufferController:
    """Schedules VOQ resizing and sender ramping around circuit days."""

    def __init__(
        self,
        sim: Simulator,
        driver: ScheduleDriver,
        uplinks: List[RackUplink],
        normal_capacity: int = 16,
        circuit_capacity: int = 50,
        lead_ns: int = 150_000,
        optical_tdn: int = 1,
    ):
        self.sim = sim
        self.uplinks = list(uplinks)
        self.normal_capacity = normal_capacity
        self.circuit_capacity = circuit_capacity
        self.optical_tdn = optical_tdn
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
        driver.on_day_lead(lead_ns, self._before_circuit, tdn_id=optical_tdn)
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
        delta = self.circuit_capacity - self.normal_capacity
        for pool, n_queues in self._pools:
            pool.resize_total(pool.total + delta * n_queues)
        for uplink in self.uplinks:
            if uplink.queue.pool is None:
                uplink.queue.resize(self.circuit_capacity)
        self.resizes += 1
        for connection in self.connections:
            connection.ramp_up()

    def _day_started(self, tdn_id: int, day_index: int) -> None:
        self._last_tdn = tdn_id

    def _night_started(self, day_index: int) -> None:
        if self._last_tdn != self.optical_tdn:
            return
        # The circuit day just ended: shrink the VOQ and ramp down.
        delta = self.circuit_capacity - self.normal_capacity
        for pool, n_queues in self._pools:
            pool.resize_total(pool.total - delta * n_queues)
        for uplink in self.uplinks:
            if uplink.queue.pool is None:
                uplink.queue.resize(self.normal_capacity)
        for connection in self.connections:
            connection.ramp_down()
