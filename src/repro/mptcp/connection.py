"""The MPTCP connection: data-level sequencing and reinjection.

The connection coordinates N subflows (the paper uses two):

* sender side — a DSS sequence space (``dss_una``/``dss_nxt``), a
  shared send buffer, chunk assignment to whichever subflow the tdm
  scheduler allows, and connection-level reinjection of chunks stuck on
  inactive subflows;
* receiver side — data-level reassembly whose ``rcv_nxt`` is the DSS
  ack carried on every subflow ACK, plus the shared receive window.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.mptcp.scheduler import TdmScheduler
from repro.net.node import Host
from repro.net.packet import TDNNotification
from repro.sim.simulator import Simulator
from repro.tcp.buffers import ReceiveBuffer, SendBuffer
from repro.tcp.config import TCPConfig

#: The server's first subflow port (subflow ``i`` listens on ``BASE_PORT + i``).
BASE_PORT = 5001


class ChunkState:
    """One DSS range assigned to a subflow."""

    __slots__ = ("dss_seq", "length", "subflow", "assigned_ns", "reinjected")

    def __init__(self, dss_seq: int, length: int, subflow: int, assigned_ns: int):
        self.dss_seq = dss_seq
        self.length = length
        self.subflow = subflow
        self.assigned_ns = assigned_ns
        self.reinjected = False

    @property
    def end(self) -> int:
        return self.dss_seq + self.length


class MPTCPStats:
    """Connection-level counters."""

    def __init__(self) -> None:
        self.bytes_delivered = 0
        self.chunks_assigned = 0
        self.reinjections = 0
        self.reinjected_bytes = 0
        self.window_stalls = 0


class MPTCPConnection:
    """Coordinator over subflows (it is not itself a TCP endpoint)."""

    # The tdm_schd scheduler follows TDN changes (repro.rdcn.notifier).
    listens_to_tdn_changes = True

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        remote_addr: str,
        local_ports: List[int],
        remote_ports: List[int],
        cc_name: str = "cubic",
        config: Optional[TCPConfig] = None,
    ):
        from repro.mptcp.subflow import MPTCPSubflow  # local import: cycle

        self.sim = sim
        self.host = host
        self.remote_addr = remote_addr
        self.config = config or TCPConfig()
        self.name = f"mptcp-{host.address}"
        self.scheduler = TdmScheduler(len(local_ports))
        self.stats = MPTCPStats()

        # Sender-side DSS state.
        self.dss_una = 0
        self.dss_nxt = 0
        self.send_buffer = SendBuffer(
            capacity_bytes=self.config.send_buffer_packets * self.config.mss
        )
        self.chunks: "OrderedDict[int, ChunkState]" = OrderedDict()
        self._reinject_queue: Deque[ChunkState] = deque()

        # Receiver-side DSS state.
        self.data_rcv = ReceiveBuffer(initial_rcv_nxt=0)
        self.on_delivered: Optional[Callable[[int, int], None]] = None

        # §3.2 degraded-signal tolerance: garbage TDN ids are counted
        # and ignored instead of steering the scheduler off the map.
        self.stale_notifications = 0

        self.subflows: List[MPTCPSubflow] = []
        for index, (local_port, remote_port) in enumerate(zip(local_ports, remote_ports)):
            self.subflows.append(
                MPTCPSubflow(
                    sim,
                    host,
                    remote_addr,
                    remote_port=remote_port,
                    parent=self,
                    index=index,
                    local_port=local_port,
                    cc_name=cc_name,
                    config=self.config,
                )
            )
        host.subscribe_tdn_changes(self._on_tdn_notification)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def listen(self) -> None:
        """Passive-open every subflow."""
        for subflow in self.subflows:
            subflow.listen()

    def connect(self) -> None:
        """Active-open every subflow (MP_CAPABLE/MP_JOIN abstracted)."""
        for subflow in self.subflows:
            subflow.connect()

    def start_bulk(self) -> None:
        """Endless application stream (the paper's long-lived flow)."""
        self.send_buffer.unlimited = True
        self.pump()

    # ------------------------------------------------------------------
    # Schedule awareness (tdm_schd)
    # ------------------------------------------------------------------
    def _on_tdn_notification(self, notification: TDNNotification) -> None:
        from repro.core.tdtcp import MAX_TDN_ID

        if notification.tdn_id < 0 or notification.tdn_id > MAX_TDN_ID:
            self.stale_notifications += 1
            return
        self.set_active_tdn(notification.tdn_id)

    def set_active_tdn(self, tdn_id: int) -> None:
        """Steer the tdm scheduler to the newly active TDN and wake the
        matching subflow (flushing its suppressed ACK)."""
        self.scheduler.set_active_tdn(tdn_id)
        for subflow in self.subflows:
            subflow.on_schedule_change()
        self.pump()

    # ------------------------------------------------------------------
    # Sender side: chunk assignment
    # ------------------------------------------------------------------
    def pump(self) -> None:
        """Let every allowed subflow transmit what it can."""
        for subflow in self.subflows:
            if subflow.state == "established" and self.scheduler.allows(subflow.index):
                subflow._maybe_send()

    def _window_limit_bytes(self) -> int:
        peer_rwnd = min(
            (sf.peer_rwnd for sf in self.subflows if sf.state == "established"),
            default=2 ** 40,
        )
        capacity = self.send_buffer.capacity_bytes or 2 ** 40
        return min(peer_rwnd, capacity)

    def next_chunk_for(self, subflow_index: int, mss: int) -> Optional[Tuple[int, int]]:
        """A DSS chunk for an allowed subflow, reinjections first."""
        while self._reinject_queue:
            chunk = self._reinject_queue.popleft()
            if chunk.end <= self.dss_una:
                continue  # already acknowledged, nothing to resend
            chunk.subflow = subflow_index
            self.stats.reinjections += 1
            self.stats.reinjected_bytes += chunk.length
            return (chunk.dss_seq, chunk.length)
        available = self.send_buffer.available_beyond(self.dss_nxt)
        if available <= 0:
            return None
        if self.dss_nxt - self.dss_una + mss > self._window_limit_bytes():
            self.stats.window_stalls += 1
            return None
        length = min(mss, available)
        chunk = ChunkState(self.dss_nxt, length, subflow_index, self.sim.now)
        self.chunks[chunk.dss_seq] = chunk
        self.dss_nxt += length
        self.stats.chunks_assigned += 1
        return (chunk.dss_seq, chunk.length)

    def update_dss_ack(self, dss_ack: int) -> None:
        """Advance the data-level cumulative ACK, freeing chunks and the
        shared send window."""
        if dss_ack <= self.dss_una:
            return
        self.dss_una = dss_ack
        for dss_seq in list(self.chunks.keys()):
            chunk = self.chunks[dss_seq]
            if chunk.end <= dss_ack:
                del self.chunks[dss_seq]
            else:
                break
        self.pump()

    def request_reinjection(self, from_subflow: int) -> None:
        """RTO-triggered connection-level reinjection (§2.2): move the
        stalled subflow's outstanding chunks onto the reinject queue."""
        queued = False
        for chunk in self.chunks.values():
            if chunk.subflow == from_subflow and not chunk.reinjected:
                chunk.reinjected = True
                self._reinject_queue.append(chunk)
                queued = True
        if queued:
            self.pump()

    # ------------------------------------------------------------------
    # Receiver side
    # ------------------------------------------------------------------
    def on_subflow_data(self, dss_seq: int, length: int) -> None:
        """Receiver side: merge subflow payload into the data-level
        reassembly and fire the delivery callback on progress."""
        delivered = self.data_rcv.receive(dss_seq, dss_seq + length)
        if delivered > 0:
            self.stats.bytes_delivered += delivered
            if self.on_delivered is not None:
                self.on_delivered(self.sim.now, self.data_rcv.rcv_nxt)

    def data_rcv_nxt(self) -> int:
        """Data-level cumulative ACK value carried on every subflow ACK."""
        return self.data_rcv.rcv_nxt

    def advertised_window(self) -> int:
        """Connection-level receive window (shared across subflows)."""
        window = self.config.rwnd_packets * self.config.mss - self.data_rcv.ooo_bytes
        return max(window, self.config.mss)


def create_mptcp_pair(
    sim: Simulator,
    client_host: Host,
    server_host: Host,
    cc_name: str = "cubic",
    config: Optional[TCPConfig] = None,
    n_subflows: int = 2,
) -> Tuple[MPTCPConnection, MPTCPConnection]:
    """(client, server) MPTCP connections with matched subflow ports.

    Subflow ``i`` runs client_ports[i] <-> BASE_PORT + i. The server
    listens and the client opens all subflows.
    """
    client_ports = [client_host.allocate_port() for _ in range(n_subflows)]
    server_ports = [BASE_PORT + i for i in range(n_subflows)]
    client = MPTCPConnection(
        sim,
        client_host,
        server_host.address,
        local_ports=client_ports,
        remote_ports=server_ports,
        cc_name=cc_name,
        config=config,
    )
    server = MPTCPConnection(
        sim,
        server_host,
        client_host.address,
        local_ports=server_ports,
        remote_ports=client_ports,
        cc_name=cc_name,
        config=config,
    )
    server.listen()
    client.connect()
    return client, server
