"""The reTCP sender: explicit circuit marks drive cwnd scaling.

Mechanism (per the NSDI '20 paper, §6 of the TDTCP paper):

* ToRs set a mark on packets that traverse the circuit network; the
  receiver echoes the mark on ACKs (both already modelled in
  :mod:`repro.rdcn.fabric` / the base connection).
* When marked ACKs start arriving (circuit up), the sender multiplies
  ``cwnd`` by ``alpha``; when they stop (circuit down), it restores the
  pre-ramp window.
* With dynamic buffers, the ToR's advance notification calls
  :meth:`ramp_up` *before* the circuit day so the enlarged VOQ is
  pre-filled.
"""

from __future__ import annotations

from typing import Optional

from repro.net.node import Host
from repro.net.packet import TCPSegment
from repro.sim.simulator import Simulator
from repro.tcp.config import TCPConfig
from repro.tcp.connection import TCPConnection
from repro.units import check_above


class ReTCPConnection(TCPConnection):
    """Single-path TCP plus reTCP's explicit-notification window scaling."""

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        remote_addr: str,
        remote_port: int,
        local_port: Optional[int] = None,
        cc_name: str = "cubic",
        config: Optional[TCPConfig] = None,
        name: Optional[str] = None,
        alpha: float = 8.0,
    ):
        check_above("alpha", alpha, 1.0)
        super().__init__(
            sim,
            host,
            remote_addr,
            remote_port,
            local_port=local_port,
            cc_name=cc_name,
            config=config,
            name=name,
        )
        self.alpha = alpha
        # In-band reaction to circuit-mark echoes. The dynamic-buffer
        # controller disables this and drives ramping out of band.
        self.react_to_marks = True
        self.circuit_active = False
        self._saved_cwnd: Optional[float] = None
        self.ramp_ups = 0
        self.ramp_downs = 0
        # Hysteresis: ACKs for packets that crossed TDNs interleave
        # marked/unmarked echoes around every transition; require a few
        # consecutive identical echoes before flipping state.
        self.mark_hysteresis = 3
        self._echo_streak = 0
        self._echo_value = False

    # ------------------------------------------------------------------
    # Window scaling
    # ------------------------------------------------------------------
    def ramp_up(self) -> None:
        """Circuit (about to become) available: open the window."""
        if self.circuit_active:
            return
        self.circuit_active = True
        path = self.current_path
        if path.ca_state.in_recovery:
            # Scaling a window mid-recovery fights the loss response;
            # remember only that the circuit is up.
            self._saved_cwnd = None
            return
        self._saved_cwnd = path.cc.cwnd
        path.cc.cwnd = path.cc.cwnd * self.alpha
        self.ramp_ups += 1
        self._maybe_send()

    def ramp_down(self) -> None:
        """Circuit gone: restore the pre-circuit window."""
        if not self.circuit_active:
            return
        self.circuit_active = False
        path = self.current_path
        if self._saved_cwnd is not None:
            path.cc.cwnd = max(
                min(self._saved_cwnd, path.cc.cwnd / self.alpha), path.cc.min_cwnd
            )
            # The loss response must not be undone by a later recovery
            # exit deflating to a circuit-era ssthresh.
            path.cc.ssthresh = min(path.cc.ssthresh, max(path.cc.cwnd, path.cc.min_cwnd))
        self._saved_cwnd = None
        self.ramp_downs += 1

    # ------------------------------------------------------------------
    # In-band mark detection
    # ------------------------------------------------------------------
    def _handle_ack(self, pkt: TCPSegment) -> None:
        if self.react_to_marks:
            if pkt.circuit_echo == self._echo_value:
                self._echo_streak += 1
            else:
                self._echo_value = pkt.circuit_echo
                self._echo_streak = 1
            if self._echo_streak >= self.mark_hysteresis:
                if self._echo_value and not self.circuit_active:
                    self.ramp_up()
                elif not self._echo_value and self.circuit_active:
                    self.ramp_down()
        super()._handle_ack(pkt)

