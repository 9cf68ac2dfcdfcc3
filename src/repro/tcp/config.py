"""TCP endpoint configuration."""

from __future__ import annotations

from dataclasses import dataclass

from repro.records import decode, encode
from repro.tcp.rtt import MAX_RTO_NS
from repro.units import msec


@dataclass
class TCPConfig:
    """Knobs for one TCP endpoint.

    Defaults target a microsecond-RTT data center: a 1 ms minimum RTO
    (kernel-default 200 ms would dwarf the simulated timescales) and an
    initial window of 10 segments. SACK and RACK-TLP are always on, with
    the fixed parameters of the datapath the paper measures
    (:data:`repro.tcp.connection.DUPTHRESH`, :mod:`repro.tcp.rtt`'s RTO
    bounds, :mod:`repro.tcp.rack`'s reorder window and probe timeout).
    """

    mss: int = 1_500
    initial_cwnd: float = 10.0          # MSS units (RFC 6928)
    rwnd_packets: int = 128             # advertised window, in MSS (192 KB)
    send_buffer_packets: int = 128      # sender buffering limit, in MSS
    min_rto_ns: int = msec(1)
    # RFC 3168 ECN for a CCA that does not ask for it: segments are
    # ECT and a CE echo halves the window once per RTT. A CCA that
    # wants ECN (dctcp) sends ECT whatever this says.
    ecn_enabled: bool = False
    # Delayed ACKs (RFC 1122): 0 disables (the default for
    # microsecond-RTT DCN studies — and what the evaluation runs with);
    # a positive value coalesces ACKs, acknowledging every second
    # in-order segment or after this timeout. Out-of-order data is
    # always ACKed immediately (fast-retransmit feedback).
    delayed_ack_ns: int = 0

    def __post_init__(self) -> None:
        if self.mss <= 0:
            raise ValueError("MSS must be positive")
        if self.initial_cwnd <= 0:
            raise ValueError("initial cwnd must be positive")
        if self.rwnd_packets <= 0:
            raise ValueError("rwnd_packets must be positive")
        if self.send_buffer_packets <= 0:
            raise ValueError("send_buffer_packets must be positive")
        if not 0 < self.min_rto_ns <= MAX_RTO_NS:
            raise ValueError(f"min_rto_ns must be in (0, {MAX_RTO_NS}]")
        if self.delayed_ack_ns < 0:
            raise ValueError("delayed_ack_ns must be >= 0 (0 disables)")

    def to_dict(self) -> dict:
        return encode(self)

    @classmethod
    def from_dict(cls, data: dict) -> "TCPConfig":
        return decode(cls, data)
