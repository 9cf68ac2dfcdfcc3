"""TCP endpoint configuration."""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.units import msec


@dataclass
class TCPConfig:
    """Knobs for one TCP endpoint.

    Defaults target a microsecond-RTT data center: a 1 ms minimum RTO
    (kernel-default 200 ms would dwarf the simulated timescales), SACK
    and RACK-TLP on, and an initial window of 10 segments.
    """

    mss: int = 1_500
    initial_cwnd: float = 10.0          # MSS units (RFC 6928)
    rwnd_packets: int = 128             # advertised window, in MSS (192 KB)
    send_buffer_packets: int = 128      # sender buffering limit, in MSS
    min_rto_ns: int = msec(1)
    max_rto_ns: int = msec(500)
    initial_rto_ns: int = msec(2)
    dupthresh: int = 3
    sack_enabled: bool = True
    rack_enabled: bool = True
    tlp_enabled: bool = True
    # RFC 3168 ECN for a CCA that does not ask for it: segments are
    # ECT and a CE echo halves the window once per RTT. A CCA that
    # wants ECN (dctcp) sends ECT whatever this says.
    ecn_enabled: bool = False
    # RACK reorder window as a fraction of min RTT (RFC 8985 uses 1/4).
    rack_reo_wnd_frac: float = 0.25
    # Delay before a delivered-but-unACKed probe; kept simple: TLP fires
    # at 2 * srtt after the last transmission when armed.
    tlp_srtt_multiplier: float = 2.0
    # Nagle's algorithm (RFC 896): hold sub-MSS segments while data is
    # outstanding. Off by default (DCN RPCs want TCP_NODELAY).
    nagle_enabled: bool = False
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
        if self.min_rto_ns <= 0 or self.max_rto_ns < self.min_rto_ns:
            raise ValueError("invalid RTO bounds")
        if self.dupthresh < 1:
            raise ValueError("dupthresh must be >= 1")

    def to_dict(self) -> dict:
        """Canonical JSON-ready view (every field, declaration order)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "TCPConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown TCPConfig fields {sorted(unknown)}")
        return cls(**data)
