"""Single-path TCP stack: the substrate the paper's variants build on.

The stack mirrors the Linux structures the paper's §4.3 semantics are
written against: ``cwnd``/``ssthresh`` in MSS units, packet-based pipe
accounting (``packets_out``, ``lost_out``, ``sacked_out``,
``retrans_out``), a SACK scoreboard, the Open/Disorder/Recovery/Loss
congestion state machine, RFC 6298 RTO with Karn's rule, and RACK-TLP
loss detection.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "config": ("TCPConfig",),
    "connection": ("TCPConnection", "SegmentState"),
    "ranges": ("RangeSet",),
    "buffers": ("SendBuffer", "ReceiveBuffer"),
    "rtt": ("RTTEstimator",),
    "state": ("CaState",),
    "cc": ("CongestionControl", "make_congestion_control"),
})
