"""Congestion control algorithms (pluggable, per §3.5).

TDTCP "does not propose a new congestion control algorithm — it simply
implements one of the available CCAs in each TDN". The registry here is
what makes that pluggability real: any registered CCA can run per-TDN.
"""

from repro.tcp.cc.base import CongestionControl, CCClock, register_cc, make_congestion_control
from repro.tcp.cc.reno import RenoCC
from repro.tcp.cc.cubic import CubicCC
from repro.tcp.cc.dctcp import DCTCPCC

__all__ = [
    "CongestionControl",
    "CCClock",
    "register_cc",
    "make_congestion_control",
    "RenoCC",
    "CubicCC",
    "DCTCPCC",
]
