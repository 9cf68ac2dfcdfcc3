"""Congestion control interface and registry.

A CCA owns ``cwnd`` and ``ssthresh`` (both in MSS units) and reacts to
ACK/loss/ECN events delivered by the connection. The connection owns
everything else (pipe accounting, state machine, retransmissions).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Optional, Protocol

INFINITE_SSTHRESH = float("inf")


class CCClock(Protocol):
    """Minimal clock the CCAs need (CUBIC epochs are time-based)."""

    def now_ns(self) -> int: ...


class CongestionControl:
    """Base class: Reno-style slow start, no-op congestion avoidance."""

    name = "base"
    #: True for a CCA whose signal is the CE mark: segments sent on a
    #: path it controls are ECN-capable, and it does its own per-window
    #: mark arithmetic (the connection's RFC 3168 halving stands aside).
    wants_ecn = False

    def __init__(self, clock: CCClock, initial_cwnd: float = 10.0):
        self.clock = clock
        self.cwnd: float = initial_cwnd
        self.ssthresh: float = INFINITE_SSTHRESH
        self.min_cwnd: float = 2.0

    @property
    def in_slow_start(self) -> bool:
        return self.cwnd < self.ssthresh

    # ------------------------------------------------------------------
    # Events — all window arithmetic in MSS units.
    # ------------------------------------------------------------------
    def on_ack(self, acked_packets: int, rtt_ns: Optional[int], in_flight: int, ece: bool = False) -> None:
        """Cumulative ACK covering ``acked_packets`` new segments."""
        raise NotImplementedError

    def on_congestion_event(self) -> None:
        """Entering fast recovery (loss) or reacting to ECN: reduce."""
        raise NotImplementedError

    def on_recovery_exit(self) -> None:
        """Recovery completed (snd_una passed high_seq)."""
        # Default: deflate to ssthresh (standard full-window completion).
        self.cwnd = max(self.ssthresh, self.min_cwnd)

    def on_rto(self) -> None:
        """Retransmission timeout: collapse the window."""
        self.ssthresh = max(self.cwnd / 2.0, self.min_cwnd)
        self.cwnd = 1.0

    def fluid_advance(self, now_ns: int, dt_ns: int, rtt_ns: int) -> None:
        """Closed-form window growth over ``dt_ns`` of loss-free steady
        transfer (the tiered fluid fast path; see repro.sim.fastpath).

        ``now_ns`` is the *virtual* time at the start of the interval —
        it may lag the wall simulator clock while a fluid span is being
        integrated. The base model is Reno-like: doubling per RTT in
        slow start (with exact handoff at ssthresh), then one MSS per
        RTT in congestion avoidance. Subclasses with richer avoidance
        dynamics (CUBIC) override this.
        """
        if dt_ns <= 0 or rtt_ns <= 0:
            return
        rounds = dt_ns / rtt_ns
        if self.cwnd < self.ssthresh:
            # Slow start: cwnd doubles each RTT until ssthresh.
            grown = self.cwnd * (2.0 ** rounds)
            if grown <= self.ssthresh:
                self.cwnd = grown
                return
            # Exact handoff: spend only the rounds needed to reach
            # ssthresh in slow start, the remainder in avoidance.
            used = math.log2(self.ssthresh / self.cwnd)
            self.cwnd = self.ssthresh
            rounds -= used
        # Congestion avoidance: +1 MSS per RTT.
        self.cwnd += rounds

    def snapshot(self) -> dict:
        """Loggable view of the internal state."""
        return {"name": self.name, "cwnd": self.cwnd, "ssthresh": self.ssthresh}


_REGISTRY: Dict[str, Callable[..., CongestionControl]] = {}


def register_cc(name: str):
    """Class decorator registering a CCA under ``name``."""

    def deco(cls):
        if name in _REGISTRY:
            raise ValueError(f"congestion control {name!r} already registered")
        _REGISTRY[name] = cls
        cls.name = name
        return cls

    return deco


def make_congestion_control(name: str, clock: CCClock, initial_cwnd: float = 10.0) -> CongestionControl:
    """Instantiate a registered CCA by name."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown congestion control {name!r}; known: {sorted(_REGISTRY)}") from None
    return factory(clock, initial_cwnd=initial_cwnd)
