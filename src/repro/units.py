"""Unit helpers.

All simulation time is integer nanoseconds; all sizes are integer bytes;
bandwidths are floats in bits per second. These helpers keep call sites
readable (``usec(180)`` instead of ``180_000``) and centralize the
conversions so no module invents its own scale.
"""

from __future__ import annotations

import math

USEC = 1_000
MSEC = 1_000_000
SEC = 1_000_000_000

GBPS = 1e9


def check_above(name: str, value: float, bound: float = 0.0) -> None:
    """Refuse a config value unless it is finite and exceeds ``bound``
    (a ``value <= bound`` test alone lets NaN through)."""
    if not (math.isfinite(value) and value > bound):
        raise ValueError(f"{name} must exceed {bound:g} and be finite, got {value!r}")


def usec(value: float) -> int:
    """Microseconds as integer simulation time."""
    return int(round(value * USEC))


def msec(value: float) -> int:
    """Milliseconds as integer simulation time."""
    return int(round(value * MSEC))


def gbps(value: float) -> float:
    """Gigabits per second as bits per second."""
    return value * GBPS


def serialization_delay_ns(size_bytes: int, rate_bps: float) -> int:
    """Time to push ``size_bytes`` onto a wire running at ``rate_bps``.

    Always at least 1 ns for a non-empty packet so that events caused by a
    transmission strictly follow the event that started it.
    """
    if rate_bps <= 0:
        raise ValueError(f"rate must be positive, got {rate_bps}")
    if size_bytes <= 0:
        return 0
    delay = int(round(size_bytes * 8 * SEC / rate_bps))
    return max(delay, 1)


def to_usec(time_ns: int) -> float:
    """Integer simulation time to float microseconds (for reporting)."""
    return time_ns / USEC


def throughput_gbps(byte_count: int, duration_ns: int) -> float:
    """Average throughput in Gbps over a duration."""
    if duration_ns <= 0:
        return 0.0
    return byte_count * 8 / (duration_ns / SEC) / GBPS
