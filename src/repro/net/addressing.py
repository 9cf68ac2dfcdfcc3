"""Addressing: host addresses and flow identification.

Hosts are addressed by strings like ``"r0h3"`` (rack 0, host 3) produced
by :func:`host_address`. A flow is a classic 4-tuple; :class:`FlowKey`
is the hashable demux key connections register under.
"""

from __future__ import annotations

from typing import NamedTuple


class FlowKey(NamedTuple):
    """Demux key from the point of view of the *local* endpoint."""

    local_addr: str
    local_port: int
    remote_addr: str
    remote_port: int


def host_address(rack: int, host: int) -> str:
    """Canonical address for host ``host`` in rack ``rack``."""
    return f"r{rack}h{host}"


_rack_of_cache: dict = {}


def rack_of(address: str) -> int:
    """Rack index encoded in a host address.

    Memoized: the fabric consults this per packet hop, and the universe
    of addresses in a run is tiny and fixed.

    >>> rack_of("r1h7")
    1
    """
    rack = _rack_of_cache.get(address)
    if rack is not None:
        return rack
    if not address.startswith("r") or "h" not in address:
        raise ValueError(f"not a host address: {address!r}")
    rack = int(address[1:address.index("h")])
    _rack_of_cache[address] = rack
    return rack


def host_index_of(address: str) -> int:
    """Host index within its rack encoded in an address."""
    if "h" not in address:
        raise ValueError(f"not a host address: {address!r}")
    return int(address[address.index("h") + 1:])
