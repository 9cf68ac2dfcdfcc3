"""Demand-oblivious rotor schedules for N racks (§2.1, RotorNet-style).

A rotor fabric cycles through a fixed set of *matchings* — perfect
pairings of racks — such that over one week every rack pair is directly
connected exactly once. :func:`round_robin_matchings` produces the
classic circle-method tournament schedule. One rack pair sees its
matching's slot as the optical TDN and every other slot as the packet
network, so the paper's 6:1 day pattern is the 8-rack projection.
"""

from __future__ import annotations

from typing import List, Tuple

Matching = List[Tuple[int, int]]


def round_robin_matchings(n_racks: int) -> List[Matching]:
    """The circle method: ``n_racks - 1`` perfect matchings covering
    every pair exactly once. ``n_racks`` must be even and >= 2."""
    if n_racks < 2 or n_racks % 2 != 0:
        raise ValueError("rotor matchings need an even rack count >= 2")
    fixed = n_racks - 1
    rotating = list(range(n_racks - 1))
    matchings: List[Matching] = []
    for _round in range(n_racks - 1):
        pairs: Matching = [(rotating[0], fixed)]
        for k in range(1, n_racks // 2):
            a = rotating[k]
            b = rotating[-k]
            pairs.append((min(a, b), max(a, b)))
        matchings.append(sorted(pairs))
        rotating = [rotating[-1]] + rotating[:-1]
    return matchings
