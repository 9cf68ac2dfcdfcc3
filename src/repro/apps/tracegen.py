"""Empirical flow-size workloads.

Data center studies (DCTCP, and most RDCN papers since) describe
traffic with two canonical flow-size distributions measured in
production — *web search* (Alizadeh et al. 2010) and *data mining*
(Greenberg et al. 2009). This module provides both as inverse-CDF
samplers; :class:`repro.apps.engine.WorkloadEngine` draws flow sizes
from them at a target offered load, for experiments beyond the paper's
long-lived-only workload.
"""

from __future__ import annotations

import bisect
import math
from typing import Sequence, Tuple

from repro.sim.rng import SeededRandom

# (cumulative probability, flow size in bytes) — the widely used
# piecewise approximations of the published CDFs.
WEB_SEARCH_CDF: Tuple[Tuple[float, int], ...] = (
    (0.00, 6_000),
    (0.15, 13_000),
    (0.20, 19_000),
    (0.30, 33_000),
    (0.40, 53_000),
    (0.53, 133_000),
    (0.60, 667_000),
    (0.70, 1_333_000),
    (0.80, 4_000_000),
    (0.90, 8_000_000),
    (0.97, 20_000_000),
    (1.00, 30_000_000),
)

DATA_MINING_CDF: Tuple[Tuple[float, int], ...] = (
    (0.00, 100),
    (0.50, 300),
    (0.60, 1_000),
    (0.70, 2_000),
    (0.80, 10_000),
    (0.85, 100_000),
    (0.90, 1_000_000),
    (0.95, 10_000_000),
    (0.99, 100_000_000),
    (1.00, 1_000_000_000),
)


def check_cdf(cdf: Sequence[Tuple[float, int]]) -> None:
    """Raise :class:`ValueError` unless ``cdf`` is a flow-size CDF the
    sampler can draw from: ``(cumulative probability, size in bytes)``
    points spanning probabilities 0.0 .. 1.0, both columns
    non-decreasing, every size positive (sizes are interpolated in log
    space)."""
    if len(cdf) < 2 or cdf[0][0] != 0.0 or cdf[-1][0] != 1.0:
        raise ValueError("CDF must span probabilities 0.0 .. 1.0")
    probs = [p for p, _s in cdf]
    if probs != sorted(probs):
        raise ValueError("CDF probabilities must be non-decreasing")
    sizes = [s for _p, s in cdf]
    if sizes != sorted(sizes):
        raise ValueError("CDF sizes must be non-decreasing")
    if sizes[0] < 1:
        raise ValueError("CDF sizes must be positive")


class EmpiricalFlowSizes:
    """Inverse-CDF sampler over a piecewise-linear size distribution."""

    def __init__(self, cdf: Sequence[Tuple[float, int]], rng: SeededRandom):
        check_cdf(cdf)
        probs = [p for p, _s in cdf]
        self._probs = probs
        self._sizes = [s for _p, s in cdf]
        self.rng = rng

    def sample(self) -> int:
        """One flow size, log-linearly interpolated within the bin."""
        u = self.rng.random()
        index = bisect.bisect_right(self._probs, u) - 1
        index = min(index, len(self._probs) - 2)
        p0, p1 = self._probs[index], self._probs[index + 1]
        s0, s1 = self._sizes[index], self._sizes[index + 1]
        if p1 == p0:
            return s1
        frac = (u - p0) / (p1 - p0)
        # Interpolate in log space: flow sizes span many decades.
        size = math.exp(math.log(s0) + frac * (math.log(s1) - math.log(s0)))
        return max(int(size), 1)

    def mean(self) -> float:
        """Exact mean flow size of the piecewise log-linear distribution.

        Within a bin, ``sample`` draws ``exp`` of a uniform variable over
        ``[ln s0, ln s1]``, whose expectation is the logarithmic mean
        ``(s1 - s0) / ln(s1 / s0)``. The overall mean is the
        probability-weighted sum over bins. Exact arithmetic here matters:
        the heavy data-mining tail (p99 -> p100 spans 100 MB - 1 GB) made
        the old Monte-Carlo estimate — and therefore the offered load —
        swing by tens of percent across seeds.
        """
        total = 0.0
        for i in range(len(self._probs) - 1):
            weight = self._probs[i + 1] - self._probs[i]
            if weight <= 0.0:
                continue
            s0, s1 = self._sizes[i], self._sizes[i + 1]
            if s0 == s1:
                bin_mean = float(s0)
            else:
                bin_mean = (s1 - s0) / math.log(s1 / s0)
            total += weight * bin_mean
        return total
