"""Seeded randomness for reproducible experiments.

Every stochastic decision in the simulation (flow start jitter, loss
injection, background traffic) draws from a :class:`SeededRandom` handed
down from the experiment config, never from the global ``random`` module.
"""

from __future__ import annotations

import random
import zlib


class SeededRandom:
    """Thin wrapper around :class:`random.Random` with named substreams.

    ``fork(name)`` derives an independent, deterministic substream so
    that adding a new consumer of randomness does not perturb existing
    ones (a classic reproducibility bug in simulators).
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._rng = random.Random(seed)

    def fork(self, name: str) -> "SeededRandom":
        """Derive an independent substream keyed by ``name``.

        Uses CRC32 (stable across processes, unlike ``hash()`` on str)
        mixed with the parent seed.
        """
        digest = zlib.crc32(name.encode("utf-8"))
        child_seed = (self.seed * 2654435761 + digest) & 0x7FFFFFFFFFFFFFFF
        return SeededRandom(child_seed)

    def uniform(self, lo: float, hi: float) -> float:
        return self._rng.uniform(lo, hi)

    def randint(self, lo: int, hi: int) -> int:
        return self._rng.randint(lo, hi)

    def random(self) -> float:
        return self._rng.random()

    def expovariate(self, rate: float) -> float:
        return self._rng.expovariate(rate)

    def chance(self, probability: float) -> bool:
        """True with the given probability."""
        if probability <= 0.0:
            return False
        if probability >= 1.0:
            return True
        return self._rng.random() < probability

    def jitter_ns(self, max_jitter_ns: int) -> int:
        """A uniform jitter in [0, max_jitter_ns]."""
        if max_jitter_ns <= 0:
            return 0
        return self._rng.randint(0, max_jitter_ns)
