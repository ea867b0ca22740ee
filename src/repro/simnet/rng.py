"""Deterministic random-number streams for reproducible experiments.

Every experiment in the paper reports averages of repeated runs; for a
simulation the equivalent discipline is *named substreams* derived from a
single root seed, so that (a) two runs with the same seed are bit-identical
and (b) adding a new consumer of randomness does not perturb existing ones.

Streams are ``numpy.random.Generator`` instances keyed by a string path,
seeded via ``SeedSequence`` spawning from the hash of the path.
"""

from __future__ import annotations

import zlib
from typing import Dict

import numpy as np

__all__ = ["RngRegistry"]


class RngRegistry:
    """Factory of independent, reproducible random streams.

    ::

        rngs = RngRegistry(seed=42)
        keygen = rngs.stream("workload/keys")
        jitter = rngs.stream("fabric/link-jitter")
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating if needed) the stream for ``name``."""
        gen = self._streams.get(name)
        if gen is None:
            # Stable 32-bit digest of the name keeps streams independent of
            # creation order.
            digest = zlib.crc32(name.encode("utf-8"))
            seq = np.random.SeedSequence([self.seed, digest])
            gen = np.random.default_rng(seq)
            self._streams[name] = gen
        return gen
