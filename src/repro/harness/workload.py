"""Synthetic workload building blocks.

The paper's synthetic benchmarks issue fixed-size operations against
containers ("8192 operations of 64KB size", "operation size from 4KB to
8MB").  :class:`Blob` is the sized-but-cheap payload: the simulation charges
its ``nbytes`` without materializing megabytes per op.
"""

from __future__ import annotations

import struct
from typing import Iterator

import numpy as np

from repro.serialization.databox import register_custom_type

__all__ = ["Blob", "key_stream"]


class Blob:
    """A payload of a declared size.

    ``estimate_size`` in the serialization layer reads ``nbytes``; equality
    and hashing are by (size, tag) so finds can verify round-trips.
    """

    __slots__ = ("nbytes", "tag")

    def __init__(self, nbytes: int, tag: int = 0):
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        self.nbytes = nbytes
        self.tag = tag

    def __eq__(self, other):
        return (
            isinstance(other, Blob)
            and other.nbytes == self.nbytes
            and other.tag == self.tag
        )

    def __hash__(self):
        return hash((self.nbytes, self.tag))

    def __repr__(self):  # pragma: no cover
        return f"Blob({self.nbytes}, tag={self.tag})"


# Blobs ride the DataBox custom-type path (persistence logs encode the op
# arguments); contents are synthetic, so only the shape is stored.
register_custom_type(
    Blob,
    lambda b: struct.pack("<qq", b.nbytes, b.tag),
    lambda raw: Blob(*struct.unpack("<qq", raw)),
)


def key_stream(rank: int, count: int, seed: int = 0,
               key_space: int = 1 << 30) -> Iterator[int]:
    """Deterministic per-rank stream of integer keys."""
    rng = np.random.default_rng((seed << 24) ^ (rank * 2654435761 % (1 << 31)))
    for v in rng.integers(0, key_space, size=count):
        yield int(v)
