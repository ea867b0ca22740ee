"""Operation statistics shared by all local structures.

The counts use the Table I cost symbols: ``local_ops`` maps to L,
``reads`` to R, ``writes`` to W, ``cas_ops`` to local CAS.  ``resized``
flags that the operation triggered a capacity change (so the container
charges the N·(R+W) resize term).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["OpStats"]


@dataclass(slots=True)
class OpStats:
    """Work performed by one structure operation."""

    local_ops: int = 0  # pointer chases, comparisons (L)
    reads: int = 0  # entry reads (R)
    writes: int = 0  # entry writes (W)
    cas_ops: int = 0  # local CAS instructions
    relocations: int = 0  # cuckoo kicks / queue fix-ups / purges
    resized: bool = False
    resize_entries: int = 0  # entries moved by the resize, if any

    def merge(self, other: "OpStats") -> "OpStats":
        return OpStats(
            local_ops=self.local_ops + other.local_ops,
            reads=self.reads + other.reads,
            writes=self.writes + other.writes,
            cas_ops=self.cas_ops + other.cas_ops,
            relocations=self.relocations + other.relocations,
            resized=self.resized or other.resized,
            resize_entries=self.resize_entries + other.resize_entries,
        )
