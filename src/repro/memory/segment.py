"""Memory segments: a registered region plus optional persistence.

A :class:`MemorySegment` is the unit a container partition lives in.  It
couples two things:

* a registered RDMA :class:`~repro.fabric.nic.MemoryRegion` on the hosting
  node, whose size is charged against the node's memory budget,
* optionally a :class:`~repro.memory.persistent.PersistentLog` for DataBox
  persistence.

``grow()`` is the paper's realloc: the region grows in place through
:meth:`~repro.fabric.node.Node.resize_region`.  The rehash cost that
follows a resize is charged by the container from the structure's
``OpStats`` (Section III-D1), not here.
"""

from __future__ import annotations

from typing import Optional

from repro.fabric.node import Node
from repro.memory.persistent import PersistentLog

__all__ = ["MemorySegment"]


class MemorySegment:
    """A partition-backing slab on one node."""

    def __init__(
        self,
        node: Node,
        size: int,
        name: str,
        backing_path: Optional[str] = None,
        relaxed_persistence: bool = False,
    ):
        self.node = node
        self.name = name
        self.region = node.register_region(name, size)
        self.log: Optional[PersistentLog] = None
        if backing_path is not None:
            self.log = PersistentLog(backing_path, relaxed=relaxed_persistence)

    @property
    def size(self) -> int:
        return self.region.size

    def grow(self, new_size: int) -> None:
        """Grow the segment to ``new_size`` bytes (OOM leaves it unchanged)."""
        if new_size <= self.size:
            raise ValueError("grow requires a larger size")
        self.node.resize_region(self.name, new_size)

    # -- persistence -----------------------------------------------------------------
    def persist(self, payload: bytes) -> None:
        if self.log is not None:
            self.log.append(payload)

    def close(self) -> None:
        if self.log is not None:
            self.log.close()
        self.node.deregister_region(self.name)
