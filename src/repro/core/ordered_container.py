"""HCL::map and HCL::set — ordered containers (Section III-D2).

Each partition is "an ordered partition, containing the key space" backed by
a red-black tree; the global key space is split across partitions so that
partition order equals key order, and in-order traversal concatenates
partitions.  The comparator defaults to ``operator<`` (``std::less``) and is
user-overridable, as is the key-space partitioner.

The default partitioner hashes nothing: it range-partitions a configurable
``key_space`` interval (numeric keys), or falls back to round-robin on key
length for strings — the paper's "distribute the key-space in a round-robin
fashion based on the key length".
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, List, Optional, Tuple

from repro.core.container import OP_TABLES, KeyedContainer, Partition
from repro.structures.rbtree import RedBlackTree
from repro.structures.stats import OpStats

__all__ = ["HCLMap", "HCLSet", "range_partitioner", "keylen_partitioner"]


def range_partitioner(lo: float, hi: float) -> Callable[[Any, int], int]:
    """Split numeric keys of ``[lo, hi)`` into equal per-partition ranges."""
    if not lo < hi:
        raise ValueError("need lo < hi")

    def pick(key, nparts: int) -> int:
        if key < lo:
            return 0
        if key >= hi:
            return nparts - 1
        return int((key - lo) / (hi - lo) * nparts)

    return pick


def keylen_partitioner(key, nparts: int) -> int:
    """Round-robin on key length (strings/sequences), per the paper."""
    try:
        return len(key) % nparts
    except TypeError:
        return int(key) % nparts


class _OrderedContainerBase(KeyedContainer):
    def __init__(self, runtime, name, partitions, policy,
                 partitioner: Optional[Callable[[Any, int], int]] = None,
                 less: Optional[Callable[[Any, Any], bool]] = None):
        self._partitioner = partitioner or keylen_partitioner
        self._less = less or (lambda a, b: a < b)
        super().__init__(runtime, name, partitions, policy)

    def partition_for(self, key: Hashable) -> Partition:
        idx = self._partitioner(key, len(self.partitions))
        if not 0 <= idx < len(self.partitions):
            raise IndexError(
                f"partitioner returned {idx} for key {key!r} "
                f"({len(self.partitions)} partitions)"
            )
        return self.partitions[idx]

    # -- resize: Table I gives F + N log(N) (R + W) for the ordered case -----
    def _do_resize(self, part: Partition, new_bytes: int):
        tree: RedBlackTree = part.structure
        n = len(tree)
        stats = OpStats(resized=True, resize_entries=n,
                        local_ops=n * max(1, n.bit_length()))
        if new_bytes > part.segment.size:
            part.segment.grow(new_bytes)
        return True, stats, 128

    # -- range queries (the ordered containers' reason to exist) -------------
    def _do_range_find(self, part: Partition, lo, hi, limit):
        tree: RedBlackTree = part.structure
        out = []
        for k, v in tree.range_items(lo, hi):
            out.append((k, v))
            if limit is not None and len(out) >= limit:
                break
        n = len(out)
        stats = OpStats(local_ops=max(1, len(tree)).bit_length() + n,
                        reads=n)
        return out, stats, 64

    def _do_min_key(self, part: Partition):
        tree: RedBlackTree = part.structure
        k = tree.min_key()
        return k, OpStats(local_ops=max(1, len(tree)).bit_length()), 16

    def _do_max_key(self, part: Partition):
        tree: RedBlackTree = part.structure
        k = tree.max_key()
        return k, OpStats(local_ops=max(1, len(tree)).bit_length()), 16

    def range_find(self, rank: int, lo, hi, limit: Optional[int] = None):
        """Generator: all ``lo <= key < hi`` items, globally ordered.

        Fans out one ``range_find`` invocation per partition (served in
        parallel through async futures), then merges.  With an
        order-preserving partitioner the merge is a concatenation; with a
        scattering partitioner the results are merge-sorted client-side.
        """
        chunks = yield from self._fan_out(
            rank, "range_find", (lo, hi, limit), 32
        )
        merged: List[Tuple[Hashable, Any]] = [
            item for chunk in chunks for item in chunk
        ]
        merged.sort(key=lambda kv: _SortKey(kv[0], self._less))
        if limit is not None:
            merged = merged[:limit]
        return merged

    def min_key(self, rank: int):
        """Generator: the smallest key across all partitions (or None)."""
        best = None
        for k in (yield from self._fan_out(rank, "min_key", (), 16)):
            if k is not None and (best is None or self._less(k, best)):
                best = k
        return best

    def max_key(self, rank: int):
        """Generator: the largest key across all partitions (or None)."""
        best = None
        for k in (yield from self._fan_out(rank, "max_key", (), 16)):
            if k is not None and (best is None or self._less(best, k)):
                best = k
        return best


class _SortKey:
    """Adapter: total order from the container's ``less`` comparator."""

    __slots__ = ("key", "less")

    def __init__(self, key, less):
        self.key = key
        self.less = less

    def __lt__(self, other: "_SortKey") -> bool:
        return self.less(self.key, other.key)


class HCLMap(_OrderedContainerBase):
    """Distributed ordered map over red-black trees."""

    OPS = OP_TABLES["map"]


class HCLSet(_OrderedContainerBase):
    """Distributed ordered set."""

    OPS = OP_TABLES["set"]
    STORES_VALUES = False
