"""Optimistic FIFO queue after Ladan-Mozes & Shavit (DISC'04).

HCL's ``HCL::queue`` "uses a state-of-the-art algorithm that maintains a
list of pointers to allow concurrent lock-free operations [32].  During a
push() operation, a new node is added to the list at the current tail by a
CAS increment on the tail list position ... a background asynchronous
fix-list operation consolidates all the elements based on arrival time"
(Section III-D3).

The optimistic queue is a doubly-linked list where enqueue CASes the tail
and *optimistically* writes the new node's ``prev`` pointer without
synchronization; dequeue walks ``prev`` pointers from the tail-anchored
chain, and when it finds them inconsistent (because an enqueuer was
interrupted between the tail CAS and the prev write) it runs ``fix_list`` —
a repair pass that rebuilds prev pointers from the authoritative ``next``
chain.  We reproduce that structure faithfully, including the fix-list pass
and its operation count, with each CAS counted as one ``cas_ops``.

To exercise the fix-list machinery deterministically, ``enqueue`` accepts
``defer_prev=True`` which simulates an enqueuer stalled before publishing
its prev pointer.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional, Tuple

from repro.structures.stats import OpStats

__all__ = ["OptimisticQueue", "QueueEmpty"]


class QueueEmpty(Exception):
    """pop() on an empty queue."""


class _QNode:
    __slots__ = ("value", "next", "prev", "stamp")

    def __init__(self, value, stamp):
        self.value = value
        self.next: Optional[_QNode] = None  # toward head (older)
        self.prev: Optional[_QNode] = None  # toward tail (newer)
        self.stamp = stamp  # arrival order, drives fix-list consolidation


class OptimisticQueue:
    """MWMR FIFO with optimistic prev-pointers and a fix-list repair pass."""

    def __init__(self):
        dummy = _QNode(None, 0)
        self._head = dummy  # dequeue side
        self._tail = dummy  # enqueue side
        self._count = 0
        self._stamp = 0
        self.fixups_total = 0

    def __len__(self) -> int:
        return self._count

    @property
    def empty(self) -> bool:
        return self._count == 0

    # -- enqueue -----------------------------------------------------------------
    def push(self, value: Any, defer_prev: bool = False) -> OpStats:
        """Append at the tail.  One CAS on the tail + one node write."""
        stats = OpStats()
        self._stamp += 1
        node = _QNode(value, self._stamp)
        stats.writes += 1
        stats.cas_ops += 1  # the tail CAS
        old_tail = self._tail
        node.next = old_tail
        self._tail = node
        if not defer_prev:
            # Optimistic, uns-synchronized prev publication.
            old_tail.prev = node
            stats.local_ops += 1
        self._count += 1
        return stats

    def push_many(self, values) -> OpStats:
        """Vector push (Table I: F + L + E*W)."""
        local_ops = writes = cas_ops = 0  # the fields push counts
        for v in values:
            s = self.push(v)
            local_ops += s.local_ops
            writes += s.writes
            cas_ops += s.cas_ops
        return OpStats(local_ops=local_ops, writes=writes, cas_ops=cas_ops)

    # -- dequeue ------------------------------------------------------------------
    def pop(self) -> Tuple[Any, OpStats]:
        """Remove from the head.  Runs fix-list when prev chain is broken."""
        stats = OpStats()
        if self._count == 0:
            raise QueueEmpty()
        head = self._head
        first = head.prev  # the oldest real node
        if first is None:
            self._fix_list(stats)
            first = head.prev
        if first is None:
            raise QueueEmpty()  # pragma: no cover - repaired above
        stats.cas_ops += 1  # the head CAS
        stats.reads += 1
        value = first.value
        first.value = None
        self._head = first
        self._count -= 1
        if self._count == 0:
            # List empty: head and tail converge on the new dummy.
            self._tail = first
            first.prev = None
        return value, stats

    def pop_many(self, n: int):
        """Vector pop of up to ``n`` elements (Table I: F + L + E*R)."""
        reads = cas_ops = relocations = 0  # the fields pop counts
        out = []
        for _ in range(n):
            if self.empty:
                break
            v, s = self.pop()
            out.append(v)
            reads += s.reads
            cas_ops += s.cas_ops
            relocations += s.relocations
        return out, OpStats(reads=reads, cas_ops=cas_ops,
                            relocations=relocations)

    def _fix_list(self, stats: OpStats) -> None:
        """Rebuild prev pointers tail -> head from the authoritative next chain,
        consolidating by arrival stamp (the paper's background fix-list)."""
        node = self._tail
        while node is not self._head:
            nxt = node.next
            if nxt is None:
                break
            nxt.prev = node
            stats.relocations += 1
            node = nxt
        self.fixups_total += 1

    # -- introspection -----------------------------------------------------------
    def snapshot(self) -> Iterator[Any]:
        """Oldest-to-newest values (repairs nothing; follows next chain)."""
        chain = []
        node = self._tail
        while node is not None:
            if node.value is not None or node is not self._head:
                chain.append(node)
            node = node.next
        for n in reversed(chain):
            if n.value is not None:
                yield n.value

    def check_invariants(self) -> None:
        vals = list(self.snapshot())
        assert len(vals) == self._count, f"{len(vals)} != {self._count}"
        node = self._tail
        stamps = []
        while node is not None and node.value is not None:
            stamps.append(node.stamp)
            node = node.next
        assert stamps == sorted(stamps, reverse=True), "stamp order broken"
