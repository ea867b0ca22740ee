"""HCL::priority_queue — single-partition MDList queue (Section III-D3-B).

Push places a node in the multi-dimensional list (O(log N)-class cost, the
source of the 30% gap to the FIFO queue in Fig 6c); pop takes the minimum
and relies on the background purge to compact logically-deleted nodes.

Priorities are non-negative integers (they must fit the MDList coordinate
space); values are arbitrary.  ``push(rank, priority, value)`` /
``pop(rank) -> ((priority, value), ok)``.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Sequence, Tuple

from repro.core.container import OP_TABLES, Partition, QueueContainer
from repro.rpc.future import RPCFuture
from repro.structures.mdlist import PriorityQueueEmpty
from repro.structures.stats import OpStats

__all__ = ["HCLPriorityQueue"]


class HCLPriorityQueue(QueueContainer):
    """Distributed min-priority queue."""

    OPS = OP_TABLES["priority_queue"]
    CXX_NAME = "HCL::priority_queue"

    # -- server-side ops --------------------------------------------------------
    def _do_push(self, part: Partition, priority, value):
        entry_bytes = self._entry_bytes(priority, value)
        stats = part.structure.push(priority, value)
        grow = self._maybe_grow(part, entry_bytes, len(part.structure))
        if grow is not None:
            stats = stats.merge(grow)
        return True, stats, entry_bytes

    def _run_push(self, part: Partition, pairs, results):
        """A batch's run of pushes as one ``push_many`` call.

        Appends each pushed op's ``True`` to ``results`` and returns
        ``(stats, worst_entry_bytes)`` — what ``len(pairs)``
        :meth:`_do_push` calls charge.  Each op bumps the epoch once and
        meets the grow rule at its own length, so a range error mid-run
        leaves the pushed prefix as per-op calls would.
        """
        pq = part.structure
        entry_bytes = self._entry_bytes
        sizes = [entry_bytes(priority, value) for priority, value in pairs]
        before = len(pq)
        grown = None
        try:
            stats = pq.push_many(pairs)
        finally:
            pushed = len(pq) - before
            part.write_epoch += pushed
            results.extend([True] * pushed)
            maybe_grow = self._maybe_grow
            for k in range(pushed):
                grow = maybe_grow(part, sizes[k], before + k + 1)
                if grow is not None:
                    grown = grow if grown is None else grown.merge(grow)
        if grown is not None:
            stats = stats.merge(grown)
        return stats, max(sizes)

    def _do_pop(self, part: Partition):
        try:
            priority, value, stats = part.structure.pop_min()
        except PriorityQueueEmpty:
            return (None, False), OpStats(local_ops=1), 16
        return ((priority, value), True), stats, self._entry_bytes(priority, value)

    def _do_push_many(self, part: Partition, entries):
        stats = part.structure.push_many(entries)
        total_bytes = 16 + self._entry_bytes(*chain.from_iterable(entries))
        per = total_bytes // max(1, len(entries))
        grow = self._maybe_grow(part, per, len(part.structure))
        if grow is not None:
            stats = stats.merge(grow)
        return True, stats, max(64, per)

    def _do_pop_many(self, part: Partition, count):
        out, stats = part.structure.pop_many(count)
        return out, stats, 64

    def _do_peek(self, part: Partition):
        try:
            priority, value = part.structure.peek_min()
        except PriorityQueueEmpty:
            return (None, False), OpStats(local_ops=1), 16
        return ((priority, value), True), OpStats(local_ops=1, reads=1), 64

    # -- client API -----------------------------------------------------------------
    def push(self, rank: int, priority: int, value: Any = None):
        """Table I: F + L·log(N) + W."""
        return self._issue(rank, "push", (priority, value), self._execute,
                           self.home)

    def push_async(self, rank: int, priority: int, value: Any = None) -> RPCFuture:
        return self._issue(rank, "push", (priority, value),
                           self._execute_async, self.home)

    def push_buffered(self, rank: int, priority: int, value: Any = None):
        """Generator: push through the aggregation buffer.

        With ``aggregation=0`` this is exactly :meth:`push`; otherwise
        remote pushes write-combine into one ``batch`` invocation per
        flush (the ISx key-scatter hot path).
        """
        return self._issue(rank, "push", (priority, value), self._buffer_op,
                           self.home)

    def push_many(self, rank: int, entries: Sequence[Tuple[int, Any]]):
        """Vector push — Table I: F + L·log(N) + E·W."""
        entries = [tuple(e) for e in entries]
        payload = self._entry_bytes(*chain.from_iterable(entries)) or 16
        return self._issue(rank, "push_many", (entries,), self._execute,
                           self.home, payload)

    def peek(self, rank: int):
        """Returns ``((priority, value), ok)`` without removing the entry."""
        return self._issue(rank, "peek", (), self._execute, self.home, 16)
