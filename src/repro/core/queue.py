"""HCL::queue — the single-partition distributed FIFO (Section III-D3-A).

"HCL queues are implemented as a single-partitioned structure, but are
globally visible.  The queues are identified by the process ID that hosts
the partition."  Push/pop (scalar and vector forms, per Table I) route every
caller to the hosting node; co-located callers take the shared-memory
bypass, remote callers one RoR invocation.

Dynamic growth: when the queue's estimated footprint exceeds its segment, a
resize of the hosting partition runs with copy/delete migration semantics —
**new pushes stall, pops keep being served** (the paper's migration rule),
modeled by charging the migration's resize term to the push that triggers
it; pop handlers never grow.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.core.container import OP_TABLES, Partition, QueueContainer
from repro.rpc.future import RPCFuture
from repro.structures.lfqueue import QueueEmpty
from repro.structures.stats import OpStats

__all__ = ["HCLQueue"]


class HCLQueue(QueueContainer):
    """Distributed lock-free FIFO queue."""

    OPS = OP_TABLES["queue"]
    CXX_NAME = "HCL::queue"

    # -- server-side ops -----------------------------------------------------
    def _do_push(self, part: Partition, value):
        entry_bytes = self._entry_bytes(value)
        q = part.structure
        stats = q.push(value)
        grow = self._maybe_grow(part, entry_bytes, len(q))
        if grow is not None:
            stats = stats.merge(grow)
        return True, stats, entry_bytes

    def _do_pop(self, part: Partition):
        try:
            value, stats = part.structure.pop()
        except QueueEmpty:
            return (None, False), OpStats(local_ops=1), 16
        return (value, True), stats, self._entry_bytes(value)

    def _do_push_many(self, part: Partition, values):
        entry_bytes = self._entry_bytes(*values) if values else 16
        q = part.structure
        stats = q.push_many(values)
        grow = self._maybe_grow(part, entry_bytes, len(q))
        if grow is not None:
            stats = stats.merge(grow)
        return True, stats, max(64, entry_bytes // max(1, len(values)))

    def _do_pop_many(self, part: Partition, count):
        values, stats = part.structure.pop_many(count)
        per = self._entry_bytes(*values) // len(values) if values else 16
        return values, stats, max(16, per)

    # -- client API ------------------------------------------------------------
    def push(self, rank: int, value: Any):
        """bool push(const T&) — Table I: F + L + W."""
        return self._issue(rank, "push", (value,), self._execute, self.home)

    def push_async(self, rank: int, value: Any) -> RPCFuture:
        return self._issue(rank, "push", (value,), self._execute_async,
                           self.home)

    def push_many(self, rank: int, values: Sequence[Any]):
        """Vector push — Table I: F + L + E·W (one invocation for E items)."""
        values = list(values)
        return self._issue(
            rank, "push_many", (values,), self._execute, self.home,
            self._entry_bytes(*values) if values else 16,
        )
