"""HCL::unordered_map and HCL::unordered_set (Section III-D1).

Both are "a single logically contiguous array of buckets distributed
block-wise among multiple partitions in the global address space" with two
levels of hashing: the first chooses the partition, the second locates the
bucket inside it (done by the partition's cuckoo table).  Users can override
the key distribution by passing ``hash_fn`` (the ``std::hash<K>`` override).

Maps store ``(key, value)`` buckets; sets store key-only buckets, which is
why the paper measures sets 7-14% faster (smaller serialization) — here the
value bytes simply drop out of the charged sizes.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Optional

from repro.core.container import OP_TABLES, KeyedContainer, Partition
from repro.memory.segment import MemorySegment
from repro.rpc.future import RPCFuture
from repro.structures.cuckoo import _GOLDEN64, _MASK64, CuckooHash, stable_hash
from repro.structures.stats import OpStats

__all__ = ["HCLUnorderedMap", "HCLUnorderedSet", "stable_hash"]


class _HashContainerBase(KeyedContainer):
    """Shared two-level-hashing machinery."""

    def __init__(self, runtime, name, partitions, policy, hash_fn=None):
        self._hash_fn: Callable[[Any], int] = hash_fn or stable_hash
        #: key -> winning Partition, memoizing the HRW sweep (pure host-side
        #: work, so caching cannot perturb simulated time); cleared by
        #: ``add_partition`` and ``remove_partition``, the only membership
        #: changes.
        self._route_cache: dict = {}
        super().__init__(runtime, name, partitions, policy)

    # -- level-1 hash: key -> partition ------------------------------------
    # Rendezvous (highest-random-weight) hashing: each key scores every
    # partition by mixing the key hash with the partition's stable uid and
    # picks the maximum.  Uniform at any member count AND minimally
    # disruptive on membership change: adding/removing a partition only
    # remaps the keys whose winner changed (~1/(n+1) of them) — the
    # property behind HCL's cheap, localized re-balancing (vs BCL's
    # limitation (e)).
    @staticmethod
    def _hrw_score(h: int, uid: int) -> int:
        x = (h ^ (uid * 0xC2B2AE3D27D4EB4F)) & _MASK64
        x = (x * _GOLDEN64) & _MASK64
        x ^= x >> 29
        x = (x * 0xBF58476D1CE4E5B9) & _MASK64
        return x ^ (x >> 32)

    def partition_for(self, key: Hashable) -> Partition:
        part = self._route_cache.get(key)
        if part is not None:
            return part
        h = self._hash_fn(key) & _MASK64
        best = None
        best_score = -1
        for part in self.partitions:
            score = self._hrw_score(h, part.uid)
            if score > best_score:
                best = part
                best_score = score
        self._route_cache[key] = best
        return best

    # -- explicit resize (Table I row 3) -----------------------------------
    def _do_resize(self, part: Partition, new_buckets: int):
        table: CuckooHash = part.structure
        if new_buckets <= table.bucket_count:
            return False, None, 0
        stats = OpStats(resized=True, resize_entries=len(table))
        while table.bucket_count < new_buckets:
            table._resize(stats)
        self._grow_segment_if_resized(part, stats, 128)
        return True, stats, 128

    # -- dynamic partition membership (Section III-D: "heterogeneous
    # partitions within PGAS ... dynamic addition/removal of partitions") --
    def add_partition(self, rank: int, node_id: int,
                      initial_buckets: Optional[int] = None):
        """Generator: grow the container by one partition on ``node_id``.

        Entries whose first-level hash now lands on the new partition are
        migrated there (the re-balancing cost BCL's static agreement makes
        expensive — here it is localized to moved keys, no all-to-all
        synchronization).  Returns the number of migrated entries.
        """
        node = self.runtime.cluster.node(node_id)
        index = len(self.partitions)
        uid = max(p.uid for p in self.partitions) + 1
        seg = MemorySegment(node, 64 * 1024, name=f"{self.name}.u{uid}")
        structure = CuckooHash(
            initial_buckets or CuckooHash.DEFAULT_BUCKETS,
            hash_fn=self._hash_fn,
        )
        part = Partition(index, node_id, structure, seg, uid=uid)
        # Bind handlers for the (possibly new) hosting node before routing.
        self._bind(node_id)
        if self._coalescer is not None:
            # Buffered ops routed under the old membership must land first.
            yield from self._coalescer.drain(rank)
        self.partitions.append(part)
        self._route_cache.clear()  # HRW winners changed for ~1/(n+1) keys
        if self._cache is not None:
            self._cache.clear()  # partition indices / routing changed
        moved = yield from self._migrate_misplaced(rank)
        return moved

    def remove_partition(self, rank: int, partition_id: int):
        """Generator: drain and remove one partition; entries re-hash to the
        surviving partitions.  Returns the number of migrated entries."""
        if len(self.partitions) < 2:
            raise ValueError("cannot remove the last partition")
        if not 0 <= partition_id < len(self.partitions):
            raise IndexError(f"no partition {partition_id}")
        if self._coalescer is not None:
            yield from self._coalescer.drain(rank)
        if self._cache is not None:
            self._cache.clear()  # partition indices / routing changed
        victim = self.partitions.pop(partition_id)
        self._route_cache.clear()  # surviving winners must be re-scored
        for i, part in enumerate(self.partitions):
            part.index = i
        evicted = list(victim.structure.items())
        for key, value in evicted:
            entry = (key, value) if self.STORES_VALUES else (key,)
            yield from self.insert(rank, *entry)
        victim.segment.close()
        return len(evicted)

    def _migrate_misplaced(self, rank: int):
        """Move entries whose partition changed after a membership change.

        Rendezvous hashing keeps the moved set minimal (~1/(n+1) of the
        keys); the moves ship through the batched multi-op API — one
        invocation per destination partition — so migration cost is a few
        bulk transfers, not per-key round trips.
        """
        ops = []
        for part in list(self.partitions):
            for key, value in list(part.structure.items()):
                target = self.partition_for(key)
                if target is part:
                    continue
                part.structure.remove(key)
                part.write_epoch += 1
                ops.append(("insert", key, value) if self.STORES_VALUES
                           else ("insert", key))
        if ops:
            yield from self.batch(rank, ops)
        return len(ops)


class HCLUnorderedMap(_HashContainerBase):
    """Distributed hash map: ``insert(k, v)``, ``find(k)``, ``erase(k)``."""

    OPS = OP_TABLES["unordered_map"]

    # -- read-modify-write at the target -------------------------------------
    def _do_upsert(self, part: Partition, key, delta):
        """Read-modify-write executed *at the target* — one invocation.

        The procedural-programming showcase: a client-side library (BCL)
        needs a find round trip plus an insert round trip (plus their CAS
        traffic) for the same effect.  Used by the k-mer counting kernel.
        """
        new, stats = part.structure.upsert(key, delta)
        entry_bytes = self._entry_bytes(key, new)
        if stats.resized:
            self._grow_segment_if_resized(part, stats, entry_bytes)
        return new, stats, entry_bytes

    def _run_upsert(self, part: Partition, pairs, results):
        """A batch's run of upserts as vector calls on the table.

        Appends each op's new value to ``results`` and returns ``(stats,
        worst_entry_bytes)`` — what ``len(pairs)`` :meth:`_do_upsert` calls
        charge.  Each call stops right after an op that resized, so the
        segment grows at that op with that op's entry bytes.
        """
        upsert_many = part.structure.upsert_many
        entry_bytes = self._entry_bytes
        first = len(results)
        total = None
        worst = 0
        pos = 0
        n = len(pairs)
        try:
            while pos < n:
                stop, stats = upsert_many(pairs, pos, results)
                for k in range(pos, stop):
                    size = entry_bytes(pairs[k][0], results[first + k])
                    if size > worst:
                        worst = size
                if stats.resized:
                    self._grow_segment_if_resized(part, stats, size)
                total = stats if total is None else total.merge(stats)
                pos = stop
        finally:
            # One epoch bump per applied op, as per-op calls would leave.
            part.write_epoch += len(results) - first
        return total, worst

    def upsert(self, rank: int, key: Hashable, delta: Any = 1):
        """Generator: atomic increment-or-insert; returns the new value."""
        return self._issue(rank, "upsert", (key, delta), self._execute)

    def upsert_buffered(self, rank: int, key: Hashable, delta: Any = 1):
        """Generator: upsert through the aggregation buffer.

        With ``aggregation=0`` this is exactly :meth:`upsert`; otherwise a
        remote-bound upsert is write-combined and applied at the next
        threshold or sync-point flush (returning None immediately).  The
        k-mer/contig build storms' hot path.
        """
        return self._issue(rank, "upsert", (key, delta), self._buffer_op)

    def async_rmw(self, rank: int, key: Hashable, delta: Any = 1) -> RPCFuture:
        """Pipelined atomic increment-or-insert; future of the new value.

        The combination the k-mer storm wants: the op write-combines like
        :meth:`upsert_buffered`, yet the caller still gets *this op's*
        result through a per-op future — pipelining without giving up
        per-op completions.  Remote issues ride the AIMD congestion window
        when the runtime has one armed.
        """
        return self._issue(rank, "upsert", (key, delta), self._pipeline_op)


class HCLUnorderedSet(_HashContainerBase):
    """Distributed hash set: key-only buckets."""

    OPS = OP_TABLES["unordered_set"]
    STORES_VALUES = False
