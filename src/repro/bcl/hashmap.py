"""BCL's distributed hash map, driven entirely from the client side.

The insert protocol is the one the paper's motivating example dissects
(Section II-B / Fig 1):

1. ``CAS`` the bucket's state word EMPTY -> RESERVED.  "If this reservation
   fails, the client will retry on the next bucket in sequence" (linear
   probing, *another remote CAS per probe*).
2. ``RDMA_WRITE`` the entry into the bucket.
3. ``CAS`` the state RESERVED -> READY.

A find reads the state+key with an ``RDMA_READ``, probing forward on key
mismatch — fewer atomics than insert, which is why BCL finds consistently
beat BCL inserts in Figs 5/6.

Static partitioning: each partition pre-allocates ``capacity`` buckets of a
*fixed* ``entry_size`` at construction (limitation (f)), charged at
``bcl_init_bandwidth`` over simulated time — the Fig 4(b) memory ramp.  Each
client additionally pins ``inflight_slots`` exclusive buffers of
``entry_size`` on the target node at first use — the source of the >1 MB
out-of-memory failures in Fig 5.

Functionally the map is real: entries live in the region's object plane and
finds return the actual stored values.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Optional

from repro.bcl.runtime import BCL
from repro.serialization.databox import estimate_size
from repro.simnet.core import Event
from repro.obs.registry import registry_of
from repro.structures.cuckoo import _GOLDEN64, _MASK64

__all__ = ["BCLHashMap"]

# Bucket state words
EMPTY, RESERVED, READY = 0, 1, 2

#: Bytes of bucket metadata co-located with each entry (state + key hash).
_BUCKET_HEADER = 16


class BCLHashMap:
    """Client-side CAS hash map with linear probing and static layout."""

    MAX_PROBES = 64

    def __init__(self, bcl: BCL, name: str, partitions: int,
                 capacity_per_partition: int, entry_size: int,
                 inflight_slots: int = 512,
                 max_probes: Optional[int] = None):
        if capacity_per_partition < 1:
            raise ValueError("capacity_per_partition must be positive")
        if max_probes is not None:
            self.MAX_PROBES = max_probes
        self.bcl = bcl
        self.cluster = bcl.cluster
        self.sim = bcl.sim
        self.name = name
        self.num_partitions = partitions
        self.capacity = capacity_per_partition
        self.entry_size = entry_size
        self.inflight_slots = inflight_slots
        self.ready = Event(self.sim)  # fires when the static init completes
        self._regions: Dict[int, str] = {}
        self._client_buffers: set = set()
        metrics = registry_of(self.sim)
        self.cas_retries = metrics.counter(f"{name}/cas_retries")
        self.inserts = metrics.counter(f"{name}/inserts")
        self.finds = metrics.counter(f"{name}/finds")
        self._partition_nodes = [
            i % self.cluster.num_nodes for i in range(partitions)
        ]
        self.sim.process(self._static_init(), name=f"bcl-init-{name}")

    # -- static initialization (the Fig 4b memory ramp) -----------------------
    def _static_init(self):
        """Allocate every partition up front, at init bandwidth."""
        chunk = 64 << 20  # allocate in 64 MiB steps so the ramp is visible
        for index, node_id in enumerate(self._partition_nodes):
            node = self.cluster.node(node_id)
            total = self.capacity * (self.entry_size + _BUCKET_HEADER)
            region_name = f"bcl.{self.name}.{index}"
            node.nic.register_region(region_name, total)
            self._regions[index] = region_name
            done = 0
            while done < total:
                step = min(chunk, total - done)
                self.bcl.allocate(node, step, what=f"{region_name} static")
                done += step
                yield step / self.bcl.cost.bcl_init_bandwidth
        self.ready.succeed(None)

    # -- addressing ---------------------------------------------------------------
    def _partition_of(self, key: Hashable) -> int:
        h = (hash(key) * _GOLDEN64) & _MASK64
        return (h >> 32) % self.num_partitions

    def _bucket_of(self, key: Hashable) -> int:
        return hash(key) % self.capacity

    def _slot_offset(self, bucket: int) -> int:
        return bucket * (self.entry_size + _BUCKET_HEADER)

    def _ensure_client_buffer(self, rank: int, target_node: int):
        """Pin this client's exclusive RDMA buffers on the target node."""
        key = (rank, target_node)
        if key in self._client_buffers:
            return
        self._client_buffers.add(key)
        node = self.cluster.node(target_node)
        nbytes = self.inflight_slots * self.entry_size
        self.bcl.allocate(node, nbytes, what=f"client {rank} RDMA buffers")

    def _route(self, rank: int, key: Hashable):
        """Every op's prologue: ``(target, qp, region name, region,
        bucket)`` for ``key``; pins the caller's buffers (may raise
        ``BCLOutOfMemory``)."""
        part = self._partition_of(key)
        target = self._partition_nodes[part]
        self._ensure_client_buffer(rank, target)
        qp = self.cluster.qp(self.cluster.node_of_rank(rank))
        region = self._regions[part]
        region_obj = self.cluster.node(target).nic.region(region)
        return target, qp, region, region_obj, self._bucket_of(key)

    # -- operations (generators run inside rank processes) -------------------------
    def insert(self, rank: int, key: Hashable, value: Any):
        """Client-side insert: CAS-reserve, write, CAS-ready.

        Returns True.  Raises :class:`~repro.bcl.runtime.BCLOutOfMemory` when
        buffers cannot be pinned, and ``RuntimeError`` when probing exhausts
        the static bucket array (no dynamic resize in this model —
        limitation (e)).
        """
        if not self.ready.triggered:
            yield self.ready
        target, qp, region, region_obj, bucket = self._route(rank, key)
        size = max(estimate_size(key) + estimate_size(value), 1)
        for probe in range(self.MAX_PROBES):
            slot = (bucket + probe) % self.capacity
            off = self._slot_offset(slot)
            # 1. remote CAS: reserve the bucket.
            old = yield from qp.cas(target, region, off, EMPTY, RESERVED)
            if old == EMPTY:
                # 2. remote write of the entry payload.
                yield from qp.rdma_write(
                    target, region, off + 1, (key, value), size
                )
                # 3. remote CAS: publish.
                yield from qp.cas(target, region, off, RESERVED, READY)
                self.inserts.add(1)
                return True
            if old == READY:
                stored = region_obj.get_object(off + 1)
                if stored is not None and stored[0] == key:
                    # Same key: overwrite in place (write + re-publish).
                    yield from qp.rdma_write(
                        target, region, off + 1, (key, value), size
                    )
                    self.inserts.add(1)
                    return True
            # Bucket taken by someone else: retry on the next bucket.
            self.cas_retries.add(1)
        raise RuntimeError(
            f"BCL hashmap {self.name!r}: probe chain exhausted "
            f"({self.MAX_PROBES} buckets) — static partition too small"
        )

    def atomic_update(self, rank: int, key: Hashable, fn, initial):
        """Client-side atomic read-modify-write of one key.

        The only correct way to do this from the client side is to lock the
        bucket remotely: CAS the state READY -> RESERVED, RDMA_READ the
        entry, apply ``fn`` locally, RDMA_WRITE it back, CAS RESERVED ->
        READY — *five* remote operations per update, plus retries whenever
        another client holds the bucket.  (HCL does the same thing with a
        single ``upsert`` invocation.)

        Returns the new value.
        """
        if not self.ready.triggered:
            yield self.ready
        target, qp, region, region_obj, bucket = self._route(rank, key)
        probe = 0
        while probe < self.MAX_PROBES:
            slot = (bucket + probe) % self.capacity
            off = self._slot_offset(slot)
            old = yield from qp.cas(target, region, off, EMPTY, RESERVED)
            if old == EMPTY:
                # Fresh entry.
                value = fn(initial)
                size = max(estimate_size(key) + estimate_size(value), 1)
                yield from qp.rdma_write(target, region, off + 1, (key, value), size)
                yield from qp.cas(target, region, off, RESERVED, READY)
                self.inserts.add(1)
                return value
            if old == READY:
                stored = region_obj.get_object(off + 1)
                if stored is None or stored[0] != key:
                    self.cas_retries.add(1)
                    probe += 1
                    continue
                # Lock the bucket for the read-modify-write.
                locked = yield from qp.cas(target, region, off, READY, RESERVED)
                if locked != READY:
                    self.cas_retries.add(1)
                    continue  # someone else holds it; retry same bucket
                entry = yield from qp.rdma_read(
                    target, region, off + 1,
                    max(estimate_size(region_obj.get_object(off + 1)), 16),
                )
                value = fn(entry[1])
                size = max(estimate_size(key) + estimate_size(value), 1)
                yield from qp.rdma_write(target, region, off + 1, (key, value), size)
                yield from qp.cas(target, region, off, RESERVED, READY)
                self.inserts.add(1)
                return value
            # RESERVED by another client: spin on the same bucket.
            self.cas_retries.add(1)
        raise RuntimeError(
            f"BCL hashmap {self.name!r}: probe chain exhausted in atomic_update"
        )

    def find(self, rank: int, key: Hashable):
        """Client-side find: RDMA_READ state+entry, probing on mismatch.

        Returns ``(value, found)``.
        """
        if not self.ready.triggered:
            yield self.ready
        target, qp, region, region_obj, bucket = self._route(rank, key)
        size = max(estimate_size(key), 16)
        for probe in range(self.MAX_PROBES):
            slot = (bucket + probe) % self.capacity
            off = self._slot_offset(slot)
            state = region_obj.read_word(off)
            if state == EMPTY:
                # One small read to discover the empty state.
                yield from qp.rdma_read(target, region, off, _BUCKET_HEADER)
                self.finds.add(1)
                return None, False
            # Read the full entry (state + payload travel together).
            stored = yield from qp.rdma_read(
                target, region, off + 1,
                size + estimate_size(region_obj.get_object(off + 1)),
            )
            if stored is not None and stored[0] == key:
                self.finds.add(1)
                return stored[1], True
        self.finds.add(1)
        return None, False

    # -- introspection -----------------------------------------------------------------
    def stored_items(self):
        """All (key, value) pairs physically present (test helper)."""
        for index in self._regions:
            node = self.cluster.node(self._partition_nodes[index])
            region = node.nic.region(self._regions[index])
            for off, obj in region.objects.items():
                if obj is not None and region.read_word(off - 1) == READY:
                    yield obj
