"""BCL's circular queue, driven from the client side.

Push: remote fetch-and-add claims a tail slot, an RDMA_WRITE deposits the
entry, and a CAS publishes the slot.  Pop: fetch-and-add claims a head
slot, the client polls the slot's state with reads until published, then
reads the entry and CASes the slot free.  Every operation is "multiple
client-side CAS operations on the remote memory (per each push and pop),
which incurs additional network cost" (Section IV-C) — the cause of BCL's
35K/43K op/s ceiling in Fig 6(c).

The ring is statically sized (``capacity`` entries of fixed ``entry_size``),
allocated at init like every BCL structure.
"""

from __future__ import annotations

from typing import Any

from repro.bcl.runtime import BCL
from repro.serialization.databox import estimate_size
from repro.simnet.core import Event
from repro.obs.registry import registry_of

__all__ = ["BCLCircularQueue"]

# Slot states
FREE, CLAIMED, PUBLISHED = 0, 1, 2

_HEAD_OFF = 0  # word offset of head counter
_TAIL_OFF = 8  # word offset of tail counter
_RING_BASE = 64  # slots start here

_SLOT_HEADER = 16


class BCLCircularQueue:
    """Client-side MPMC ring buffer."""

    def __init__(self, bcl: BCL, name: str, capacity: int, entry_size: int,
                 home_node: int = 0, inflight_slots: int = 512):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.bcl = bcl
        self.cluster = bcl.cluster
        self.sim = bcl.sim
        self.name = name
        self.capacity = capacity
        self.entry_size = entry_size
        self.home_node = home_node
        self.inflight_slots = inflight_slots
        self.region_name = f"bcl.{name}.ring"
        self.ready = Event(self.sim)
        self._client_buffers: set = set()
        metrics = registry_of(self.sim)
        self.pushes = metrics.counter(f"{name}/pushes")
        self.pops = metrics.counter(f"{name}/pops")
        self.poll_retries = metrics.counter(f"{name}/poll_retries")
        self.sim.process(self._static_init(), name=f"bcl-init-{name}")

    def _static_init(self):
        node = self.cluster.node(self.home_node)
        total = _RING_BASE + self.capacity * (self.entry_size + _SLOT_HEADER)
        node.nic.register_region(self.region_name, total)
        chunk = 64 << 20
        done = 0
        while done < total:
            step = min(chunk, total - done)
            self.bcl.allocate(node, step, what=f"{self.region_name} static")
            done += step
            yield step / self.bcl.cost.bcl_init_bandwidth
        self.ready.succeed(None)

    def _slot_offset(self, index: int) -> int:
        return _RING_BASE + (index % self.capacity) * (
            self.entry_size + _SLOT_HEADER
        )

    def _ensure_client_buffer(self, rank: int):
        if rank in self._client_buffers:
            return
        self._client_buffers.add(rank)
        node = self.cluster.node(self.home_node)
        self.bcl.allocate(
            node, self.inflight_slots * self.entry_size,
            what=f"client {rank} queue buffers",
        )

    # -- operations ------------------------------------------------------------
    def push(self, rank: int, value: Any):
        """Claim tail slot (FAA) -> write entry -> CAS publish."""
        if not self.ready.triggered:
            yield self.ready
        self._ensure_client_buffer(rank)
        src = self.cluster.node_of_rank(rank)
        qp = self.cluster.qp(src)
        target = self.home_node
        region_obj = self.cluster.node(target).nic.region(self.region_name)
        # 1. remote fetch-and-add on the tail counter.
        ticket = yield from qp.fetch_add(target, self.region_name, _TAIL_OFF, 1)
        head = region_obj.read_word(_HEAD_OFF)
        if ticket - head >= self.capacity:
            raise RuntimeError(
                f"BCL queue {self.name!r} overflow (static ring of "
                f"{self.capacity} entries)"
            )
        off = self._slot_offset(ticket)
        size = max(estimate_size(value), 1)
        # 2. write the entry into the claimed slot.
        yield from qp.rdma_write(target, self.region_name, off + 1, value, size)
        # 3. CAS publish the slot.
        yield from qp.cas(target, self.region_name, off, FREE, PUBLISHED)
        self.pushes.add(1)
        return True

    def pop(self, rank: int):
        """Claim head slot (FAA) -> poll until published -> read -> CAS free.

        Returns ``(value, ok)``; ok is False when the queue is empty.
        """
        if not self.ready.triggered:
            yield self.ready
        self._ensure_client_buffer(rank)
        src = self.cluster.node_of_rank(rank)
        qp = self.cluster.qp(src)
        target = self.home_node
        region_obj = self.cluster.node(target).nic.region(self.region_name)
        tail = region_obj.read_word(_TAIL_OFF)
        head = region_obj.read_word(_HEAD_OFF)
        if head >= tail:
            # Empty check costs one small read of the counters.
            yield from qp.rdma_read(target, self.region_name, _HEAD_OFF, 16)
            return None, False
        # 1. claim the head slot.
        ticket = yield from qp.fetch_add(target, self.region_name, _HEAD_OFF, 1)
        if ticket >= region_obj.read_word(_TAIL_OFF):
            # Lost the race: hand the ticket back (another CAS round trip).
            yield from qp.fetch_add(target, self.region_name, _HEAD_OFF, -1)
            return None, False
        off = self._slot_offset(ticket)
        # 2. poll the slot state until the producer published it.
        for _ in range(64):
            state = yield from qp.rdma_read(
                target, self.region_name, off, _SLOT_HEADER
            )
            if region_obj.read_word(off) == PUBLISHED:
                break
            self.poll_retries.add(1)
        # 3. read the entry.
        value = yield from qp.rdma_read(
            target, self.region_name, off + 1,
            max(estimate_size(region_obj.get_object(off + 1)), 1),
        )
        # 4. CAS the slot back to free for ring reuse.
        yield from qp.cas(target, self.region_name, off, PUBLISHED, FREE)
        region_obj.put_object(off + 1, None)
        self.pops.add(1)
        return value, True
