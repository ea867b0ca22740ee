"""A compute node: a memory budget, a NIC, and fabric links.

The memory budget is a registry gauge checked against the node's capacity;
region registration and BCL's exclusive per-client buffers draw from it,
which is how the simulation reproduces the paper's observation that BCL
runs out of memory above 1 MB operation sizes (Section IV-B2) and the
Fig 4(b) memory ramp.
"""

from __future__ import annotations

from repro.config import ClusterSpec
from repro.obs.registry import registry_of
from repro.simnet.core import Simulator
from repro.simnet.resources import Resource

from repro.fabric.link import Link
from repro.fabric.nic import Nic, MemoryRegion

__all__ = ["Node", "OutOfMemoryError"]


class OutOfMemoryError(MemoryError):
    """Raised when a node's memory budget is exhausted."""


class NodeDownError(ConnectionError):
    """An operation targeted a failed node."""


class Node:
    """One simulated host."""

    def __init__(self, sim: Simulator, node_id: int, spec: ClusterSpec):
        self.sim = sim
        self.node_id = node_id
        self.spec = spec
        cost = spec.cost
        self.cost = cost
        self.nic = Nic(sim, node_id, cost)
        self.egress = Link(sim, cost, name=f"n{node_id}/egress")
        self.ingress = Link(sim, cost, name=f"n{node_id}/ingress")
        self.memory_capacity = spec.memory_per_node
        self.memory_used = registry_of(sim).gauge(f"n{node_id}/mem")
        # Local (intra-node) shared-memory bandwidth: a single station so
        # that all processes together share the node's ~65 GB/s (each op
        # holds the bus for bytes/bandwidth, i.e. transfers at full rate).
        self.memory_bus = Resource(sim, capacity=1, name=f"n{node_id}/membus")
        # Verbs to a co-located region loop back through the NIC at *link*
        # speed — this is why BCL's intra-node path is so much slower than
        # HCL's shared-memory bypass (Fig 5a).
        self.nic_loopback = Resource(sim, capacity=1, name=f"n{node_id}/loopback")
        #: False while a :class:`~repro.fabric.faults.FaultInjector` holds
        #: the node crashed; the injector drops its traffic, so verbs to or
        #: from it raise :class:`~repro.fabric.faults.FabricDropped`.
        self.alive = True
        #: zero-arg hooks fired when the node comes back up (containers
        #: register write-replay here; see ``DistributedContainer``)
        self.on_recover: list = []

    def recover(self) -> None:
        """Back up after a crash: fire the ``on_recover`` hooks."""
        self.alive = True
        for hook in list(self.on_recover):
            hook()

    # -- memory accounting ---------------------------------------------------
    def allocate(self, nbytes: int, what: str = "") -> None:
        """Charge ``nbytes`` against the node budget; OOM if exceeded."""
        if nbytes < 0:
            raise ValueError("allocation must be non-negative")
        if self.memory_used.value + nbytes > self.memory_capacity:
            raise OutOfMemoryError(
                f"node {self.node_id}: cannot allocate {nbytes} bytes for "
                f"{what or 'anonymous'} ({self.memory_used.value:.0f}/"
                f"{self.memory_capacity} in use)"
            )
        self.memory_used.add(nbytes)

    def free(self, nbytes: int) -> None:
        if nbytes < 0:
            raise ValueError("free must be non-negative")
        self.memory_used.add(-nbytes)

    def register_region(self, name: str, size: int) -> MemoryRegion:
        """Register an RDMA-visible region, charging the memory budget."""
        self.allocate(size, what=f"region {name}")
        return self.nic.register_region(name, size)

    def resize_region(self, name: str, new_size: int) -> MemoryRegion:
        """Grow (realloc) a registered region in place."""
        region = self.nic.region(name)
        delta = new_size - region.size
        if delta > 0:
            self.allocate(delta, what=f"region {name} realloc")
        elif delta < 0:
            self.free(-delta)
        region.size = new_size
        return region

    def deregister_region(self, name: str) -> None:
        region = self.nic.regions.get(name)
        if region is not None:
            self.free(region.size)
            self.nic.deregister_region(name)

    # -- local memory timing --------------------------------------------------
    def local_copy(self, nbytes: int):
        """Generator: time a local memory copy through the shared bus."""
        t = self.cost.local_write(nbytes)
        yield from self.memory_bus.use(t)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Node {self.node_id} mem={self.memory_used.value:.0f}B>"
