"""BCL runtime: global memory windows, barriers, and the 60% memory rule.

BCL processes "expose a memory segment into the global shared memory window
and agree on its management via global pointers" — so everything is
allocated up front, at init, with clients agreeing on a static layout.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, List, Optional, Union

from repro.config import ClusterSpec
from repro.fabric.node import Node, OutOfMemoryError
from repro.fabric.topology import Cluster
from repro.simnet.resources import Barrier

__all__ = ["BCL", "BCLOutOfMemory"]


class BCLOutOfMemory(OutOfMemoryError):
    """BCL exceeded its share of node memory (the paper's 60% rule)."""


class BCL:
    """Top-level BCL environment over a (possibly shared) simulated cluster."""

    #: "the overall capacity allocated to BCL should not exceed 60% of the
    #: total node memory to ensure successful completion" (Section IV-B2).
    MEMORY_FRACTION = 0.6

    def __init__(self, spec_or_cluster: Union[ClusterSpec, Cluster]):
        if isinstance(spec_or_cluster, Cluster):
            self.cluster = spec_or_cluster
        else:
            self.cluster = Cluster(spec_or_cluster)
        if not self.cluster.provider.supports_rdma_atomics:
            # "At its core, BCL requires the support of remote memory
            # operations and atomics (CAS) from the network hardware ...
            # Without CAS support, BCL structures cannot be implemented."
            raise RuntimeError(
                f"BCL requires RDMA atomics; provider "
                f"{self.cluster.provider.name!r} does not offer them "
                "(HCL runs on any OFI provider — Section II-B vs III)"
            )
        self.sim = self.cluster.sim
        self.cost = self.cluster.spec.cost
        self._bcl_bytes: Dict[int, int] = {n.node_id: 0 for n in self.cluster.nodes}
        self._barrier: Optional[Barrier] = None
        self.containers: Dict[str, object] = {}

    # -- memory under the 60% rule -------------------------------------------
    def allocate(self, node: Node, nbytes: int, what: str = "") -> None:
        budget = int(self.MEMORY_FRACTION * node.memory_capacity)
        if self._bcl_bytes[node.node_id] + nbytes > budget:
            raise BCLOutOfMemory(
                f"BCL allocation of {nbytes} bytes for {what or 'buffer'} "
                f"exceeds 60% budget on node {node.node_id} "
                f"({self._bcl_bytes[node.node_id]}/{budget} used)"
            )
        node.allocate(nbytes, what=what)
        self._bcl_bytes[node.node_id] += nbytes

    # -- collectives ------------------------------------------------------------
    def barrier(self) -> Barrier:
        """The all-ranks barrier BCL's bulk-synchronous phases need."""
        if self._barrier is None or self._barrier.parties != self.cluster.total_procs:
            self._barrier = Barrier(self.sim, self.cluster.total_procs)
        return self._barrier

    # -- running ranks --------------------------------------------------------------
    def run_ranks(
        self,
        body: Callable[[int], Generator],
        ranks: Optional[range] = None,
        until: Optional[float] = None,
    ) -> List:
        """:meth:`repro.fabric.Cluster.run_ranks` on this runtime's cluster."""
        return self.cluster.run_ranks(body, ranks=ranks, until=until)

    # -- container factories -------------------------------------------------------
    def hashmap(self, name: str, capacity_per_partition: int,
                entry_size: int, partitions: Optional[int] = None,
                inflight_slots: int = 512,
                max_probes: Optional[int] = None):
        from repro.bcl.hashmap import BCLHashMap

        if name in self.containers:
            raise KeyError(f"container {name!r} already exists")
        container = BCLHashMap(
            self, name,
            partitions=partitions if partitions is not None else self.cluster.num_nodes,
            capacity_per_partition=capacity_per_partition,
            entry_size=entry_size,
            inflight_slots=inflight_slots,
            max_probes=max_probes,
        )
        self.containers[name] = container
        return container

    def queue(self, name: str, capacity: int, entry_size: int,
              home_node: int = 0, inflight_slots: int = 512):
        from repro.bcl.queue import BCLCircularQueue

        if name in self.containers:
            raise KeyError(f"container {name!r} already exists")
        container = BCLCircularQueue(
            self, name, capacity=capacity, entry_size=entry_size,
            home_node=home_node, inflight_slots=inflight_slots,
        )
        self.containers[name] = container
        return container
