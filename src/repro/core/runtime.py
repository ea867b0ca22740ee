"""The HCL runtime: cluster + RPC servers/clients + container factory.

"During initialization, one or more processes in the node can create a
shared memory segment that other processes (both local and remote) can read
and write to by invoking functions" (Section III).  The runtime plays that
role: it owns one RoR server per node and a shared RPC client per node, and
constructs containers whose partitions it places round-robin (or explicitly)
across nodes, each in a named memory segment on its node.

Container construction needs no coordination: names are the global handle,
and every rank process uses the same container object against its own
node-local view — exactly the "call the constructor and use them" model of
the paper (Fig 3).
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Generator, List, Optional, Sequence, Union

from repro.config import ClusterSpec
from repro.core.container import Partition
from repro.core.policy import ContainerPolicy
from repro.core.hash_container import HCLUnorderedMap, HCLUnorderedSet
from repro.core.ordered_container import HCLMap, HCLSet
from repro.core.priority_queue import HCLPriorityQueue
from repro.core.queue import HCLQueue
from repro.fabric.topology import Cluster
from repro.memory.segment import MemorySegment
from repro.rpc.client import RpcClient
from repro.rpc.server import RpcServer
from repro.simnet.resources import Barrier
from repro.structures.cuckoo import CuckooHash
from repro.structures.lfqueue import OptimisticQueue
from repro.structures.mdlist import MDListPriorityQueue
from repro.structures.rbtree import RedBlackTree

__all__ = ["HCL"]

_DEFAULT_SEGMENT = 64 * 1024  # HCL starts partitions small and grows them


class HCL:
    """Top-level entry point of the reproduction library."""

    def __init__(
        self,
        spec_or_cluster: Union[ClusterSpec, Cluster],
        rpc_batch_size: int = 1,
        rpc_queue_bound: Optional[int] = None,
        persist_dir: Optional[str] = None,
        window=None,
    ):
        if isinstance(spec_or_cluster, Cluster):
            self.cluster = spec_or_cluster
        else:
            self.cluster = Cluster(spec_or_cluster)
        self.sim = self.cluster.sim
        # rpc_queue_bound arms admission control: each server sheds requests
        # arriving at a full receive queue instead of queueing them forever
        # (callers see a retriable ServerOverloaded).  None = classic
        # unbounded queueing.
        self._servers: Dict[int, RpcServer] = {
            node.node_id: RpcServer(node, batch_size=rpc_batch_size,
                                    queue_bound=rpc_queue_bound)
            for node in self.cluster.nodes
        }
        self._clients: Dict[int, RpcClient] = {}
        self.containers: Dict[str, object] = {}
        self.persist_dir = persist_dir
        # a truthy window arms per-(node, partition) AIMD congestion windows
        # on every client; falsy (None/False) = classic unbounded issue.
        self._window = bool(window)
        self._barrier = Barrier(self.sim, self.cluster.total_procs)

    # -- plumbing accessors ----------------------------------------------------
    def server(self, node_id: int) -> RpcServer:
        return self._servers[node_id]

    def client(self, node_id: int) -> RpcClient:
        client = self._clients.get(node_id)
        if client is None:
            client = RpcClient(self.cluster, node_id, self._servers,
                               window=self._window)
            self._clients[node_id] = client
        return client

    @property
    def num_nodes(self) -> int:
        return self.cluster.num_nodes

    # -- partition construction ---------------------------------------------------
    def _persist_path(self, name: str, index: int) -> Optional[str]:
        if self.persist_dir is None:
            return None
        os.makedirs(self.persist_dir, exist_ok=True)
        return os.path.join(self.persist_dir, f"{name}.part{index}.hcl")

    def _placement(self, partitions: Optional[int],
                   nodes: Optional[Sequence[int]]) -> List[int]:
        """Hosting node per partition: explicit, else round-robin."""
        count = partitions if partitions is not None else self.num_nodes
        if count < 1:
            raise ValueError("need at least one partition")
        if nodes is None:
            return [i % self.num_nodes for i in range(count)]
        if len(nodes) != count:
            raise ValueError("nodes list must have one entry per partition")
        return list(nodes)

    # -- container construction ------------------------------------------------------
    def _build(self, cls, name: str, structure_factory: Callable[[], object],
               placement: Sequence[int], recover: bool, policy: dict,
               **family):
        """The one place a container is constructed.

        ``policy`` holds the factory's :class:`ContainerPolicy` keywords
        (validated here, before anything is allocated); ``family`` the
        constructor arguments only that container family takes.
        """
        if name in self.containers:
            raise KeyError(f"container {name!r} already exists")
        policy = ContainerPolicy(**policy).validate(
            single_partition=cls.SINGLE_PARTITION, recover=recover
        )
        parts = []
        for index, node_id in enumerate(placement):
            seg = MemorySegment(
                self.cluster.node(node_id),
                _DEFAULT_SEGMENT,
                name=f"{name}.{index}",
                backing_path=(self._persist_path(name, index)
                              if policy.persistence else None),
                relaxed_persistence=policy.relaxed_persistence,
            )
            parts.append(Partition(index, node_id, structure_factory(), seg))
        container = cls(self, name, parts, policy, **family)
        self.containers[name] = container
        if recover:
            container.recover_from_logs()
        return container

    # Every factory takes the :class:`ContainerPolicy` fields as ``**policy``
    # keywords, and ``recover=True`` to replay a persisted log at construction.
    def unordered_map(self, name: str, partitions: Optional[int] = None,
                      nodes: Optional[Sequence[int]] = None, hash_fn=None,
                      initial_buckets: int = CuckooHash.DEFAULT_BUCKETS,
                      recover: bool = False, **policy) -> HCLUnorderedMap:
        """An ``HCL::unordered_map`` distributed over ``partitions`` nodes."""
        return self._build(
            HCLUnorderedMap, name,
            lambda: CuckooHash(initial_buckets, hash_fn=hash_fn),
            self._placement(partitions, nodes), recover, policy,
            hash_fn=hash_fn,
        )

    def unordered_set(self, name: str, partitions: Optional[int] = None,
                      nodes: Optional[Sequence[int]] = None, hash_fn=None,
                      initial_buckets: int = CuckooHash.DEFAULT_BUCKETS,
                      recover: bool = False, **policy) -> HCLUnorderedSet:
        return self._build(
            HCLUnorderedSet, name,
            lambda: CuckooHash(initial_buckets, hash_fn=hash_fn),
            self._placement(partitions, nodes), recover, policy,
            hash_fn=hash_fn,
        )

    def map(self, name: str, partitions: Optional[int] = None,
            nodes: Optional[Sequence[int]] = None, partitioner=None,
            less=None, recover: bool = False, **policy) -> HCLMap:
        """An ``HCL::map`` (ordered) distributed by key-space partitioning."""
        return self._build(
            HCLMap, name, lambda: RedBlackTree(less=less),
            self._placement(partitions, nodes), recover, policy,
            partitioner=partitioner, less=less,
        )

    def set(self, name: str, partitions: Optional[int] = None,
            nodes: Optional[Sequence[int]] = None, partitioner=None,
            less=None, recover: bool = False, **policy) -> HCLSet:
        return self._build(
            HCLSet, name, lambda: RedBlackTree(less=less),
            self._placement(partitions, nodes), recover, policy,
            partitioner=partitioner, less=less,
        )

    def queue(self, name: str, home_node: int = 0, recover: bool = False,
              **policy) -> HCLQueue:
        """An ``HCL::queue`` hosted on ``home_node`` (single partition)."""
        return self._build(HCLQueue, name, OptimisticQueue, [home_node],
                           recover, policy)

    def priority_queue(self, name: str, home_node: int = 0, dims: int = 8,
                       base: int = 16, recover: bool = False,
                       **policy) -> HCLPriorityQueue:
        return self._build(
            HCLPriorityQueue, name,
            lambda: MDListPriorityQueue(dims=dims, base=base), [home_node],
            recover, policy,
        )

    # -- aggregation sync points ---------------------------------------------------------
    def flush_containers(self, rank: int):
        """Generator: flush every container's aggregation buffers for
        ``rank``'s node.  Zero-cost no-op when nothing is aggregated —
        barriers call this so buffered ops always land before ranks
        synchronize."""
        for container in self.containers.values():
            yield from container.flush(rank)

    def barrier(self, rank: int):
        """Generator: flush ``rank``'s buffered ops, then wait for every
        rank, so post-barrier reads observe every pre-barrier write."""
        yield from self.flush_containers(rank)
        yield self._barrier.wait()

    # -- running ranks -----------------------------------------------------------------
    def run_ranks(
        self,
        body: Callable[[int], Generator],
        ranks: Optional[range] = None,
        until: Optional[float] = None,
    ) -> List:
        """:meth:`repro.fabric.Cluster.run_ranks` on this runtime's cluster."""
        return self.cluster.run_ranks(body, ranks=ranks, until=until)

    @property
    def now(self) -> float:
        return self.sim.now

    def close(self) -> None:
        for container in self.containers.values():
            container.close()
        self.containers.clear()
        for server in self._servers.values():
            server.close()
