"""The HCL runtime: cluster + GAS + RPC servers/clients + container factory.

"During initialization, one or more processes in the node can create a
shared memory segment that other processes (both local and remote) can read
and write to by invoking functions" (Section III).  The runtime plays that
role: it owns one RoR server per node, a shared RPC client per node, the
global address space registry, and constructs containers whose partitions it
places round-robin (or explicitly) across nodes.

Container construction needs no coordination: names are the global handle,
and every rank process uses the same container object against its own
node-local view — exactly the "call the constructor and use them" model of
the paper (Fig 3).
"""

from __future__ import annotations

import os
import tempfile
from typing import Callable, Dict, Generator, List, Optional, Sequence, Union

from repro.config import ClusterSpec
from repro.core.container import Partition
from repro.core.hash_container import (
    HCLUnorderedMap,
    HCLUnorderedSet,
    stable_hash,
)
from repro.core.ordered_container import HCLMap, HCLSet
from repro.core.priority_queue import HCLPriorityQueue
from repro.core.queue import HCLQueue
from repro.fabric.topology import Cluster
from repro.memory.gas import GlobalAddressSpace
from repro.memory.segment import MemorySegment
from repro.rpc.client import RpcClient
from repro.rpc.server import RpcServer
from repro.rpc.window import WindowConfig
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
        provider: str = "roce",
        rpc_batch_size: int = 1,
        rpc_queue_bound: Optional[int] = None,
        persist_dir: Optional[str] = None,
        fault_plan=None,
        window=None,
    ):
        if isinstance(spec_or_cluster, Cluster):
            self.cluster = spec_or_cluster
        else:
            self.cluster = Cluster(spec_or_cluster, provider=provider)
        if fault_plan is not None:
            self.cluster.install_faults(fault_plan)
        self.sim = self.cluster.sim
        self.gas = GlobalAddressSpace()
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
        self._tmpdir: Optional[tempfile.TemporaryDirectory] = None
        # window arms per-(node, partition) AIMD congestion windows on every
        # client: True for the defaults, or a WindowConfig.  None = classic
        # unbounded issue.
        if window is True:
            window = WindowConfig()
        elif not window:  # False/None both mean "unbounded issue"
            window = None
        self.window_config: Optional[WindowConfig] = window

    # -- plumbing accessors ----------------------------------------------------
    def server(self, node_id: int) -> RpcServer:
        return self._servers[node_id]

    def client(self, node_id: int) -> RpcClient:
        client = self._clients.get(node_id)
        if client is None:
            client = RpcClient(self.cluster, node_id, self._servers,
                               window=self.window_config)
            self._clients[node_id] = client
        return client

    @property
    def spec(self) -> ClusterSpec:
        return self.cluster.spec

    @property
    def num_nodes(self) -> int:
        return self.cluster.num_nodes

    # -- partition construction ---------------------------------------------------
    def _persist_path(self, name: str, index: int) -> Optional[str]:
        if self.persist_dir is None:
            return None
        os.makedirs(self.persist_dir, exist_ok=True)
        return os.path.join(self.persist_dir, f"{name}.part{index}.hcl")

    def _make_partitions(
        self,
        name: str,
        structure_factory: Callable[[], object],
        count: int,
        nodes: Optional[Sequence[int]] = None,
        segment_bytes: int = _DEFAULT_SEGMENT,
        persistence: bool = False,
        relaxed_persistence: bool = False,
    ) -> List[Partition]:
        if name in self.containers:
            raise KeyError(f"container {name!r} already exists")
        if count < 1:
            raise ValueError("need at least one partition")
        placements = (
            list(nodes)
            if nodes is not None
            else [i % self.num_nodes for i in range(count)]
        )
        if len(placements) != count:
            raise ValueError("nodes list must have one entry per partition")
        parts = []
        for index, node_id in enumerate(placements):
            node = self.cluster.node(node_id)
            seg = MemorySegment(
                node,
                segment_bytes,
                name=f"{name}.{index}",
                backing_path=self._persist_path(name, index) if persistence else None,
                relaxed_persistence=relaxed_persistence,
            )
            self.gas.register(seg)
            parts.append(Partition(index, node_id, structure_factory(), seg))
        return parts

    # -- container factories --------------------------------------------------------
    def unordered_map(
        self,
        name: str,
        partitions: Optional[int] = None,
        nodes: Optional[Sequence[int]] = None,
        hash_fn=None,
        initial_buckets: int = CuckooHash.DEFAULT_BUCKETS,
        codec: str = "msgpack",
        replication: int = 0,
        persistence: bool = False,
        relaxed_persistence: bool = False,
        concurrency: str = "lockfree",
        write_failover: bool = False,
        aggregation: int = 0,
        aggregation_bytes: int = 32 * 1024,
        read_cache: bool = False,
        batch_charge: bool = False,
        sim_only: bool = False,
        recover: bool = False,
    ) -> HCLUnorderedMap:
        """An ``HCL::unordered_map`` distributed over ``partitions`` nodes."""
        # Resolve the hash default here so BOTH hashing levels (partition
        # routing and the cuckoo tables) are PYTHONHASHSEED-independent.
        hash_fn = hash_fn or stable_hash
        count = partitions if partitions is not None else self.num_nodes
        parts = self._make_partitions(
            name, lambda: CuckooHash(initial_buckets, hash_fn=hash_fn), count,
            nodes=nodes, persistence=persistence,
            relaxed_persistence=relaxed_persistence,
        )
        container = HCLUnorderedMap(
            self, name, parts, hash_fn=hash_fn, codec=codec,
            replication=replication, persistence=persistence,
            concurrency=concurrency, write_failover=write_failover,
            aggregation=aggregation, aggregation_bytes=aggregation_bytes,
            read_cache=read_cache, batch_charge=batch_charge,
            sim_only=sim_only,
        )
        self.containers[name] = container
        if recover:
            if not persistence:
                raise ValueError("recover=True requires persistence=True")
            container.recover_from_logs()
        return container

    def unordered_set(
        self,
        name: str,
        partitions: Optional[int] = None,
        nodes: Optional[Sequence[int]] = None,
        hash_fn=None,
        initial_buckets: int = CuckooHash.DEFAULT_BUCKETS,
        codec: str = "msgpack",
        replication: int = 0,
        persistence: bool = False,
        relaxed_persistence: bool = False,
        concurrency: str = "lockfree",
        write_failover: bool = False,
        aggregation: int = 0,
        aggregation_bytes: int = 32 * 1024,
        read_cache: bool = False,
        batch_charge: bool = False,
        sim_only: bool = False,
        recover: bool = False,
    ) -> HCLUnorderedSet:
        hash_fn = hash_fn or stable_hash
        count = partitions if partitions is not None else self.num_nodes
        parts = self._make_partitions(
            name, lambda: CuckooHash(initial_buckets, hash_fn=hash_fn), count,
            nodes=nodes, persistence=persistence,
            relaxed_persistence=relaxed_persistence,
        )
        container = HCLUnorderedSet(
            self, name, parts, hash_fn=hash_fn, codec=codec,
            replication=replication, persistence=persistence,
            concurrency=concurrency, write_failover=write_failover,
            aggregation=aggregation, aggregation_bytes=aggregation_bytes,
            read_cache=read_cache, batch_charge=batch_charge,
            sim_only=sim_only,
        )
        self.containers[name] = container
        if recover:
            if not persistence:
                raise ValueError("recover=True requires persistence=True")
            container.recover_from_logs()
        return container

    def map(
        self,
        name: str,
        partitions: Optional[int] = None,
        nodes: Optional[Sequence[int]] = None,
        partitioner=None,
        less=None,
        codec: str = "msgpack",
        replication: int = 0,
        persistence: bool = False,
        relaxed_persistence: bool = False,
        concurrency: str = "lockfree",
        write_failover: bool = False,
        aggregation: int = 0,
        aggregation_bytes: int = 32 * 1024,
        read_cache: bool = False,
        batch_charge: bool = False,
        sim_only: bool = False,
        recover: bool = False,
    ) -> HCLMap:
        """An ``HCL::map`` (ordered) distributed by key-space partitioning."""
        count = partitions if partitions is not None else self.num_nodes
        parts = self._make_partitions(
            name, lambda: RedBlackTree(less=less), count,
            nodes=nodes, persistence=persistence,
            relaxed_persistence=relaxed_persistence,
        )
        container = HCLMap(
            self, name, parts, partitioner=partitioner, less=less, codec=codec,
            replication=replication, persistence=persistence,
            concurrency=concurrency, write_failover=write_failover,
            aggregation=aggregation, aggregation_bytes=aggregation_bytes,
            read_cache=read_cache, batch_charge=batch_charge,
            sim_only=sim_only,
        )
        self.containers[name] = container
        if recover:
            if not persistence:
                raise ValueError("recover=True requires persistence=True")
            container.recover_from_logs()
        return container

    def set(
        self,
        name: str,
        partitions: Optional[int] = None,
        nodes: Optional[Sequence[int]] = None,
        partitioner=None,
        less=None,
        codec: str = "msgpack",
        replication: int = 0,
        persistence: bool = False,
        relaxed_persistence: bool = False,
        concurrency: str = "lockfree",
        write_failover: bool = False,
        aggregation: int = 0,
        aggregation_bytes: int = 32 * 1024,
        read_cache: bool = False,
        batch_charge: bool = False,
        sim_only: bool = False,
        recover: bool = False,
    ) -> HCLSet:
        count = partitions if partitions is not None else self.num_nodes
        parts = self._make_partitions(
            name, lambda: RedBlackTree(less=less), count,
            nodes=nodes, persistence=persistence,
            relaxed_persistence=relaxed_persistence,
        )
        container = HCLSet(
            self, name, parts, partitioner=partitioner, less=less, codec=codec,
            replication=replication, persistence=persistence,
            concurrency=concurrency, write_failover=write_failover,
            aggregation=aggregation, aggregation_bytes=aggregation_bytes,
            read_cache=read_cache, batch_charge=batch_charge,
            sim_only=sim_only,
        )
        self.containers[name] = container
        if recover:
            if not persistence:
                raise ValueError("recover=True requires persistence=True")
            container.recover_from_logs()
        return container

    def queue(
        self,
        name: str,
        home_node: int = 0,
        codec: str = "msgpack",
        persistence: bool = False,
        relaxed_persistence: bool = False,
        concurrency: str = "lockfree",
        aggregation: int = 0,
        aggregation_bytes: int = 32 * 1024,
        read_cache: bool = False,
        batch_charge: bool = False,
        sim_only: bool = False,
        recover: bool = False,
    ) -> HCLQueue:
        """An ``HCL::queue`` hosted on ``home_node`` (single partition)."""
        parts = self._make_partitions(
            name, OptimisticQueue, 1, nodes=[home_node],
            persistence=persistence, relaxed_persistence=relaxed_persistence,
        )
        container = HCLQueue(
            self, name, parts, codec=codec, persistence=persistence,
            concurrency=concurrency,
            aggregation=aggregation, aggregation_bytes=aggregation_bytes,
            read_cache=read_cache, batch_charge=batch_charge,
            sim_only=sim_only,
        )
        self.containers[name] = container
        if recover:
            if not persistence:
                raise ValueError("recover=True requires persistence=True")
            container.recover_from_logs()
        return container

    def priority_queue(
        self,
        name: str,
        home_node: int = 0,
        dims: int = 8,
        base: int = 16,
        codec: str = "msgpack",
        persistence: bool = False,
        relaxed_persistence: bool = False,
        concurrency: str = "lockfree",
        aggregation: int = 0,
        aggregation_bytes: int = 32 * 1024,
        read_cache: bool = False,
        batch_charge: bool = False,
        sim_only: bool = False,
        recover: bool = False,
    ) -> HCLPriorityQueue:
        parts = self._make_partitions(
            name, lambda: MDListPriorityQueue(dims=dims, base=base), 1,
            nodes=[home_node],
            persistence=persistence, relaxed_persistence=relaxed_persistence,
        )
        container = HCLPriorityQueue(
            self, name, parts, codec=codec, persistence=persistence,
            concurrency=concurrency,
            aggregation=aggregation, aggregation_bytes=aggregation_bytes,
            read_cache=read_cache, batch_charge=batch_charge,
            sim_only=sim_only,
        )
        self.containers[name] = container
        if recover:
            if not persistence:
                raise ValueError("recover=True requires persistence=True")
            container.recover_from_logs()
        return container

    # -- aggregation sync points ---------------------------------------------------------
    def flush_containers(self, rank: int):
        """Generator: flush every container's aggregation buffers for
        ``rank``'s node.  Zero-cost no-op when nothing is aggregated —
        barriers call this so buffered ops always land before ranks
        synchronize."""
        for container in self.containers.values():
            coalescer = getattr(container, "_coalescer", None)
            if coalescer is not None:
                yield from coalescer.drain(rank)

    # -- running ranks -----------------------------------------------------------------
    def run_ranks(
        self,
        body: Callable[[int], Generator],
        ranks: Optional[range] = None,
        until: Optional[float] = None,
    ) -> List:
        """Spawn ``body(rank)`` for all ranks, run the sim, return processes.

        Raises if any rank failed; the processes' ``result`` carries each
        rank's return value.
        """
        procs = self.cluster.spawn_ranks(body, ranks=ranks)
        self.cluster.run(until=until)
        for proc in procs:
            if proc.done and not proc.ok:
                raise proc.value
        return procs

    @property
    def now(self) -> float:
        return self.sim.now

    def close(self) -> None:
        for container in self.containers.values():
            container.close()
        self.containers.clear()
