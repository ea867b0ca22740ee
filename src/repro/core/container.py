"""Base machinery shared by all HCL distributed containers.

A container owns one partition per hosting node slot.  Each
:class:`Partition` couples a *real* local structure (cuckoo / rbtree /
queue / mdlist) with a :class:`~repro.memory.segment.MemorySegment` for
memory accounting and optional persistence.

Every container is one idea — route a key, then run one bound function at
the target (Section III-C/D, Fig 3) — so it is written down once:

* :data:`OP_TABLES` declares, per family, what each operation is;
* :meth:`DistributedContainer._issue` is the client-side prefix of every
  operation (stub, route, payload size), handing to one of four issue
  stages that differ only in *when* the op leaves the node;
* :meth:`DistributedContainer._apply` is the one place an operation meets
  a partition, whether it arrived by RPC, through the same-node bypass or
  as a replica copy.

The **hybrid data access model** (Section III-C5) lives in
:meth:`DistributedContainer._execute`: if the target partition's node equals
the calling rank's node, the operation bypasses the RPC machinery entirely
and runs against shared memory (charging only the structure's local-memory
cost); otherwise a single RoR invocation ships the operation to the target
NIC.

Replication (Section III-A4) is asynchronous and server-side: after a
mutating handler completes, the hosting node re-invokes the operation on
the next ``replication`` partitions without the caller waiting.

Persistence (Section III-C6): mutating handlers append a DataBox record to
the partition's mmap-backed log and charge the device sync cost
(per-operation in strict mode, batched in relaxed mode).
"""

from __future__ import annotations

from collections import deque
from typing import (Any, Callable, Dict, Deque, Hashable, Iterator, List,
                    NamedTuple, Optional, Sequence, Tuple)

from repro.core.costs import CostLedger, charge
from repro.core.policy import ContainerPolicy
from repro.fabric.node import NodeDownError
from repro.memory.segment import MemorySegment
from repro.obs.registry import registry_of
from repro.rpc.coalesce import AUTO_INITIAL, MISS, OpCoalescer, ReadCache
from repro.rpc.future import RPCFuture
from repro.serialization.databox import DataBox, estimate_size
from repro.simnet.resources import Resource
from repro.structures.stats import OpStats

__all__ = ["Op", "OP_TABLES", "Partition", "DistributedContainer",
           "KeyedContainer", "QueueContainer"]


class Op(NamedTuple):
    """One row of a container family's op table.

    The row's ``name`` is the RPC operation name, and ``_do_<name>`` on the
    container is its bound function: ``(part, *args) -> (result, OpStats,
    entry_bytes)``.
    """

    name: str
    #: number of arguments after the partition
    arity: int
    #: mutates the partition: bumps its write epoch and is persisted,
    #: replicated and failed over.  Reads skip all four.
    write: bool = True
    #: a single remote read of ``args[0]`` may be served from the read cache
    cached: bool = False


def _keyed_ops(values: bool, cached: bool, *family: Op) -> Tuple[Op, ...]:
    """The rows every keyed container has; maps carry a value, sets do not."""
    return (
        Op("insert", 2 if values else 1),
        Op("find", 1, write=False, cached=cached),
        Op("erase", 1),
        Op("resize", 1),
        Op("batch", 1),
        Op("size", 0, write=False),
        *family,
    )


_HASH = (Op("upsert", 2),)
_ORDERED = (Op("range_find", 3, write=False), Op("min_key", 0, write=False),
            Op("max_key", 0, write=False))
_QUEUE = (Op("pop", 0), Op("push_many", 1), Op("pop_many", 1),
          Op("size", 0, write=False))

#: family (the ``HCL.<family>`` factory name) -> its operations.  Ordered
#: ``find`` does not consult the read cache, and no ``batch`` does.
OP_TABLES: Dict[str, Tuple[Op, ...]] = {
    "unordered_map": _keyed_ops(True, True, *_HASH),
    "unordered_set": _keyed_ops(False, True),
    "map": _keyed_ops(True, False, *_ORDERED),
    "set": _keyed_ops(False, False, *_ORDERED),
    "queue": (Op("push", 1), *_QUEUE),
    "priority_queue": (Op("push", 2), *_QUEUE,
                       Op("peek", 0, write=False), Op("batch", 1)),
}


class Partition:
    """One partition: a local structure on a node, plus its segment.

    ``index`` is the positional slot in the container's partition list
    (used for RPC routing) and may change when partitions are removed;
    ``uid`` is a stable identity assigned at creation, used by the
    rendezvous hash so that membership changes move a minimal key set.
    """

    def __init__(self, index: int, node_id: int, structure: Any,
                 segment: MemorySegment, uid: int = None):
        self.index = index
        self.uid = uid if uid is not None else index
        self.node_id = node_id
        self.structure = structure
        self.segment = segment
        # Keyed by the segment's unique name (``<container>.<index>``), not
        # the positional index — two containers' partition counters must not
        # collide in the shared registry.
        self.ops = registry_of(segment.node.sim).counter(f"{segment.name}/ops")
        #: monotonic mutation counter; the read cache's staleness authority
        self.write_epoch = 0

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Partition {self.index} on node {self.node_id}>"


class DistributedContainer:
    """Common behaviour for all HCL DDSs."""

    #: this family's rows of :data:`OP_TABLES`; set by every concrete class
    OPS: Tuple[Op, ...] = ()
    #: queue families live on one node and have nowhere to replicate to
    SINGLE_PARTITION = False

    #: derived views of the op tables.  Whether an op mutates is a property
    #: of its name across all families, so the base class answers for all.
    OPERATIONS: Tuple[str, ...] = ()
    READ_ONLY_OPS = frozenset(
        row.name for table in OP_TABLES.values() for row in table
        if not row.write
    )
    #: op name -> the class's ``_run_<name>`` vector form, for the ops that
    #: have one: ``(self, part, args_list, results) -> (OpStats,
    #: worst_bytes)``.  Built once per class, not per container.
    RUNS: Dict[str, Callable] = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.OPERATIONS = tuple(row.name for row in cls.OPS)
        cls.RUNS = {
            row.name: getattr(cls, f"_run_{row.name}")
            for row in cls.OPS if hasattr(cls, f"_run_{row.name}")
        }

    def __init__(self, runtime, name: str, partitions: Sequence[Partition],
                 policy: ContainerPolicy):
        self.runtime = runtime
        self.name = name
        self.partitions: List[Partition] = list(partitions)
        self.policy = policy
        #: op name -> (bound ``_do_*`` function, table row)
        self._ops: Dict[str, Tuple[Callable, Op]] = {
            row.name: (getattr(self, f"_do_{row.name}"), row)
            for row in self.OPS
        }
        #: op name -> its RPC name, ``<container>.<op>`` — also the label
        #: of every future the op returns, shared rather than rebuilt
        self._rpc_names: Dict[str, str] = {
            op: f"{name}.{op}" for op in self._ops
        }
        if policy.aggregation == "auto":
            self._coalescer: Optional[OpCoalescer] = OpCoalescer(
                self, AUTO_INITIAL, auto=True
            )
        elif policy.aggregation:
            self._coalescer = OpCoalescer(self, policy.aggregation)
        else:
            self._coalescer = None
        self._cache = (
            ReadCache(runtime.sim, name) if policy.read_cache else None
        )
        #: rank -> home node, precomputed (rank placement is static) so the
        #: per-op paths skip two calls per operation
        cluster = runtime.cluster
        self._rank_home = [
            cluster.node_of_rank(r) for r in range(cluster.total_procs)
        ]
        metrics = registry_of(runtime.sim)
        self.ledger = CostLedger(metrics, prefix=name)
        self.local_hits = metrics.counter(f"{name}/local")
        self.remote_calls = metrics.counter(f"{name}/remote")
        self.failover_reads = metrics.counter(f"{name}/failover_reads")
        self.failover_writes = metrics.counter(f"{name}/failover_writes")
        self.replayed_writes = metrics.counter(f"{name}/replayed_writes")
        #: node_id -> (part_index, op, args, token) records awaiting replay
        self._replay: Dict[int, Deque[tuple]] = {}
        self._replaying: set = set()
        #: part.index -> capacity-1 Resource, created on first use
        #: (``mutex`` only)
        self._mutexes: Dict[int, Resource] = {}
        self._bound: set = set()
        for part in self.partitions:
            self._bind(part.node_id)

    def _mutex_of(self, part: "Partition") -> Resource:
        """The partition's lock under ``concurrency="mutex"``."""
        lock = self._mutexes.get(part.index)
        if lock is None:
            lock = Resource(self.runtime.sim, 1,
                            name=f"{self.name}.{part.index}")
            self._mutexes[part.index] = lock
        return lock

    # -- wiring -------------------------------------------------------------
    def _bind(self, node_id: int) -> None:
        """Bind every op on ``node_id``'s server, once per hosting node.

        A replicated container also binds each mutation's ``:replica``
        variant — the no-fan-out handler replication targets run.
        """
        if node_id in self._bound:
            return
        self._bound.add(node_id)
        server = self.runtime.server(node_id)
        for op, (_fn, row) in self._ops.items():
            server.bind(self._rpc_names[op], self._handler(op))
            if self.policy.replication and row.write:
                server.bind(f"{self.name}.{op}:replica",
                            self._handler(op, replica=True))

    def _handler(self, op: str, replica: bool = False) -> Callable:
        def handler(ctx, part_index, *args):
            return self._apply(self.partitions[part_index], op, args,
                               ctx.node, True, replica)

        return handler

    # -- where an op meets a partition -----------------------------------------
    def _run(self, part: Partition, op: str, args: tuple):
        """The bound function itself plus its epoch bump; no simulated cost."""
        fn, row = self._ops[op]
        out = fn(part, *args)
        if row.write and op != "batch":
            part.write_epoch += 1  # _do_batch bumps per sub-op
        return out

    def _apply(self, part: Partition, op: str, args: tuple, node,
               remote: bool, replica: bool = False):
        """Generator: run ``op`` on ``part`` and charge it to ``node``.

        Three callers: the RPC handler (``remote=True`` — executed on the
        NIC core, so compute terms run slower), the same-node bypass of
        :meth:`_execute` (``remote=False`` — host CPU over shared memory)
        and the ``:replica`` handler (``replica=True`` — a copy being
        applied: no mutex, no ledger row, no log record, no further
        fan-out).
        """
        cpu_factor = node.cost.nic_compute_factor if remote else 1.0
        mutex = (self._mutex_of(part)
                 if not replica and self.policy.concurrency == "mutex"
                 else None)
        if mutex is not None:
            yield mutex.claim()
            if remote:
                # lock/unlock themselves are atomic RMWs on the NIC core
                yield 2 * node.cost.cas_local * cpu_factor
        try:
            result, stats, entry_bytes = self._run(part, op, args)
            if stats is not None:
                yield from charge(node, stats, entry_bytes,
                                  cpu_factor=cpu_factor)
        finally:
            if mutex is not None:
                mutex.release_slot()
        if replica:
            return result
        self.ledger.record(op, stats, remote=remote)
        part.ops.add(1)
        if self._ops[op][1].write:
            if self.policy.persistence:
                yield from self._persist(part, op, args, node)
            if self.policy.replication:
                self._replicate(part, op, args)
        return result

    # -- the client-side prefix of every op ----------------------------------
    def _issue(self, rank: int, op: str, args: tuple, stage,
               part: Optional[Partition] = None,
               payload: Optional[int] = None):
        """Look up, check, route, size and stub ``op``; hand it to ``stage``.

        ``stage`` is one of the four issue stages — :meth:`_execute`
        (drained, synchronous), :meth:`_execute_async` (drained behind
        ops buffered or in flight to the partition, else one direct
        invocation), :meth:`_pipeline_op` (always buffer),
        :meth:`_buffer_op` (buffer without a future) — or a read-cache
        front for the first two (:meth:`_read`, :meth:`_read_async`).  They
        stay separate because they produce different simulated schedules.
        Returns what the stage returns: a generator, an
        :class:`RPCFuture`, or — from :meth:`_buffer_op`, for an op it
        buffered — ``()``, which the caller's ``yield from`` finishes at
        once.

        Keyed ops route on ``args[0]`` and are sized as an entry;
        partition-addressed ops pass ``part`` and a fixed ``payload``.
        """
        row = self._ops[op][1]
        if len(args) != row.arity:
            raise TypeError(
                f"{self.name}.{op} takes {row.arity} argument(s), "
                f"got {len(args)}"
            )
        if part is None:
            part = self.partition_for(args[0])
        if payload is None:
            payload = self._entry_bytes(*args)
        return stage(rank, part, op, args, payload)

    # -- stage 1: the hybrid access core ---------------------------------------
    def _execute(self, rank: int, part: Partition, op: str, args: tuple,
                 payload_bytes: int, _drain: bool = True, trace_parent=None):
        """Generator: run ``op`` on ``part`` from ``rank`` — local or remote.

        This is the locality decision of Section III-C5: same node => direct
        shared-memory access (no RPC, no NIC); different node => one RoR
        invocation.

        A synchronous op is a sync point for the aggregation buffers: any
        ops buffered for this partition flush (and complete) first, so
        program order per rank is preserved.  When the caller's node has
        nothing buffered or in flight there (not ``busy``), a drain would
        neither flush nor wait, so it is skipped.  ``_drain=False`` is reserved
        for the coalescer's own flush batches.
        """
        caller_node = self._rank_home[rank]
        coal = self._coalescer
        if coal is not None and _drain and coal.busy(caller_node, part.index):
            yield from coal.drain(rank, part.index)
        cluster = self.runtime.cluster
        if caller_node == part.node_id:
            self.local_hits.add(1)
            result = yield from self._apply(
                part, op, args, cluster.node(caller_node), False
            )
            return result
        self.remote_calls.add(1)
        client = self.runtime.client(caller_node)
        policy = self.policy
        # A write that may fail over is replayed under its original token,
        # so the container draws it and holds it until nothing can replay.
        token = (client.next_token(part.node_id)
                 if policy.write_failover and self._ops[op][1].write else None)
        try:
            return (yield from client.call(
                part.node_id,
                self._rpc_names[op],
                (part.index, *args),
                payload_size=payload_bytes,
                token=token,
                trace_parent=trace_parent,
                stream=part.index,
            ))
        except ConnectionError:
            # Primary down: replicated containers serve reads from the
            # next replica(s) in the hash chain (Section III-A4), and with
            # ``write_failover`` take mutations there too.
            mutation = self._ops[op][1].write
            if policy.replication <= 0 or (
                    mutation and not policy.write_failover):
                raise
            result = yield from self._on_replica(
                client, part, op, args, payload_bytes, mutation
            )
            if mutation:
                # Acked to the caller now; replayed onto the primary as
                # soon as it restarts, under the *original* token, so if
                # the primary executed that request late (completion lost,
                # budget exhausted) the replay is suppressed server-side,
                # not double-applied.  The replay's settle retires it.
                # The primary's logical state changed here, so its epoch
                # moves now: no node's cached read of it outlives the ack.
                part.write_epoch += 1
                self.failover_writes.add(1)
                self._queue_replay(part, op, args, token)
                token = None
            else:
                self.failover_reads.add(1)
            return result
        finally:
            if token is not None:
                client.retire(part.node_id, token)

    # -- replication and failover ------------------------------------------------
    def _replicas_of(self, part: Partition) -> Iterator[Partition]:
        """The next ``replication`` partitions in ``part``'s hash chain."""
        nparts = len(self.partitions)
        for step in range(1, self.policy.replication + 1):
            replica = self.partitions[(part.index + step) % nparts]
            if replica is not part:
                yield replica

    def _on_replica(self, client, part, op, args, payload_bytes,
                    mutation: bool):
        """Generator: run ``op`` on the first live replica of ``part``.

        Mutations go to the ``:replica`` handler: the copy must not fan
        out again.
        """
        name = f"{self.name}.{op}:replica" if mutation else f"{self.name}.{op}"
        last_error: Optional[BaseException] = None
        for replica in self._replicas_of(part):
            if not self.runtime.cluster.node(replica.node_id).alive:
                continue
            try:
                result = yield from client.call(
                    replica.node_id, name, (replica.index, *args),
                    payload_size=payload_bytes,
                )
                return result
            except ConnectionError as err:  # replica died too; keep going
                last_error = err
        raise last_error or NodeDownError(
            f"{self.name}.{op}: primary and all {self.policy.replication} "
            "replicas are down"
        )

    def _replicate(self, part: Partition, op: str, args: tuple) -> None:
        """Asynchronously re-execute a mutation on the next partitions.

        "Replication occurs asynchronously at the server side, where the
        target process will further hash an operation to more servers."
        """
        replicas = list(self._replicas_of(part))
        if not replicas:
            return
        client = self.runtime.client(part.node_id)
        for replica in replicas:
            if replica.node_id == part.node_id:
                # Same node: apply directly (no network), zero-cost async.
                self._run(replica, op, args)
            else:
                client.invoke(
                    replica.node_id,
                    f"{self.name}.{op}:replica",
                    (replica.index, *args),
                )

    def _queue_replay(self, part, op, args, token) -> None:
        """Remember an acked-on-replica write for replay onto the primary."""
        node_id = part.node_id
        if node_id not in self._replay:
            self._replay[node_id] = deque()
            node = self.runtime.cluster.node(node_id)
            node.on_recover.append(lambda: self._spawn_replay(node_id))
        self._replay[node_id].append((part.index, op, args, token))
        if self.runtime.cluster.node(node_id).alive:
            # Primary came back between the failed call and the ack (or was
            # merely unreachable, not crashed): replay immediately.
            self._spawn_replay(node_id)

    def _spawn_replay(self, node_id: int) -> None:
        if not self._replay.get(node_id) or node_id in self._replaying:
            return
        self._replaying.add(node_id)
        self.runtime.sim.process(
            self._replay_body(node_id), name=f"{self.name}-replay-{node_id}"
        )

    def _replay_body(self, node_id: int):
        """Drain the replay queue for a recovered primary, in FIFO order."""
        records = self._replay.get(node_id)
        client = self.runtime.client(node_id)
        try:
            while records:
                part_index, op, args, token = records[0]
                try:
                    yield from client.call(
                        node_id,
                        f"{self.name}.{op}:replica",
                        (part_index, *args),
                        token=token,
                    )
                except ConnectionError:
                    # Crashed again mid-replay; the remaining records stay
                    # queued and the next recovery hook resumes the drain.
                    return
                records.popleft()
                self.runtime.client(token[0]).retire(node_id, token)
                self.replayed_writes.add(1)
        finally:
            self._replaying.discard(node_id)

    # -- stage 2: asynchronous, drained-or-direct ---------------------------------
    def _execute_async(self, rank: int, part: Partition, op: str, args: tuple,
                       payload_bytes: int) -> RPCFuture:
        """Asynchronous variant: returns a future immediately.

        Local operations still complete through a spawned process so that
        their memory cost lands on the timeline.  A remote op runs as one
        direct invocation unless the caller's node has ops buffered or in
        flight for the partition: then it runs as a drained :meth:`_execute`
        behind a future, so it cannot overtake them.
        """
        caller_node = self._rank_home[rank]
        if caller_node == part.node_id:
            return self._spawn_call(rank, part, op, args, payload_bytes)
        coal = self._coalescer
        if (coal is not None and op != "batch"
                and coal.busy(caller_node, part.index)):
            return self._spawn_call(rank, part, op, args, payload_bytes)
        self.remote_calls.add(1)
        return self.runtime.client(caller_node).invoke(
            part.node_id,
            self._rpc_names[op],
            (part.index, *args),
            payload_size=payload_bytes,
            stream=part.index,
        )

    # -- stage 3: pipelined, always buffer ---------------------------------------
    def _pipeline_op(self, rank: int, part: Partition, op: str, args: tuple,
                     payload_bytes: int) -> RPCFuture:
        """Pipelined async mutation: always buffer when a coalescer exists.

        The workhorse of the ``async_insert``/``async_rmw`` API: unlike
        :meth:`_execute_async` (a drained call behind pending ops, a lone
        direct invocation otherwise), a pipelined op *always* rides
        the write-combining buffer of its destination — including same-node
        partitions, where batching per-op futures into one locally-executed
        flush replaces a spawned process per op.  An upsert storm becomes a
        stream of full batches with one per-op future each.  With no
        coalescer it degrades to :meth:`_execute_async`; ordering against
        non-pipelined ops is guaranteed only at ``flush``/drain sync points.
        """
        coal = self._coalescer
        if coal is None:
            return self._execute_async(rank, part, op, args, payload_bytes)
        fut = RPCFuture(self.runtime.sim, self._rpc_names[op])
        coal.append(rank, self._rank_home[rank], part, op, args,
                    payload_bytes, fut)
        return fut

    # -- stage 4: buffer without a future (Section III-C3, Table I) --------------
    def _buffer_op(self, rank: int, part: Partition, op: str, args: tuple,
                   payload_bytes: int):
        """Write-combine ``op`` when aggregation is on; the caller ``yield
        from``-s what this returns.

        With aggregation off — or for a same-node partition, where the
        hybrid access model already bypasses the RPC machinery — this
        returns the ``_execute`` generator.  Otherwise the op lands in the
        destination buffer at once and this returns ``()``: nothing to
        wait for, no generator built.  The op is applied by the next
        threshold or sync-point flush.
        """
        caller_node = self._rank_home[rank]
        coal = self._coalescer
        if coal is None or caller_node == part.node_id:
            return self._execute(rank, part, op, args, payload_bytes)
        coal.append(rank, caller_node, part, op, args, payload_bytes)
        return ()

    def _spawn_call(self, rank: int, part: Partition, op: str, args: tuple,
                    payload_bytes: int, _drain: bool = True,
                    trace_parent=None) -> RPCFuture:
        """Run a full-semantics ``_execute`` behind a future.

        Used for same-node async ops, coalescer flushes and
        ordering-sensitive async ops: the spawned process gets the
        drain/failover/idempotency-token behavior of the synchronous path.
        """
        fut = RPCFuture(self.runtime.sim, self._rpc_names[op])

        def body():
            try:
                value = yield from self._execute(
                    rank, part, op, args, payload_bytes, _drain=_drain,
                    trace_parent=trace_parent,
                )
                fut._complete(value)
            except BaseException as err:  # noqa: BLE001
                fut._error(err)

        self.runtime.sim.process(body(), name=f"{self.name}-{op}")
        return fut

    def _spawn_batch(self, rank: int, part: Partition, subops,
                     payload_bytes: int, trace_parent=None) -> RPCFuture:
        """One coalescer flush: ship ``subops`` as a single invocation."""
        return self._spawn_call(
            rank, part, "batch", (list(subops),), payload_bytes,
            _drain=False, trace_parent=trace_parent,
        )

    # -- locality-aware cached reads (fronts for stages 1 and 2) -----------------
    def _caches(self, caller_node: int, part: Partition, op: str) -> bool:
        """Only remote partitions cache: same-node reads are already direct
        shared-memory accesses."""
        return (self._cache is not None and self._ops[op][1].cached
                and caller_node != part.node_id)

    def _read(self, rank: int, part: Partition, op: str, args: tuple,
              payload_bytes: int):
        """Generator: :meth:`_execute` via the read cache when possible.

        Any pending buffered ops for the target partition flush first, then
        the pre-read epoch is captured so a racing write voids the fill.
        """
        caller_node = self._rank_home[rank]
        if not self._caches(caller_node, part, op):
            result = yield from self._execute(
                rank, part, op, args, payload_bytes
            )
            return result
        coal = self._coalescer
        if coal is not None and coal.busy(caller_node, part.index):
            yield from coal.drain(rank, part.index)
        key = args[0]
        hit = self._cache.lookup(caller_node, part, key)
        if hit is not MISS:
            return hit
        epoch_before = part.write_epoch
        result = yield from self._execute(rank, part, op, args, payload_bytes)
        self._cache.fill(caller_node, part, key, result, epoch_before)
        return result

    def _read_async(self, rank: int, part: Partition, op: str, args: tuple,
                    payload_bytes: int) -> RPCFuture:
        """Async variant of :meth:`_read`; hits complete instantly."""
        caller_node = self._rank_home[rank]
        if not self._caches(caller_node, part, op):
            return self._execute_async(rank, part, op, args, payload_bytes)
        key = args[0]
        coal = self._coalescer
        if coal is None or not coal.busy(caller_node, part.index):
            hit = self._cache.lookup(caller_node, part, key)
            if hit is not MISS:
                fut = RPCFuture(self.runtime.sim, self._rpc_names[op])
                # Materialize the event first: the settle then occupies a
                # scheduler slot at the hit instant, keeping same-timestamp
                # ordering identical to the eager-event design.
                fut.wait()
                fut._complete(hit)
                return fut
        epoch_before = part.write_epoch
        fut = self._execute_async(rank, part, op, args, payload_bytes)

        def _fill(event):
            if event.ok:
                self._cache.fill(
                    caller_node, part, key, event.value, epoch_before
                )

        fut._event.add_callback(_fill)
        return fut

    # -- sync points and reports --------------------------------------------------
    def flush(self, rank: int):
        """Generator: mandatory sync point — flush and await buffered ops."""
        if self._coalescer is not None:
            yield from self._coalescer.drain(rank)

    def aggregation_report(self) -> Dict[str, Any]:
        """Flush / ops-per-flush / cache-hit counters (Fig-4-style rows)."""
        report: Dict[str, Any] = {}
        if self._coalescer is not None:
            report["aggregation"] = self._coalescer.report()
        if self._cache is not None:
            report["read_cache"] = self._cache.report()
        return report

    def _fan_out(self, rank: int, op: str, args: tuple, payload: int):
        """Generator: ``op`` on every partition in parallel; results in
        partition order."""
        futures = [
            self._issue(rank, op, args, self._execute_async, part, payload)
            for part in self.partitions
        ]
        results = []
        for fut in futures:
            yield fut.wait()
            results.append(fut.result)
        return results

    # -- bound functions every family shares --------------------------------------
    def _do_size(self, part: Partition):
        return len(part.structure), OpStats(local_ops=1), 8

    # "Callbacks ... are extremely powerful in cases where we want to
    # aggregate multiple data-local operations together ... mapping several
    # spatially located updates to be performed with one call" (III-C3).
    # ``_do_batch`` executes a list of sub-operations against one partition
    # under a single invocation; each maximal run of an op with a vector
    # form (``_run_<name>``) is one call of that form.
    def _do_batch(self, part: "Partition", subops):
        results = []
        append = results.append
        worst_bytes = 16
        ops = self._ops
        runs = self.RUNS
        # Plain-int accumulation: one OpStats at the end instead of a
        # merge call per sub-op — this loop runs once per buffered op on
        # every aggregated hot path.
        local_ops = reads = writes = cas = reloc = rentries = 0
        resized = False
        i = 0
        n = len(subops)
        while i < n:
            op, args = subops[i]
            entry = ops.get(op)
            if entry is None:
                raise KeyError(f"unknown sub-operation {op!r}")
            if op == "batch":
                raise ValueError("nested batches are not allowed")
            run = runs.get(op)
            if run is not None:
                j = i + 1
                while j < n and subops[j][0] == op:
                    j += 1
                stats, entry_bytes = run(
                    self, part, [a for _op, a in subops[i:j]], results
                )
                i = j
            else:
                i += 1
                fn, row = entry
                result, stats, entry_bytes = fn(part, *args)
                if row.write:
                    part.write_epoch += 1
                append(result)
            if stats is not None:
                local_ops += stats.local_ops
                reads += stats.reads
                writes += stats.writes
                cas += stats.cas_ops
                reloc += stats.relocations
                if stats.resized:
                    resized = True
                rentries += stats.resize_entries
            if entry_bytes > worst_bytes:
                worst_bytes = entry_bytes
        total = OpStats(local_ops, reads, writes, cas, reloc, resized,
                        rentries)
        return results, total, worst_bytes

    # -- persistence -------------------------------------------------------------------
    def recover_from_logs(self) -> int:
        """Replay each partition's backing log into its structure.

        Called at construction when ``recover=True``: the container comes
        back with the exact pre-crash contents (inserts, upserts, erases,
        pushes... replayed in order).  Returns the number of operations
        replayed.  Replay happens at time zero — recovery cost is an
        offline property, not part of the measured experiments.

        Keys round-trip through the DataBox's msgpack encoding: use
        encoding-stable key types (str / int / bytes) for persisted
        containers — msgpack, like any serialization wire format, decodes
        tuples as lists.
        """
        replayed = 0
        for part in self.partitions:
            log = part.segment.log
            if log is None:
                continue
            for record in log.records():
                op, args = DataBox.decode(record.payload).value
                if op not in self._ops:
                    raise ValueError(
                        f"log for {self.name!r} contains unknown op {op!r}"
                    )
                self._run(part, op, args)
                replayed += 1
        return replayed

    def _persist(self, part: Partition, op: str, args: tuple, node):
        if part.segment.log is None:
            return
        box = DataBox([op, list(args)])
        payload = box.encode()
        part.segment.persist(payload)
        if not part.segment.log.relaxed:
            yield node.cost.persist(len(payload))
        # Relaxed mode: the kernel flushes in the background; no foreground
        # cost is charged (Section III-C6's tunable synchronization).

    # -- memory growth --------------------------------------------------------------------
    def _grow_segment_if_resized(self, part: Partition, stats: OpStats,
                                 entry_bytes: int) -> None:
        """Mirror a structure resize into segment/node memory accounting."""
        if not stats.resized:
            return
        need = self._structure_bytes(part, entry_bytes)
        if need > part.segment.size:
            part.segment.grow(need)

    def _structure_bytes(self, part: Partition, entry_bytes: int) -> int:
        """Estimated footprint of the partition structure; overridable."""
        n = len(part.structure)
        return max(64 * 1024, 2 * n * max(entry_bytes, 64))

    # -- introspection ----------------------------------------------------------------------
    def total_entries(self) -> int:
        return sum(len(p.structure) for p in self.partitions)

    @staticmethod
    def _entry_bytes(*values: Any) -> int:
        # Inlined fast paths for estimate_size's commonest cases: this
        # runs twice per op (payload sizing at the caller, entry sizing at
        # the target) on every container hot path, keys are overwhelmingly
        # strings or ints, and valueless entries (ISx keys) carry None.
        total = 0
        for v in values:
            t = type(v)
            if t is str:
                total += 4 + len(v)
            elif t is int or t is float:
                total += 8
            elif v is None:
                total += 1
            else:
                total += estimate_size(v)
        return total

    def close(self) -> None:
        if self._coalescer is not None:
            pending = self._coalescer.pending_total()
            if pending:
                raise RuntimeError(
                    f"container {self.name!r} destroyed with {pending} "
                    "buffered operation(s) unflushed; yield from "
                    "container.flush(rank) (or HCL.barrier(rank)) before close"
                )
        for part in self.partitions:
            part.segment.close()

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<{type(self).__name__} {self.name!r} "
            f"partitions={len(self.partitions)} entries={self.total_entries()}>"
        )


class KeyedContainer(DistributedContainer):
    """What the four keyed containers share — hash or ordered, map or set.

    A family supplies ``partition_for(key)`` and the per-partition
    structure (``insert`` / ``find`` / ``contains`` / ``remove``); the
    bound functions and the client API are the same for all four.
    Client methods take the calling ``rank`` first; the synchronous
    spellings are generators, the two async spellings return an
    :class:`RPCFuture`.
    """

    #: maps store ``(key, value)`` entries, sets key-only ones
    STORES_VALUES = True

    # -- bound functions: (result, stats, entry_bytes) -------------------------
    def _do_insert(self, part: Partition, key, value=True):
        entry_bytes = (self._entry_bytes(key, value) if self.STORES_VALUES
                       else self._entry_bytes(key))
        _new, stats = part.structure.insert(key, value)
        self._grow_segment_if_resized(part, stats, entry_bytes)
        return True, stats, entry_bytes

    def _do_find(self, part: Partition, key):
        if not self.STORES_VALUES:
            found, stats = part.structure.contains(key)
            return found, stats, self._entry_bytes(key)
        value, found, stats = part.structure.find(key)
        entry_bytes = self._entry_bytes(key, value) if found else 16
        return (value if found else None, found), stats, entry_bytes

    def _do_erase(self, part: Partition, key):
        ok, stats = part.structure.remove(key)
        return ok, stats, 16

    # -- client API: synchronous, async and pipelined spellings ----------------
    def insert(self, rank: int, key: Hashable, *value: Any):
        """``bool insert(const K&[, const V&])`` — Table I: F + L + W on the
        hash family, F + L·log(N) + W on the ordered one.  Maps pass the
        value, sets the key alone."""
        return self._issue(rank, "insert", (key, *value), self._execute)

    def insert_async(self, rank: int, key: Hashable, *value: Any) -> RPCFuture:
        return self._issue(rank, "insert", (key, *value), self._execute_async)

    def async_insert(self, rank: int, key: Hashable, *value: Any) -> RPCFuture:
        """Pipelined insert: write-combined, with a per-op result future."""
        return self._issue(rank, "insert", (key, *value), self._pipeline_op)

    def find(self, rank: int, key: Hashable):
        """``bool find(const K&[, V&])`` — Table I: F + L + R (hash),
        F + L·log(N) + R (ordered).  Maps return ``(value, found)``, sets
        the membership boolean."""
        return self._issue(rank, "find", (key,), self._read)

    def find_async(self, rank: int, key: Hashable) -> RPCFuture:
        """Future of :meth:`find`'s result; cached hits complete
        instantly."""
        return self._issue(rank, "find", (key,), self._read_async)

    def erase(self, rank: int, key: Hashable):
        return self._issue(rank, "erase", (key,), self._execute)

    def resize(self, rank: int, partition_id: int, new_size: int):
        """Generator: explicit per-partition resize (localized, no global
        synchronization — Section III-D, Table I row 3)."""
        return self._issue(rank, "resize", (new_size,), self._execute,
                           self.partitions[partition_id], 16)

    def count(self, rank: int):
        """Generator: total entries across all partitions (fan-out reads)."""
        sizes = yield from self._fan_out(rank, "size", (), 8)
        return sum(sizes)

    def batch(self, rank: int, ops: "list"):
        """Generator: execute many keyed operations in few invocations.

        ``ops`` is a sequence of tuples — ``("insert", key, value)``,
        ``("find", key)``, ``("erase", key)`` and, on a map,
        ``("upsert", key, delta)``.
        Operations are grouped by target partition and shipped as ONE
        invocation per partition (the spatial-aggregation win of
        Section III-C3); results come back in the original order.

        No sub-op consults the read cache: the partition epoch each
        batched write bumps is what keeps a later cached read fresh.  With
        ``write_failover``, each per-partition batch runs through the full
        ``_execute`` semantics so a dead primary fails over to a replica
        exactly like a single op.
        """
        if self._coalescer is not None:
            # A keyed batch is a sync point: buffered ops land first.
            yield from self._coalescer.drain(rank)
        groups = {}
        for idx, (op, *args) in enumerate(ops):
            part = self.partition_for(args[0])
            _part, idxs, subops = groups.setdefault(part.index,
                                                    (part, [], []))
            idxs.append(idx)
            subops.append((op, tuple(args)))
        results = [None] * len(ops)
        futures = []
        for part, idxs, subops in groups.values():
            payload = sum(
                sum(estimate_size(a) for a in args) for _op, args in subops
            )
            if self.policy.write_failover:
                fut = self._spawn_call(
                    rank, part, "batch", (subops,), payload, _drain=False
                )
            else:
                fut = self._execute_async(
                    rank, part, "batch", (subops,), payload
                )
            futures.append((fut, idxs))
        for fut, idxs in futures:
            yield fut.wait()
            for idx, result in zip(idxs, fut.result):
                results[idx] = result
        return results


class QueueContainer(DistributedContainer):
    """What the two queue families share — FIFO or priority: one
    partition, its ``home``, which every op addresses; the grow rule; and
    the pop / size client API.  A family supplies its pushes and its
    ``_do_*`` functions."""

    SINGLE_PARTITION = True
    #: the family's C++ name, for the one-partition error; set by each family
    CXX_NAME: str

    def __init__(self, runtime, name, partitions, policy):
        super().__init__(runtime, name, partitions, policy)
        if len(self.partitions) != 1:
            raise ValueError(f"{self.CXX_NAME} is single-partitioned")

    @property
    def home(self) -> Partition:
        return self.partitions[0]

    def _maybe_grow(self, part: Partition, entry_bytes: int,
                    length: int) -> Optional[OpStats]:
        """The push grow rule: a queue of ``length`` entries needs twice
        that many of ``max(64, entry_bytes)`` bytes; short of that, the
        segment grows to the need, and at least doubles."""
        need = 2 * length * max(64, entry_bytes)
        if need > part.segment.size:
            part.segment.grow(max(need, 2 * part.segment.size))
            return OpStats(resized=True, resize_entries=length)
        return None

    # -- client API: pops and size ---------------------------------------------
    def pop(self, rank: int):
        """``bool pop(T&)`` — Table I: F + L + R.  Returns ``(entry, ok)``;
        ``(None, False)`` when the queue is empty."""
        return self._issue(rank, "pop", (), self._execute, self.home, 16)

    def pop_async(self, rank: int) -> RPCFuture:
        return self._issue(rank, "pop", (), self._execute_async, self.home, 16)

    def pop_many(self, rank: int, count: int):
        """Vector pop — Table I: F + L + E·R.  Returns a list of up to
        ``count`` entries."""
        return self._issue(rank, "pop_many", (count,), self._execute,
                           self.home, 16)

    def size(self, rank: int):
        return self._issue(rank, "size", (), self._execute, self.home, 8)
